import re

import numpy as np
import pytest

from salsa_deconv.convolution import (
    BlurKind,
    apply_filter,
    build_inversion_filter,
    build_psf,
    psf_to_otf,
)

from oracles import (
    dense_blur_matrix,
    dft_otf,
    direct_convolve,
    direct_convolve_scalar,
    full_spectrum,
)


# ---------------------------------------------------------------------------
# build_psf


def test_uniform9_taps():
    taps = build_psf(BlurKind.UNIFORM9)
    assert taps.shape == (9, 9)
    assert np.allclose(taps, 1.0 / 81.0, rtol=0, atol=1e-15)


def test_inverse_quadratic_tap_ratios():
    taps = build_psf(BlurKind.INVERSE_QUADRATIC, size=15)
    c = 7
    # unnormalized taps are 1 at the center and 1/3 at (1, 1)
    assert taps[c + 1, c + 1] / taps[c, c] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert taps[c + 2, c] / taps[c, c] == pytest.approx(1.0 / 5.0, rel=1e-14)
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)


def test_identity_psf_is_single_unit_tap():
    taps = build_psf(BlurKind.UNIFORM9, size=1)
    assert taps.shape == (1, 1)
    assert taps[0, 0] == 1.0


def test_gaussian_tap_ratio_matches_width():
    taps = build_psf(BlurKind.GAUSSIAN)
    assert taps.shape == (15, 15)
    c = 7
    assert taps[c + 1, c] / taps[c, c] == pytest.approx(np.exp(-1.0 / 8.0), rel=1e-13)
    narrow = build_psf(BlurKind.GAUSSIAN, size=5, sigma=1.0)
    assert narrow[3, 2] / narrow[2, 2] == pytest.approx(np.exp(-0.5), rel=1e-13)


def test_all_kinds_normalized():
    for kind in BlurKind:
        taps = build_psf(kind)
        assert abs(taps.sum() - 1.0) <= 1e-12
        assert taps.shape[0] % 2 == 1 and taps.shape[1] % 2 == 1


def test_build_psf_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=8)
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=0)
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=-3)
    # a float would build a kernel of its floor, and True a 1x1 one
    for kind in BlurKind:
        for size in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="kernel size must be an integer"):
                build_psf(kind, size=size)
    assert build_psf(BlurKind.GAUSSIAN, size=np.int64(5)).shape == (5, 5)


def test_build_psf_rejects_misplaced_sigma():
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, sigma=2.0)
    with pytest.raises(ValueError):
        build_psf(BlurKind.GAUSSIAN, sigma=0.0)


def test_build_psf_accepts_string_kind():
    assert build_psf("invquad").shape == (15, 15)
    with pytest.raises(ValueError):
        build_psf("boxcar")


# ---------------------------------------------------------------------------
# psf_to_otf


def test_identity_otf_is_all_ones():
    psf = build_psf(BlurKind.UNIFORM9, size=1)
    otf = psf_to_otf(psf, (8, 8))
    assert otf.shape == (8, 5)
    assert np.allclose(otf, 1.0 + 0.0j, rtol=0, atol=1e-14)


def test_dc_gain_is_one():
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9), (256, 256))
    assert otf[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_symmetric_psf_gives_real_otf():
    for kind in BlurKind:
        psf = build_psf(kind, size=5)
        otf = psf_to_otf(psf, (16, 16))
        assert np.abs(otf.imag).max() <= 1e-12


def test_otf_matches_dft_sum_oracle():
    # the rfft2 half spectrum: the first w//2 + 1 columns of the full DFT,
    # whose Hermitian completion is that DFT
    for kind in BlurKind:
        psf = build_psf(kind, size=3)
        for h, w in ((8, 8), (8, 7), (6, 9)):
            otf = psf_to_otf(psf, (h, w))
            want = dft_otf(psf, (h, w))
            assert otf.shape == (h, w // 2 + 1)
            assert np.abs(otf - want[:, : w // 2 + 1]).max() <= 1e-12
            assert np.abs(full_spectrum(otf, (h, w)) - want).max() <= 1e-12


def test_psf_larger_than_image_rejected():
    psf = build_psf(BlurKind.GAUSSIAN)  # 15x15
    with pytest.raises(ValueError, match="support 15x15 exceeds image shape 8x8"):
        psf_to_otf(psf, (8, 8))


@pytest.mark.parametrize("shape", [(9,), (3, 3, 3), (4, 5), (5, 4), (1, 2)],
                         ids=["1-D", "3-D", "even-rows", "even-columns", "1x2"])
def test_psf_to_otf_rejects_taps_without_a_centre_tap(shape):
    # the origin is the centre tap, which only a 2-D array with odd sides has
    taps = np.full(shape, 1.0 / np.prod(shape))
    with pytest.raises(ValueError, match=re.escape(f"odd sides, got shape {shape}")):
        psf_to_otf(taps, (16, 16))


# ---------------------------------------------------------------------------
# apply_filter and its transpose


def adjoint(filt, image):
    """The transpose of the blur as the solvers apply it: the conjugate half spectrum."""
    return apply_filter(np.conj(filt), image)


def test_all_ones_filter_is_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 16))
    ones = np.ones((12, 9), dtype=complex)
    assert np.abs(apply_filter(ones, x) - x).max() <= 1e-10
    assert np.abs(adjoint(ones, x) - x).max() <= 1e-10


def test_identity_otf_filtering_is_identity():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((16, 16))
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9, size=1), (16, 16))
    assert np.abs(apply_filter(otf, x) - x).max() <= 1e-10


def test_uniform9_matches_direct_convolution():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((16, 16))
    psf = build_psf(BlurKind.UNIFORM9)
    got = apply_filter(psf_to_otf(psf, x.shape), x)
    assert np.abs(got - direct_convolve(x, psf)).max() <= 1e-9


def test_direct_convolution_oracle_self_consistent():
    # the vectorized tap-sum oracle agrees with fully scalar indexing
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 8))
    psf = build_psf(BlurKind.GAUSSIAN, size=3, sigma=1.0)
    assert np.abs(direct_convolve(x, psf) - direct_convolve_scalar(x, psf)).max() <= 1e-12


def test_fft_convolution_equivalence_property():
    # every kernel family, odd sizes up to 9, images up to 32x32, square
    # and with an odd width, where irfft2 needs the width it is given
    rng = np.random.default_rng(15)
    cases = [
        (BlurKind.UNIFORM9, dict(size=9)),
        (BlurKind.UNIFORM9, dict(size=3)),
        (BlurKind.GAUSSIAN, dict(size=7, sigma=1.5)),
        (BlurKind.GAUSSIAN, dict(size=9)),
        (BlurKind.INVERSE_QUADRATIC, dict(size=5)),
        (BlurKind.INVERSE_QUADRATIC, dict(size=9)),
    ]
    for kind, params in cases:
        psf = build_psf(kind, **params)
        for shape in ((8, 8), (16, 16), (32, 32), (16, 9), (10, 15), (32, 31)):
            if psf.shape[0] > min(shape):
                continue
            x = rng.standard_normal(shape) * 100.0
            got = apply_filter(psf_to_otf(psf, x.shape), x)
            assert np.abs(got - direct_convolve(x, psf)).max() <= 1e-9


def test_apply_filter_linearity():
    rng = np.random.default_rng(16)
    otf = psf_to_otf(build_psf(BlurKind.GAUSSIAN, size=7), (16, 16))
    for _ in range(20):
        x, z = rng.standard_normal((2, 16, 16))
        a, b = rng.standard_normal(2)
        lhs = apply_filter(otf, a * x + b * z)
        rhs = a * apply_filter(otf, x) + b * apply_filter(otf, z)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_adjoint_equals_forward_for_real_symmetric_otf():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((16, 16))
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9), (16, 16))
    assert np.abs(adjoint(otf, x) - apply_filter(otf, x)).max() <= 1e-10


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(18)
    for _ in range(100):
        a, b = rng.standard_normal((2, 16, 16))
        # the OTF of a real, non-symmetric kernel: Hermitian, with any phase
        filt = np.fft.rfft2(rng.standard_normal((16, 16)))
        lhs = float((apply_filter(filt, a) * b).sum())
        rhs = float((a * adjoint(filt, b)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_filter_shape_mismatch_rejected():
    # (8, 8) is the full spectrum a filter used to be given as
    x = np.zeros((8, 8))
    for shape in ((4, 4), (8, 8), (8, 4), (16, 5)):
        want = re.escape(f"expected a filter of shape (8, 5), the half spectrum of a 8x8 "
                         f"image, got shape {shape}")
        with pytest.raises(ValueError, match=want):
            apply_filter(np.ones(shape, dtype=complex), x)


# ---------------------------------------------------------------------------
# build_inversion_filter


def test_inversion_filter_flat_otf():
    otf = np.ones((8, 8), dtype=complex)
    filt = build_inversion_filter(otf, 1.0)
    assert np.allclose(filt, 0.5, rtol=0, atol=1e-15)


def test_inversion_filter_huge_mu_vanishes():
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9), (16, 16))
    filt = build_inversion_filter(otf, 1e12)
    assert np.abs(filt).max() <= 1e-11


def test_inversion_filter_rejects_bad_mu():
    otf = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        build_inversion_filter(otf, 0.0)
    with pytest.raises(ValueError):
        build_inversion_filter(otf, -1.0)


def test_inversion_filter_gains_real_in_unit_interval():
    otf = psf_to_otf(build_psf(BlurKind.GAUSSIAN, size=7), (16, 16))
    filt = build_inversion_filter(otf, 0.03)
    assert np.abs(filt.imag).max() <= 1e-12
    assert filt.real.min() >= 0.0
    assert filt.real.max() < 1.0


def test_inversion_filter_matches_dense_eigen_gains():
    side, mu = 8, 0.1
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    otf = psf_to_otf(psf, (side, side))
    hd = dense_blur_matrix(psf, side)
    hth = hd.T @ hd
    dense = hth @ np.linalg.inv(hth + mu * np.eye(side * side))
    got = np.sort(np.linalg.eigvalsh(0.5 * (dense + dense.T)))
    full = dft_otf(psf, (side, side))  # one gain per eigenvalue
    want = np.sort((np.abs(full) ** 2 / (np.abs(full) ** 2 + mu)).ravel())
    assert np.abs(got - want).max() <= 1e-10

    # and as an operator, filtering equals the dense matrix action
    rng = np.random.default_rng(19)
    x = rng.standard_normal((side, side))
    filt = build_inversion_filter(otf, mu)
    assert np.abs(apply_filter(filt, x).ravel() - dense @ x.ravel()).max() <= 1e-10


def test_inversion_filter_phase_invariant():
    rng = np.random.default_rng(20)
    otf = psf_to_otf(build_psf(BlurKind.INVERSE_QUADRATIC, size=5), (16, 16))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, otf.shape))
    a = build_inversion_filter(otf, 0.2)
    b = build_inversion_filter(otf * phase, 0.2)
    assert np.abs(a - b).max() <= 1e-12

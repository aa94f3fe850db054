import numpy as np
import pytest

from salsa_deconv.convolution import (
    BlurKind,
    _half_spectrum,
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
    filter_real,
)


# ---------------------------------------------------------------------------
# build_psf


def test_uniform9_taps():
    psf = build_psf(BlurKind.UNIFORM9)
    assert psf.support == (9, 9)
    assert psf.center == (4, 4)
    assert np.allclose(psf.taps, 1.0 / 81.0, rtol=0, atol=1e-15)


def test_inverse_quadratic_tap_ratios():
    psf = build_psf(BlurKind.INVERSE_QUADRATIC, size=15)
    c = 7
    # unnormalized taps are 1 at the center and 1/3 at (1, 1)
    assert psf.taps[c + 1, c + 1] / psf.taps[c, c] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert psf.taps[c + 2, c] / psf.taps[c, c] == pytest.approx(1.0 / 5.0, rel=1e-14)
    assert psf.taps.sum() == pytest.approx(1.0, abs=1e-12)


def test_identity_psf_is_single_unit_tap():
    psf = build_psf(BlurKind.UNIFORM9, size=1)
    assert psf.support == (1, 1)
    assert psf.taps[0, 0] == 1.0


def test_gaussian_tap_ratio_matches_width():
    psf = build_psf(BlurKind.GAUSSIAN)
    assert psf.support == (15, 15)
    c = 7
    assert psf.taps[c + 1, c] / psf.taps[c, c] == pytest.approx(np.exp(-1.0 / 8.0), rel=1e-13)
    narrow = build_psf(BlurKind.GAUSSIAN, size=5, sigma=1.0)
    assert narrow.taps[3, 2] / narrow.taps[2, 2] == pytest.approx(np.exp(-0.5), rel=1e-13)


def test_all_kinds_normalized():
    for kind in BlurKind:
        psf = build_psf(kind)
        assert abs(psf.taps.sum() - 1.0) <= 1e-12
        assert psf.support[0] % 2 == 1 and psf.support[1] % 2 == 1


def test_build_psf_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=8)
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=0)
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, size=-3)


def test_build_psf_rejects_misplaced_sigma():
    with pytest.raises(ValueError):
        build_psf(BlurKind.UNIFORM9, sigma=2.0)
    with pytest.raises(ValueError):
        build_psf(BlurKind.GAUSSIAN, sigma=0.0)


def test_build_psf_accepts_string_kind():
    assert build_psf("invquad").support == (15, 15)
    with pytest.raises(ValueError):
        build_psf("boxcar")


# ---------------------------------------------------------------------------
# psf_to_otf


def test_identity_otf_is_all_ones():
    psf = build_psf(BlurKind.UNIFORM9, size=1)
    otf = psf_to_otf(psf, (8, 8))
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
    for kind in BlurKind:
        psf = build_psf(kind, size=3)
        otf = psf_to_otf(psf, (8, 8))
        assert np.abs(otf - dft_otf(psf, (8, 8))).max() <= 1e-12


def test_psf_larger_than_image_rejected():
    psf = build_psf(BlurKind.GAUSSIAN)  # 15x15
    with pytest.raises(ValueError):
        psf_to_otf(psf, (8, 8))


# ---------------------------------------------------------------------------
# apply_filter, and the solvers' real-FFT filtering with its transpose


def adjoint(filt, image):
    """The transpose of the blur as the solvers apply it: the conjugate half spectrum."""
    return filter_real(np.conj(_half_spectrum(filt)), image)


def test_all_ones_filter_is_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 16))
    ones = np.ones((12, 16), dtype=complex)
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
    # every kernel family, odd sizes up to 9, images up to 32x32
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
        for side in (8, 16, 32):
            if psf.support[0] > side:
                continue
            x = rng.standard_normal((side, side)) * 100.0
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
        filt = np.fft.fft2(rng.standard_normal((16, 16)))
        lhs = float((filter_real(_half_spectrum(filt), a) * b).sum())
        rhs = float((a * adjoint(filt, b)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_filter_shape_mismatch_rejected():
    x = np.zeros((8, 8))
    f = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        apply_filter(f, x)


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
    want = np.sort((np.abs(otf) ** 2 / (np.abs(otf) ** 2 + mu)).ravel())
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

import numpy as np
import pytest

from salsa_deconv.frame import FrameSpec, _analysis_steps, analysis_bands, synthesis_bands

from oracles import (
    dense_analysis_matrix,
    dense_synthesis_matrix,
    reference_analysis,
    roll_analysis_bands,
    roll_synthesis_bands,
)


def random_coeffs(rng, levels, side):
    return rng.standard_normal((3 * levels + 1, side, side))


# ---------------------------------------------------------------------------
# analysis


def test_constant_image_kills_detail_bands():
    c = analysis_bands(np.full((16, 16), 7.25), 1)
    assert np.abs(c[:3]).max() == 0.0
    assert np.allclose(c[3], 7.25, rtol=0, atol=1e-12)


def test_zero_image_gives_zero_coeffs():
    c = analysis_bands(np.zeros((16, 16)), 2)
    assert not c.any()
    assert c.shape == (7, 16, 16)


def test_round_trip_random_image():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((16, 16))
    assert np.abs(synthesis_bands(analysis_bands(x, 2), 2) - x).max() <= 1e-12


def test_analysis_matches_scalar_reference():
    rng = np.random.default_rng(22)
    for levels in (1, 2):
        x = rng.standard_normal((16, 16))
        got = analysis_bands(x, levels)
        want = reference_analysis(x, levels)
        assert np.abs(got - want).max() <= 1e-12


def test_band_order_pins_orientation_names():
    # an image varying only along columns has row-highpass zero, so only
    # the first (horizontal) detail band of the level may be nonzero
    x = np.tile(np.arange(16.0) ** 2, (16, 1))
    bands = analysis_bands(x, 1)
    assert np.abs(bands[0]).max() > 0.0      # row-lo / col-hi
    assert np.abs(bands[1]).max() == 0.0     # row-hi / col-lo
    assert np.abs(bands[2]).max() == 0.0     # row-hi / col-hi
    # transpose swaps the roles
    bands_t = analysis_bands(x.T, 1)
    assert np.abs(bands_t[0]).max() == 0.0
    assert np.abs(bands_t[1]).max() > 0.0


def test_indivisible_dimensions_rejected():
    with pytest.raises(ValueError):
        analysis_bands(np.zeros((18, 16)), 3)
    with pytest.raises(ValueError):
        analysis_bands(np.zeros((16, 20)), 3)
    with pytest.raises(ValueError):
        analysis_bands(np.zeros(16), 1)


def test_analysis_rejects_bad_out():
    x = np.zeros((16, 16))
    with pytest.raises(ValueError, match="out"):
        analysis_bands(x, 2, out=np.empty((6, 16, 16)))
    with pytest.raises(ValueError, match="out"):
        analysis_bands(x, 2, out=np.empty((7, 16, 8)))
    with pytest.raises(ValueError, match="out"):
        analysis_bands(x, 2, out=np.empty((7, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="out"):
        analysis_bands(x, 2, out=np.empty((7, 16, 32))[:, :, ::2])
    stack = np.zeros((7, 16, 16))
    with pytest.raises(ValueError, match="out"):
        analysis_bands(stack[0], 2, out=stack)


def test_transforms_equal_roll_reference_property():
    # the slice-and-buffer transforms must reproduce the np.roll form
    # bitwise: same roundings, with the 1/2 factors moved exactly
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(levels=st.integers(1, 4), rows=st.integers(1, 5),
                      cols=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def check(levels, rows, cols, seed):
        rng = np.random.default_rng(seed)
        shape = (rows << levels, cols << levels)
        size = (3 * levels + 1,) + shape

        def values(shape):
            # magnitudes log-uniform over 1e-5..1e5, random signs
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)

        x = values(shape)
        out = np.full(size, np.nan)
        want = roll_analysis_bands(x, levels)
        assert np.array_equal(analysis_bands(x, levels), want)
        assert analysis_bands(x, levels, out=out) is out
        assert np.array_equal(out, want)
        bands = values(size)
        assert np.array_equal(synthesis_bands(bands, levels),
                              roll_synthesis_bands(bands, levels))
        assert np.array_equal(synthesis_bands(want, levels),
                              roll_synthesis_bands(want, levels))

    check()


def test_analysis_steps_yield_the_bands_of_analysis_bands():
    # the band-by-band analysis the solvers shrink as it goes: bands in
    # stack order, bitwise those of analysis_bands, into the given stack
    # or into reused image buffers; band sizes below, at and above the
    # 2**15-element block of the sweep
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(levels=st.integers(1, 4),
                      shape=st.tuples(st.integers(1, 5), st.integers(1, 5))
                      | st.sampled_from([(8, 16), (12, 12)]),
                      seed=st.integers(0, 2**32 - 1))
    def check(levels, shape, seed):
        rng = np.random.default_rng(seed)
        # scaled by 16, (8, 16) and (12, 12) give bands of 2**15 and 36864 elements
        scale = 1 << levels if max(shape) <= 5 else 16
        x = rng.standard_normal((shape[0] * scale, shape[1] * scale))
        want = analysis_bands(x, levels)
        seen = [(i, band.copy()) for i, band in _analysis_steps(x, levels)]
        assert [i for i, _ in seen] == list(range(3 * levels + 1))
        assert all(np.array_equal(band, want[i]) for i, band in seen)
        out = np.full(want.shape, np.nan)
        for i, band in _analysis_steps(x, levels, out):
            assert np.shares_memory(band, out[i]) and band.shape == want.shape[1:]
        assert np.array_equal(out, want)

    check()


def test_frame_spec_validation():
    with pytest.raises(ValueError):
        FrameSpec(0)
    assert FrameSpec().levels == 4
    # a float or bool levels would fail only in the transforms' shifts
    for levels in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="levels must be an integer"):
            FrameSpec(levels)
    assert FrameSpec(np.int64(3)).levels == 3


# ---------------------------------------------------------------------------
# synthesis


def test_zero_coeffs_give_zero_image():
    assert not synthesis_bands(np.zeros((7, 16, 16)), 2).any()


def test_synthesis_linearity():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((16, 16))
    doubled = synthesis_bands(2.0 * analysis_bands(x, 2), 2)
    assert np.abs(doubled - 2.0 * x).max() <= 1e-12


def test_synthesis_layout_mismatch_rejected():
    with pytest.raises(ValueError, match="7 stacked subbands"):
        synthesis_bands(np.zeros((4, 16, 16)), 2)
    with pytest.raises(ValueError, match="7 stacked subbands"):
        synthesis_bands(np.zeros((6, 16, 16)), 2)
    with pytest.raises(ValueError, match="4 stacked subbands"):
        synthesis_bands(np.zeros((16, 16)), 1)


def test_transforms_match_dense_matrices():
    side, levels = 8, 1
    a_mat = dense_analysis_matrix(side, levels)
    s_mat = dense_synthesis_matrix(side, levels)
    # synthesis is exactly the transpose of analysis
    assert np.abs(s_mat - a_mat.T).max() <= 1e-12
    # Parseval: W Wt = I on images
    gram = s_mat @ a_mat
    assert np.abs(gram - np.eye(side * side)).max() <= 1e-10


# ---------------------------------------------------------------------------
# frame invariants


def test_analysis_is_isometry():
    rng = np.random.default_rng(25)
    for _ in range(100):
        x = rng.standard_normal((16, 16))
        nx = float(np.sqrt((x**2).sum()))
        nc = float(np.sqrt((analysis_bands(x, 3) ** 2).sum()))
        assert nc >= nx - 1e-10
        assert abs(nc - nx) <= 1e-10 * max(1.0, nx)


def test_parseval_round_trip_sweep():
    rng = np.random.default_rng(26)
    for side in (16, 32, 64):
        for levels in (1, 2, 3, 4):
            x = rng.standard_normal((side, side)) * 255.0
            err = np.abs(synthesis_bands(analysis_bands(x, levels), levels) - x).max()
            assert err <= 1e-10


def test_adjointness_identity():
    rng = np.random.default_rng(27)
    for _ in range(50):
        x = rng.standard_normal((16, 16))
        c = random_coeffs(rng, 3, 16)
        lhs = float((analysis_bands(x, 3) * c).sum())
        rhs = float((x * synthesis_bands(c, 3)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_transform_linearity():
    rng = np.random.default_rng(28)
    x, z = rng.standard_normal((2, 16, 16))
    a, b = 1.7, -0.3
    lhs = analysis_bands(a * x + b * z, 2)
    rhs = a * analysis_bands(x, 2) + b * analysis_bands(z, 2)
    assert np.abs(lhs - rhs).max() <= 1e-10
    c1 = random_coeffs(rng, 2, 16)
    c2 = random_coeffs(rng, 2, 16)
    lhs_img = synthesis_bands(a * c1 + b * c2, 2)
    rhs_img = a * synthesis_bands(c1, 2) + b * synthesis_bands(c2, 2)
    assert np.abs(lhs_img - rhs_img).max() <= 1e-10


def test_redundancy_accounting():
    for levels in (1, 2, 3, 4):
        c = analysis_bands(np.zeros((32, 32)), levels)
        assert c.size == (3 * levels + 1) * 32 * 32
        assert c.shape[0] == 3 * levels + 1

import importlib

import numpy as np
import pytest

from salsa_deconv.convolution import (
    BlurKind,
    build_psf,
    psf_to_otf,
)
from salsa_deconv.frame import _analysis_steps, analysis_bands, synthesis_bands
from salsa_deconv.prox import (_l1, _objective, _sum_of_squares, _sweep, _zero_bands,
                                _zero_blocks, prox)

from oracles import (
    dense_blur_matrix,
    dense_synthesis_matrix,
    grid_prox_objective,
)


def coeffs_from(rng, levels, side):
    return rng.standard_normal((3 * levels + 1, side, side))


def objective(y, otf, levels, bands, tau):
    """The solvers' objective of ``bands``: the residual's half spectrum, then the reductions."""
    residual_half = otf * np.fft.rfft2(synthesis_bands(bands, levels)) - np.fft.rfft2(y)
    return _objective(residual_half, _l1(bands), tau, y.shape)


# ---------------------------------------------------------------------------
# soft threshold / prox


def test_zero_threshold_is_identity():
    rng = np.random.default_rng(31)
    c = coeffs_from(rng, 1, 8)
    assert np.array_equal(prox(c, 0.0), c)


def test_known_scalar_values():
    vals = np.array([1.5, -0.3, 0.0, -2.0])
    out = prox(vals, 1.0)
    assert np.allclose(out, [0.5, 0.0, 0.0, -1.0], rtol=0, atol=1e-15)


def test_soft_threshold_matches_formula_and_keeps_input():
    t = 0.75
    rng = np.random.default_rng(41)
    stack = rng.uniform(-3.0, 3.0, (4, 6, 6))
    stack[0, 0, :6] = [0.0, t, -t, t - 1e-9, -t + 1e-9, t + 1e-9]
    stack[1, 1, :3] = [-t - 1e-9, 2.0 * t, -2.0 * t]
    before = stack.copy()
    out = prox(stack, t)
    assert np.array_equal(stack, before)
    assert np.array_equal(out, np.sign(stack) * np.maximum(np.abs(stack) - t, 0.0))


def test_soft_threshold_zero_threshold_is_bitwise_identity():
    rng = np.random.default_rng(42)
    v = rng.standard_normal((4, 8, 8)) * 10.0 ** rng.uniform(-300, 300, (4, 8, 8))
    out = prox(v, 0.0)
    assert np.array_equal(out.view(np.uint64), v.view(np.uint64))


def test_soft_threshold_into_out():
    rng = np.random.default_rng(43)
    v = rng.standard_normal((4, 8, 8))
    out = np.full_like(v, np.nan)
    assert prox(v, 0.5, out=out) is out
    assert np.array_equal(out, prox(v, 0.5))


def test_soft_threshold_rejects_out_sharing_values():
    v = np.linspace(-2.0, 2.0, 32).reshape(2, 4, 4)
    before = v.copy()
    with pytest.raises(ValueError, match="share memory"):
        prox(v, 0.5, out=v)
    with pytest.raises(ValueError, match="share memory"):
        prox(v[0], 0.5, out=v[:1].reshape(4, 4))
    with pytest.raises(ValueError, match="share memory"):
        prox(v, 0.5, out=v[::-1])
    assert np.array_equal(v, before)


# the shrinkage sweep and the l1 sum work in blocks of this many elements
BLOCK = 1 << 15


def block_case(n):
    """``n`` values with exact thresholds at the first block boundary; ``None`` is a strided view."""
    rng = np.random.default_rng(45)
    if n is None:
        return rng.standard_normal((3, 2 * BLOCK + 6))[:, ::2]
    v = rng.standard_normal(n)
    v[BLOCK - 2:BLOCK + 2] = [0.8, -0.8, 0.8, -0.8][:max(0, n - BLOCK + 2)]
    return v


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17, None],
                         ids=["1", "block-1", "block", "block+1", "3block+17", "strided"])
def test_blocked_prox_and_l1_at_block_boundaries(n):
    t = 0.8
    v = block_case(n)
    before = v.copy()
    # the formula's negative zeros are +0.0 in prox's result
    want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0) + 0.0
    for out in (None, np.full(v.shape, np.nan), np.full(v.shape + (2,), np.nan)[..., 0]):
        got = prox(v, t, out=out)
        assert out is None or got is out
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(v, before)
    with pytest.raises(ValueError, match="share memory"):
        prox(v, t, out=v)
    want_l1 = float(np.abs(v).sum())
    got_l1 = _l1(v)
    assert abs(got_l1 - want_l1) <= v.size * np.finfo(float).eps * want_l1
    # a float64 sum of squares is bitwise einsum's own float64 reduction
    f = v.ravel()
    assert _sum_of_squares(v) == float(np.einsum("i,i->", f, f))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sweep_equals_unfused_passes():
    # the solvers' one blocked sweep against the whole-stack passes it
    # replaces: values + addend, prox into addend, _l1 and the extrapolation
    # addend + w (addend - prev)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]),
                      seed=st.integers(0, 2**32 - 1),
                      t=st.sampled_from([0.0, 0.8]) | st.floats(0.0, 4.0),
                      weight=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
                      extrapolate=st.booleans())
    def check(n, seed, t, weight, extrapolate):
        rng = np.random.default_rng(seed)
        values, addend, prev = rng.standard_normal((3, n))
        # sums that land exactly on +-t and on zero
        addend[::7] = 0.0
        values[::7] = t
        values[3::14] = -t
        values[5::13] = -addend[5::13]
        v = values + addend
        want_out = prox(v, t)
        want_prev = want_out + weight * (want_out - prev)
        got_prev = prev.copy() if extrapolate else None
        l1 = _sweep(values, addend, t, _zero_blocks(addend), prev=got_prev, weight=weight)
        assert same_bits(addend, want_out)
        assert same_bits(values, v)
        assert l1 == _l1(want_out)
        assert got_prev is None or same_bits(got_prev, want_prev)

    check()


def test_band_by_band_shrink_equals_whole_stack_sweep():
    # the sweep fed band by band as the analysis writes each band, against
    # analysis_bands followed by one whole-stack sweep: IST's form (in
    # place), FISTA's (with the extrapolation) and one that keeps the
    # analysis in a stack, as SALSA keeps its prox input; bands below, at
    # and above one block
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(shape=st.sampled_from([(16, 16), (16, 48), (128, 256), (192, 192)]),
                      levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
                      t=st.sampled_from([0.0]) | st.floats(0.0, 2.0),
                      weight=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
                      form=st.sampled_from(["ist", "fista", "salsa"]))
    def check(shape, levels, seed, t, weight, form):
        rng = np.random.default_rng(seed)
        image = rng.standard_normal(shape)
        size = (3 * levels + 1,) + shape
        addend, prev = rng.standard_normal((2,) + size)
        want_addend, want_prev = addend.copy(), prev.copy()
        want_stack = analysis_bands(image, levels)
        if form == "fista":
            want = _sweep(want_stack, want_addend, t, _zero_blocks(want_addend),
                          prev=want_prev, weight=weight)
            got = _sweep(_analysis_steps(image, levels), addend, t, _zero_blocks(addend),
                         prev=prev, weight=weight)
        else:
            want = _sweep(want_stack, want_addend, t, _zero_blocks(want_addend))
            stack = np.full(size, np.nan) if form == "salsa" else None
            got = _sweep(_analysis_steps(image, levels, stack), addend, t, _zero_blocks(addend))
            assert stack is None or same_bits(stack, want_stack)
        assert same_bits(addend, want_addend)
        assert same_bits(prev, want_prev)
        assert got == want == _l1(want_addend)

    check()


@pytest.mark.parametrize("form", ["stack", "bands"])
@pytest.mark.parametrize("band_rows", [128, 64], ids=["band=block", "band=half-block"])
def test_sweep_skips_flagged_blocks_within_the_threshold(form, band_rows, monkeypatch):
    # SALSA's whole-stack sweep and IST's band-fed one over four blocks:
    # block 0 flagged all zero with values within +-t (skipped), block 1
    # not flagged with a sum that thresholds to zero (processed, then
    # flagged), block 2 flagged with one value past t (processed, then not
    # flagged) and block 3 not flagged (processed); a band-fed block is
    # skipped only when it lies within one band
    t = 0.5
    rng = np.random.default_rng(48)
    shape = (4 * 128 // band_rows, band_rows, 256)
    addend = rng.standard_normal(shape)
    values = rng.uniform(-t, t, shape)
    a, v = addend.reshape(4, BLOCK), values.reshape(4, BLOCK)
    a[[0, 2]] = 0.0
    a[1] *= t / 8.0
    v[0, :2] = t, -t
    v[1] *= 0.25
    v[2, 100] = np.nextafter(t, np.inf)
    v[3] = rng.standard_normal(BLOCK)
    want_values, want_out = values.copy(), addend.copy()
    want_l1 = _sweep(want_values, want_out, t, _zero_blocks(want_out))

    zero = _zero_blocks(addend)
    zero[0] = zero[2] = True
    module = importlib.import_module("salsa_deconv.prox")
    calls, prox_fn = [], module.prox
    monkeypatch.setattr(module, "prox", lambda *a, **k: calls.append(None) or prox_fn(*a, **k))
    pieces = values if form == "stack" else ((i, values[i]) for i in range(shape[0]))
    l1 = _sweep(pieces, addend, t, zero)
    assert same_bits(addend, want_out)
    assert np.array_equal(values, want_values)
    assert l1 == want_l1
    assert zero == [True, True, False, False]
    if form == "bands" and band_rows == 64:
        assert len(calls) == shape[0]  # no block lies within one band
    else:
        assert len(calls) == 3


def test_sweep_with_prev_records_flags_and_skips_nothing(monkeypatch):
    # FISTA's form: prev is written on every block, so a flagged block within
    # the threshold is still swept; the flags come from |out| as without prev
    t, weight = 0.5, 0.3
    rng = np.random.default_rng(49)
    values = rng.uniform(-t, t, 2 * BLOCK)
    values[BLOCK:] *= 8.0
    addend, prev = np.zeros(2 * BLOCK), rng.standard_normal(2 * BLOCK)
    want_values, want_out, want_prev = values.copy(), addend.copy(), prev.copy()
    want_l1 = _sweep(want_values, want_out, t, _zero_blocks(want_out), prev=want_prev,
                     weight=weight)

    zero = [True, True]
    module = importlib.import_module("salsa_deconv.prox")
    calls, prox_fn = [], module.prox
    monkeypatch.setattr(module, "prox", lambda *a, **k: calls.append(None) or prox_fn(*a, **k))
    l1 = _sweep(values, addend, t, zero, prev=prev, weight=weight)
    assert len(calls) == 2
    assert same_bits(addend, want_out) and same_bits(prev, want_prev)
    assert same_bits(values, want_values)
    assert l1 == want_l1
    assert zero == [True, False]


def test_float32_sums_accumulate_in_float64():
    # 2**24 + 32767 is odd and above 2**24, so no float32 holds it: a sum
    # accumulated in float32 cannot return it, one accumulated in float64 does
    ones = np.ones(BLOCK - 1, np.float32)
    values = np.concatenate([np.float32([2.0**24]), ones])
    want = 2.0**24 + (BLOCK - 1)
    assert _l1(values) == want
    assert _l1(-values.reshape(2, -1)) == want
    out = np.zeros_like(values)
    assert _sweep(values.copy(), out, 0.0, _zero_blocks(out)) == want
    roots = np.concatenate([np.float32([2.0**12]), ones])
    assert _sum_of_squares(roots) == want
    assert _sum_of_squares(roots.reshape(2, -1)) == want


def test_flagged_block_with_nan_or_inf_is_processed():
    # a NaN has no max within +-t, so the block runs and its flag clears;
    # at an infinite threshold nothing is skipped, as prox maps inf to NaN there
    for t, bad in ((0.5, np.nan), (np.inf, np.inf)):
        values, addend = np.zeros(BLOCK), np.zeros(BLOCK)
        values[7] = bad
        zero = [True]
        with np.errstate(invalid="ignore"):
            l1 = _sweep(values, addend, t, zero)
        assert np.isnan(addend[7]) and np.isnan(l1)
        assert zero == [False]


def test_zero_bands_need_every_block_a_band_touches():
    # five bands of 20000 elements over four blocks, bands and blocks not aligned
    zero = [True, False, True, True]
    assert _zero_bands(zero, (5, 1, 20000)) == [True, False, False, False, True]
    # two bands per block
    assert _zero_bands(zero[:3], (6, 128, 128)) == [True, True, False, False, True, True]
    # one block under every band
    assert _zero_bands(zero[:1], (13, 32, 32)) == [True] * 13


def test_full_shrinkage_to_zero():
    rng = np.random.default_rng(32)
    c = coeffs_from(rng, 2, 8)
    assert not prox(c, float(np.abs(c).max()) + 0.1).any()
    assert not prox(c, np.inf).any()


def test_negative_threshold_rejected():
    # and NaN, which would turn every output into NaN
    for threshold in (-0.5, np.nan):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            prox(np.zeros((4, 8, 8)), threshold)


def test_prox_matches_grid_argmin():
    # scalar instances against a brute-force grid search of the prox
    # objective 0.5*(a - b)^2 + t*|b|
    rng = np.random.default_rng(33)
    for _ in range(200):
        a = float(rng.uniform(-4.0, 4.0))
        t = float(rng.uniform(0.0, 2.0))
        got = float(prox(np.array([a]), t)[0])
        lo, hi = a - 3.0 * t - 1.0, a + 3.0 * t + 1.0
        grid = np.linspace(lo, hi, 2001)
        best = grid[np.argmin(grid_prox_objective(a, t, grid))]
        # compare in objective value (the argmin is grid-quantized)
        f_got = 0.5 * (got - a) ** 2 + t * abs(got)
        f_best = 0.5 * (best - a) ** 2 + t * abs(best)
        assert f_got <= f_best + 1e-8


def test_prox_optimality_conditions():
    # 0 is in the subdifferential of 0.5*(b - a)^2 + t*|b| at b = prox(a, t):
    # a - b = t*sign(b) where b != 0, and |a| <= t where b == 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    magnitudes = st.just(0.0) | st.floats(1e-5, 1e5)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(a=st.lists(st.tuples(magnitudes, st.booleans()), min_size=1, max_size=64),
                      t=st.just(0.0) | st.floats(1e-5, 1e5), t_is_first=st.booleans())
    def check(a, t, t_is_first):
        a = np.array([-m if negative else m for m, negative in a])
        if t_is_first:  # the threshold exactly at an input's magnitude
            t = float(abs(a[0]))
        b = prox(a, t)
        nonzero = b != 0.0
        slack = 4.0 * np.spacing(np.abs(a))
        assert np.all(np.abs(a - b - t * np.sign(b))[nonzero] <= slack[nonzero])
        assert np.all(np.abs(a[~nonzero]) <= t)

    check()


def test_prox_nonexpansive():
    rng = np.random.default_rng(34)
    for _ in range(50):
        a = coeffs_from(rng, 1, 8)
        b = coeffs_from(rng, 1, 8)
        t = float(rng.uniform(0.0, 1.5))
        lhs = np.sqrt(((prox(a, t) - prox(b, t)) ** 2).sum())
        rhs = np.sqrt(((a - b) ** 2).sum())
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_coeffs_is_half_y_norm():
    rng = np.random.default_rng(36)
    y = rng.standard_normal((16, 16))
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9), (16, 16))
    f = objective(y, otf, 1, np.zeros((4, 16, 16)), 0.5)
    assert f == pytest.approx(0.5 * float((y**2).sum()), rel=1e-12)


def test_objective_exact_fit_is_zero():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((16, 16))
    otf = np.ones((16, 9), dtype=complex)
    f = objective(x, otf, 2, analysis_bands(x, 2), 0.0)
    assert abs(f) <= 1e-18 * max(1.0, float((x**2).sum()))


def test_objective_matches_dense_evaluation():
    rng = np.random.default_rng(38)
    side, levels = 8, 1
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    otf = psf_to_otf(psf, (side, side))
    hd = dense_blur_matrix(psf, side)
    sd = dense_synthesis_matrix(side, levels)
    hw = hd @ sd
    for _ in range(10):
        y = rng.standard_normal((side, side))
        c = coeffs_from(rng, levels, side)
        tau = float(rng.uniform(0.0, 1.0))
        want = 0.5 * float(((hw @ c.ravel() - y.ravel()) ** 2).sum())
        want += tau * float(np.abs(c).sum())
        got = objective(y, otf, levels, c, tau)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_objective_is_parseval_sum_of_residual():
    # the spectral data term against the residual image it stands for,
    # for even and odd widths (an even width has a self-mirrored column w/2)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(h=st.integers(1, 12), w=st.integers(1, 12),
                      seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
                      tau=st.sampled_from([0.0]) | st.floats(0.0, 2.0))
    def check(h, w, seed, log_scale, tau):
        rng = np.random.default_rng(seed)
        kernel, x, y = 10.0 ** log_scale * rng.standard_normal((3, h, w))
        # R = H X - Y for a real kernel, as the solvers form it
        residual_half = np.fft.rfft2(kernel) * np.fft.rfft2(x) - np.fft.rfft2(y)
        l1 = float(np.abs(x).sum())
        r = np.fft.irfft2(residual_half, s=(h, w))
        want = 0.5 * float((r**2).sum()) + tau * l1
        got = _objective(residual_half, l1, tau, (h, w))
        assert abs(got - want) <= 1e-12 * want

    check()


def test_objective_convex_on_segments():
    rng = np.random.default_rng(39)
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9, size=3), (8, 8))
    y = rng.standard_normal((8, 8))
    for _ in range(25):
        c1 = coeffs_from(rng, 1, 8)
        c2 = coeffs_from(rng, 1, 8)
        f_mid = objective(y, otf, 1, 0.5 * (c1 + c2), 0.3)
        f_avg = 0.5 * (objective(y, otf, 1, c1, 0.3) + objective(y, otf, 1, c2, 0.3))
        assert f_mid <= f_avg + 1e-9


def test_norm1_consistency_with_objective():
    rng = np.random.default_rng(40)
    c = coeffs_from(rng, 1, 8)
    y = np.zeros((8, 8))
    otf = np.zeros((8, 5), dtype=complex)  # blur annihilates everything
    f = objective(y, otf, 1, c, 2.0)
    assert f == pytest.approx(2.0 * float(np.abs(c).sum()), rel=1e-12)

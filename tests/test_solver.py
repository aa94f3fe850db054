import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from salsa_deconv.bench import DEFAULT_EXPERIMENTS, degrade, isnr, phantom
from salsa_deconv.convolution import (
    BlurKind,
    apply_filter,
    build_inversion_filter,
    build_psf,
    psf_to_otf,
)
from salsa_deconv.frame import FrameSpec, analysis_bands, synthesis_bands
from salsa_deconv.prox import Regularizer, _l1, _objective, _zero_blocks
from salsa_deconv import solver as solver_module
from salsa_deconv.solver import (
    DivergenceError,
    SolverConfig,
    _quadratic_step,
    fista_momentum,
    fista_solve,
    ist_solve,
    salsa_solve,
)

from oracles import (
    adjoint_filter,
    data_gradient,
    dense_analysis_matrix,
    dense_blur_matrix,
    full_spectrum,
    reference_fista,
    reference_salsa,
    subgradient_residual,
)


def small_problem(seed=50, side=16, tau=0.05, kind=BlurKind.UNIFORM9, size=3,
                  sigma=None, variance=0.25, levels=1, scale=255.0, shape=None):
    shape = (side, side) if shape is None else shape
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, scale, shape)
    psf = build_psf(kind, size=size, sigma=sigma)
    y = degrade(x, psf, variance, seed + 1)
    otf = psf_to_otf(psf, shape)
    return y, otf, FrameSpec(levels)


# ---------------------------------------------------------------------------
# SolverConfig


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, rel_tol=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, mu=0.0)


@pytest.mark.parametrize("name, value", [
    ("tau", math.nan), ("tau", math.inf), ("mu", math.nan), ("mu", math.inf),
    ("rel_tol", math.nan), ("rel_tol", math.inf),
    ("target_objective", math.nan), ("target_objective", -math.inf),
])
def test_config_rejects_non_finite(name, value):
    # a NaN rel_tol or target would never stop the run before max_iters
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SolverConfig(**{"tau": 0.1, name: value})


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_config_rejects_non_integral_max_iters(value):
    # 2.5 failed only mid-solve, in the iteration loop's range; True meant 1
    with pytest.raises(ValueError, match=f"^max_iters must be an integer, got {value!r}$"):
        SolverConfig(tau=0.1, max_iters=value)


def test_config_accepts_numpy_integer_max_iters():
    y, otf, spec = small_problem(side=16, levels=1)
    cfg = SolverConfig(tau=0.05, max_iters=np.int64(3), rel_tol=0.0)
    _, _, trace = ist_solve(y, otf, spec, Regularizer(), cfg)
    assert trace.final.iteration == 3


def test_mu_rule_of_thumb():
    assert SolverConfig(tau=0.05).resolved_mu() == pytest.approx(0.005, rel=1e-15)
    assert SolverConfig(tau=0.05, mu=2.0).resolved_mu() == 2.0
    with pytest.raises(ValueError):
        SolverConfig(tau=0.0).resolved_mu()


# ---------------------------------------------------------------------------
# the quadratic step: SALSA's beta update


def beta_update(r, otf, levels, mu):
    """beta solving ``(Wt Ht H W + mu I) beta = r``, by the solver's quadratic step."""
    inv_half = build_inversion_filter(otf, mu)
    # without data (A = 0), and with 2 Theta - V the spectrum of W c for c = r / mu
    c_hat = np.fft.rfft2(synthesis_bands(r, levels)) / mu
    g_hat = _quadratic_step(0.0, c_hat, c_hat, inv_half, np.empty_like(c_hat))
    g = np.fft.irfft2(g_hat, s=r.shape[1:])
    return r / mu + analysis_bands(g, levels)


def test_beta_update_zero_is_zero():
    otf = psf_to_otf(build_psf(BlurKind.UNIFORM9, size=3), (8, 8))
    assert not beta_update(np.zeros((4, 8, 8)), otf, 1, 0.5).any()


def dense_quadratic_matrix(psf, side, levels, mu):
    a_mat = dense_analysis_matrix(side, levels)
    h_mat = dense_blur_matrix(psf, side)
    ha = h_mat @ a_mat.T
    return ha.T @ ha + mu * np.eye(a_mat.shape[0])


def test_beta_update_matches_dense_solve():
    side, levels = 8, 1
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    otf = psf_to_otf(psf, (side, side))
    rng = np.random.default_rng(51)
    for mu in (0.01, 0.1, 1.0, 10.0):
        q = dense_quadratic_matrix(psf, side, levels, mu)
        for _ in range(5):
            r = rng.standard_normal((4, side, side))
            want = np.linalg.solve(q, r.ravel())
            got = beta_update(r, otf, levels, mu).ravel()
            denom = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-8 * denom


def test_beta_update_identity_otf():
    side, levels, mu = 8, 1, 1.0
    otf = np.ones((side, side // 2 + 1), dtype=complex)
    assert np.allclose(build_inversion_filter(otf, mu), 0.5)
    a_mat = dense_analysis_matrix(side, levels)
    q = a_mat @ a_mat.T + mu * np.eye(a_mat.shape[0])
    rng = np.random.default_rng(52)
    r = rng.standard_normal((4, side, side))
    want = np.linalg.solve(q, r.ravel())
    got = beta_update(r, otf, levels, mu).ravel()
    assert np.abs(got - want).max() <= 1e-10


def test_beta_update_large_mu_regime():
    side, levels, mu = 8, 1, 1e8
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    otf = psf_to_otf(psf, (side, side))
    q = dense_quadratic_matrix(psf, side, levels, mu)
    rng = np.random.default_rng(53)
    r = rng.standard_normal((4, side, side))
    want = np.linalg.solve(q, r.ravel())
    got = beta_update(r, otf, levels, mu).ravel()
    assert np.abs(got - want).max() <= 1e-6 * float(np.abs(want).max())


def test_beta_update_satisfies_normal_equations_matrix_free():
    # (Wt Ht H W + mu I) beta == r, applied with operators only, at a size
    # where dense matrices would be infeasible in a quick test
    side, levels = 32, 3
    psf = build_psf(BlurKind.GAUSSIAN, size=7)
    otf = psf_to_otf(psf, (side, side))
    rng = np.random.default_rng(54)
    for mu in (0.1, 1.0):
        r = rng.standard_normal((10, side, side))
        beta = beta_update(r, otf, levels, mu)
        img = apply_filter(otf, synthesis_bands(beta, levels))
        forward = analysis_bands(adjoint_filter(otf, img), levels) + mu * beta
        err = np.abs(forward - r).max()
        assert err <= 1e-8 * max(1.0, float(np.abs(r).max()))


def test_quadratic_step_with_data_matches_dense_solve():
    # as SALSA calls it, with A = (1 - F) Ht Y / mu: for r = Wt Ht y + mu c
    # and Theta, V the spectra of W theta, W v with c = 2 theta - v,
    # beta = c + Wt irfft2(G) solves (Wt Ht H W + mu I) beta = r
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    levels = 1
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    matrices = {}
    for shape in ((8, 8), (8, 16)):
        hw = dense_blur_matrix(psf, shape) @ dense_analysis_matrix(shape, levels).T
        matrices[shape] = hw, hw.T @ hw

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(shape=st.sampled_from(sorted(matrices)), seed=st.integers(0, 2**32 - 1),
                      log_mu=st.floats(-3.0, 3.0))
    def check(shape, seed, log_mu):
        mu = 10.0 ** log_mu
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(shape)
        theta, v = rng.standard_normal((2, 3 * levels + 1) + shape)
        c = 2.0 * theta - v
        hw, normal = matrices[shape]
        r = hw.T @ y.ravel() + mu * c.ravel()
        want = np.linalg.solve(normal + mu * np.eye(r.size), r)
        otf = psf_to_otf(psf, shape)
        inv_filter = build_inversion_filter(otf, mu)
        a = (1.0 - inv_filter) * (np.conj(otf) * np.fft.rfft2(y)) / mu
        theta_hat, v_hat = (np.fft.rfft2(synthesis_bands(b, levels)) for b in (theta, v))
        g_hat = _quadratic_step(a, theta_hat, v_hat, inv_filter, np.empty_like(a))
        got = c + analysis_bands(np.fft.irfft2(g_hat, s=shape), levels)
        assert np.abs(got.ravel() - want).max() <= 1e-9 * max(1.0, float(np.abs(want).max()))

    check()


# ---------------------------------------------------------------------------
# salsa_solve


def test_salsa_unregularized_identity_recovers_observation():
    rng = np.random.default_rng(55)
    y = rng.uniform(0.0, 255.0, (16, 16))
    otf = np.ones((16, 9), dtype=complex)
    cfg = SolverConfig(tau=1e-12, mu=0.1, max_iters=300, rel_tol=1e-14)
    _, image, _ = salsa_solve(y, otf, FrameSpec(2), Regularizer(), cfg)
    assert np.abs(image - y).max() <= 1e-6


def test_salsa_beta_matches_dense_equation_every_iteration():
    # the literal recursion's beta solves the dense normal equations at
    # every iteration; test_salsa_matches_literal_coefficient_recursion
    # ties the solver to that recursion
    side, levels, tau, mu = 8, 1, 0.05, 0.005
    y, otf, _ = small_problem(side=side, levels=levels)

    states = []
    reference_salsa(y, otf, levels, tau, mu, 25, 0.0,
                    on_iteration=lambda *state: states.append(state))
    assert len(states) == 25

    psf = build_psf(BlurKind.UNIFORM9, size=3)
    a_mat = dense_analysis_matrix(side, levels)
    h_mat = dense_blur_matrix(psf, side)
    q = dense_quadratic_matrix(psf, side, levels, mu)
    ybar = a_mat @ (h_mat.T @ y.ravel())

    theta_prev = analysis_bands(y, levels).ravel()  # documented start
    d_prev = np.zeros_like(theta_prev)
    for beta, theta, d in states:
        r = ybar + mu * (theta_prev + d_prev)
        want = np.linalg.solve(q, r)
        assert np.abs(beta.ravel() - want).max() <= 1e-8 * max(1.0, float(np.abs(want).max()))
        theta_prev = theta.ravel()
        d_prev = d.ravel()


def test_salsa_trace_is_deterministic():
    y, otf, spec = small_problem(side=16, levels=2)
    cfg = SolverConfig(tau=0.05, max_iters=30, rel_tol=1e-10)
    isnr_fn = lambda img: float((img**2).sum())
    _, _, t1 = salsa_solve(y, otf, spec, Regularizer(), cfg, isnr_fn=isnr_fn)
    _, _, t2 = salsa_solve(y, otf, spec, Regularizer(), cfg, isnr_fn=isnr_fn)
    assert [r.objective for r in t1.records] == [r.objective for r in t2.records]
    assert [r.isnr_db for r in t1.records] == [r.isnr_db for r in t2.records]
    assert [r.iteration for r in t1.records] == [r.iteration for r in t2.records]


@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_divergence_error_names_iteration(solver, monkeypatch):
    # every solver synthesizes its iterate once in its setup and once per
    # iteration, so the 4th synthesis is iteration 3's; a non-finite image
    # there makes the objective non-finite, and the run stops there
    calls = []

    def synthesis(bands, levels, *, zero=()):
        calls.append(None)
        image = synthesis_bands(bands, levels, zero=zero)
        return np.full_like(image, np.inf) if len(calls) == 4 else image

    monkeypatch.setattr(solver_module, "synthesis_bands", synthesis)
    y, otf, spec = small_problem(side=16, levels=1)
    cfg = SolverConfig(tau=0.01, max_iters=10, rel_tol=0.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"at iteration 3$"):
        solver(y, otf, spec, Regularizer(), cfg)
    assert len(calls) == 4


def test_salsa_splitting_residual_small_at_tight_tolerance():
    x = phantom(64)
    psf = build_psf(BlurKind.UNIFORM9)
    y = degrade(x, psf, 0.3136, 7)
    otf = psf_to_otf(psf, (64, 64))
    cfg = SolverConfig(tau=0.05, max_iters=500, rel_tol=1e-6)
    _, _, trace = salsa_solve(y, otf, FrameSpec(4), Regularizer(), cfg)
    assert trace.splitting_residual <= 1e-2


@pytest.mark.parametrize("iters", [39, 40])
def test_salsa_reports_final_splitting_residual(iters):
    # against the literal recursion's last ||beta - theta|| / ||theta||,
    # which differs by rounding only (by 1.9e-12 and 1.1e-12 relative at 39
    # and 40 iterations on this problem); the two last iterations leave v_K
    # in either of SALSA's two prox-input buffers
    tau, mu, levels = 0.05, 0.005, 2
    y, otf, spec = small_problem(side=32, levels=levels)
    cfg = SolverConfig(tau=tau, mu=mu, max_iters=iters, rel_tol=0.0)
    _, _, trace = salsa_solve(y, otf, spec, Regularizer(), cfg)
    states = []
    reference_salsa(y, otf, levels, tau, mu, iters, 0.0,
                    on_iteration=lambda *state: states.append(state))
    assert len(states) == iters
    beta, theta, _ = states[-1]
    want = float(np.sqrt(((beta - theta) ** 2).sum())) / float(np.sqrt((theta**2).sum()))
    assert trace.splitting_residual == pytest.approx(want, rel=1e-10)


def test_salsa_stopped_at_start_has_zero_splitting_residual():
    # at iteration 0, beta = theta = Wt y
    y, otf, spec = small_problem(side=16, levels=2)
    cfg = SolverConfig(tau=0.05, target_objective=1e300)
    coeffs, _, trace = salsa_solve(y, otf, spec, Regularizer(), cfg)
    assert trace.final.iteration == 0
    assert trace.splitting_residual == 0.0
    assert np.array_equal(coeffs.bands, analysis_bands(y, 2))


@pytest.mark.parametrize(
    "solver, held, dtype",
    [(solver, held, dtype) for dtype in (np.float64, np.float32)
     for solver, held in ((ist_solve, 1), (fista_solve, 2), (salsa_solve, 3))],
    ids=[name + suffix for suffix in ("", "-float32")
         for name in ("ist_solve", "fista_solve", "salsa_solve")])
def test_memory_peak_counts_coefficient_stacks(solver, held, dtype):
    # IST holds beta, FISTA beta and z, SALSA theta, v_k and v_{k-1}: IST
    # and FISTA shrink each band of their gradient step as the analysis
    # writes it, and SALSA's splitting residual needs no stack of its own;
    # the images and half spectra a solve holds add up to less than one
    # more stack of 19 bands.  A float32 observation makes the stacks
    # float32, at 4 bytes per coefficient.
    y, otf, spec = small_problem(side=128, levels=6)
    y = y.astype(dtype)
    cfg = SolverConfig(tau=0.05, max_iters=10, rel_tol=0.0)
    stack_bytes = (3 * spec.levels + 1) * y.nbytes
    tracemalloc.start()
    try:
        coeffs, _, trace = solver(y, otf, spec, Regularizer(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.final.iteration == 10
    assert coeffs.bands.dtype == dtype
    assert held <= peak / stack_bytes < held + 1, peak / stack_bytes


@pytest.mark.parametrize("kind, size, square", [
    (BlurKind.UNIFORM9, 9, True),
    (BlurKind.GAUSSIAN, 7, True),
    (BlurKind.UNIFORM9, 9, False),
])
def test_salsa_matches_literal_coefficient_recursion(kind, size, square):
    # the image-domain iteration is exact by W Wt = I, so it must follow
    # the r/beta/d recursion up to rounding, and stop where it stops; on
    # 32x32 and on 16x32 images
    tau, mu, levels = 0.05, 0.005, 2
    shape = (32, 32) if square else (16, 32)
    y, otf, spec = small_problem(shape=shape, levels=levels, kind=kind, size=size)
    cfg = SolverConfig(tau=tau, mu=mu, max_iters=200, rel_tol=1e-4)
    coeffs, _, trace = salsa_solve(y, otf, spec, Regularizer(), cfg)
    want_theta, want_objectives = reference_salsa(y, otf, levels, tau, mu,
                                                  cfg.max_iters, cfg.rel_tol)
    got = np.array([r.objective for r in trace.records])
    assert len(got) == len(want_objectives) <= cfg.max_iters
    want = np.array(want_objectives)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert np.abs(coeffs.bands - want_theta).max() <= 1e-8 * np.abs(want_theta).max()


def test_salsa_solution_is_theta_and_sparse():
    y, otf, spec = small_problem(side=16, levels=2, tau=0.5)
    cfg = SolverConfig(tau=0.5, max_iters=100, rel_tol=1e-8)
    coeffs, image, trace = salsa_solve(y, otf, spec, Regularizer(), cfg)
    # prox output: some coefficients exactly zero
    assert (coeffs.bands == 0.0).any()
    assert np.array_equal(image, synthesis_bands(coeffs.bands, spec.levels))
    assert trace.records[0].iteration == 0


@pytest.mark.parametrize("solver, slack", [(salsa_solve, 1.001), (ist_solve, 1.2),
                                           (fista_solve, 1.001)],
                         ids=["salsa_solve", "ist_solve", "fista_solve"])
def test_target_objective_mode(solver, slack):
    # the target is set from SALSA's objective floor, looser for IST, which
    # is far slower on this blur; each solver stops at its first record
    # that reaches it
    y, otf, spec = small_problem(side=16, levels=2)
    ref_cfg = SolverConfig(tau=0.05, max_iters=200, rel_tol=1e-8)
    _, _, ref_trace = salsa_solve(y, otf, spec, Regularizer(), ref_cfg)
    target = ref_trace.final.objective * slack
    cfg = SolverConfig(tau=0.05, max_iters=2000, rel_tol=0.0, target_objective=target)
    _, _, trace = solver(y, otf, spec, Regularizer(), cfg)
    assert trace.final.objective <= target
    assert all(r.objective > target for r in trace.records[:-1])
    if solver is salsa_solve:
        assert trace.final.iteration <= ref_trace.final.iteration


PHASES = {"spectral", "irfft2", "analysis+sweep", "synthesis", "rfft2", "bookkeeping"}


@pytest.mark.parametrize(
    "solver, dtype",
    [(solver, dtype) for dtype in (np.float64, np.float32)
     for solver in (salsa_solve, ist_solve, fista_solve)],
    ids=[name + suffix for suffix in ("", "-float32")
         for name in ("salsa_solve", "ist_solve", "fista_solve")])
def test_trace_monotonic_bookkeeping(solver, dtype):
    y, otf, spec = small_problem(side=16, levels=2)
    cfg = SolverConfig(tau=0.05, max_iters=40, rel_tol=0.0)
    _, _, trace = solver(y.astype(dtype), otf, spec, Regularizer(), cfg)
    iters = [r.iteration for r in trace.records]
    times = [r.elapsed_s for r in trace.records]
    assert iters == list(range(cfg.max_iters + 1))
    assert all(b >= a for a, b in zip(times, times[1:]))
    # the phases of iterations 1..K: the stamps nest inside the work clock,
    # so the work phases sum to no more than the work after iteration 0
    assert set(trace.phase_s) == PHASES
    assert all(seconds >= 0.0 for seconds in trace.phase_s.values())
    work = sum(s for phase, s in trace.phase_s.items() if phase != "bookkeeping")
    assert work <= (trace.final.elapsed_s - trace.records[0].elapsed_s) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# ist_solve


def test_ist_unregularized_identity_recovers_observation():
    rng = np.random.default_rng(56)
    y = rng.uniform(0.0, 255.0, (16, 16))
    otf = np.ones((16, 9), dtype=complex)
    cfg = SolverConfig(tau=0.0, max_iters=50, rel_tol=1e-14)
    _, image, trace = ist_solve(y, otf, FrameSpec(2), Regularizer(), cfg)
    assert np.abs(image - y).max() <= 1e-10
    assert trace.final.objective <= 1e-16


def test_ist_objective_monotone_nonincreasing():
    x = phantom(64)
    psf = build_psf(BlurKind.UNIFORM9)
    y = degrade(x, psf, 0.3136, 8)
    otf = psf_to_otf(psf, (64, 64))
    cfg = SolverConfig(tau=0.05, max_iters=200, rel_tol=0.0)
    _, _, trace = ist_solve(y, otf, FrameSpec(4), Regularizer(), cfg)
    objs = [r.objective for r in trace.records]
    assert len(objs) == 201
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# fista_solve


def test_fista_unregularized_identity_recovers_observation():
    rng = np.random.default_rng(57)
    y = rng.uniform(0.0, 255.0, (16, 16))
    otf = np.ones((16, 9), dtype=complex)
    cfg = SolverConfig(tau=0.0, max_iters=50, rel_tol=1e-14)
    _, image, _ = fista_solve(y, otf, FrameSpec(2), Regularizer(), cfg)
    assert np.abs(image - y).max() <= 1e-10


def test_fista_momentum_sequence():
    assert fista_momentum(1.0) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    t = 1.0
    for _ in range(10):
        t_next = fista_momentum(t)
        assert t_next > t
        t = t_next


@pytest.mark.parametrize("solver, momentum, shape", [
    (ist_solve, None, (16, 16)),
    (fista_solve, fista_momentum, (16, 16)),
    (ist_solve, None, (16, 32)),
    (fista_solve, fista_momentum, (16, 32)),
], ids=["ist_solve", "fista_solve", "ist_solve-16x32", "fista_solve-16x32"])
def test_proximal_gradient_matches_literal_recursion(solver, momentum, shape):
    # the residual at the extrapolated point is combined from the last two
    # residuals; by linearity that is the residual of z up to rounding.
    # IST is the same iteration without the extrapolation
    tau, levels, iters = 0.05, 2, 60
    y, otf, spec = small_problem(shape=shape, levels=levels, kind=BlurKind.GAUSSIAN, size=5)
    cfg = SolverConfig(tau=tau, max_iters=iters, rel_tol=0.0)
    coeffs, _, trace = solver(y, otf, spec, Regularizer(), cfg)
    step = 1.0 / float(np.max(np.abs(otf) ** 2))
    want_beta, want_objectives = reference_fista(y, otf, levels, tau, step, iters,
                                                 momentum)
    got = np.array([r.objective for r in trace.records])
    want = np.array(want_objectives)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert np.abs(coeffs.bands - want_beta).max() <= 1e-8 * np.abs(want_beta).max()


def test_fista_beats_ist_iteration_count():
    x = phantom(64)
    psf = build_psf(BlurKind.UNIFORM9)
    y = degrade(x, psf, 0.3136, 9)
    otf = psf_to_otf(psf, (64, 64))
    spec = FrameSpec(4)
    cfg = SolverConfig(tau=0.05, max_iters=200, rel_tol=0.0)
    _, _, ist_trace = ist_solve(y, otf, spec, Regularizer(), cfg)
    _, _, fista_trace = fista_solve(y, otf, spec, Regularizer(), cfg)
    ist_final = ist_trace.final.objective
    crossing = next(r.iteration for r in fista_trace.records
                    if r.objective <= ist_final)
    assert crossing < 200


# ---------------------------------------------------------------------------
# trace bookkeeping


@pytest.mark.parametrize(
    "solver, side",
    [(solver, side) for side in (16, 256) for solver in (salsa_solve, ist_solve, fista_solve)],
    ids=[name + suffix for suffix in ("", "-256")
         for name in ("salsa_solve", "ist_solve", "fista_solve")])
def test_final_record_is_taken_at_the_returned_iterate(solver, side, monkeypatch):
    # the trace objective and the ISNR image come from a residual and a
    # synthesis the solver reuses; both must be those of the returned
    # coefficients (not of FISTA's extrapolated point or SALSA's beta).
    # R is formed filter first, H X, from a named X, bitwise: at 256² an
    # unnamed spectrum is 256 KiB or more, and numpy would form X H in its
    # buffer, which rounds differently in many bins
    tau = 0.05
    y, otf, spec = small_problem(side=side, levels=2, tau=tau)
    cfg = SolverConfig(tau=tau, max_iters=12, rel_tol=0.0)
    seen, residuals = [], []
    objective = solver_module._objective
    monkeypatch.setattr(solver_module, "_objective",
                        lambda r, *args: residuals.append(r.copy()) or objective(r, *args))

    def isnr_fn(img):
        seen.append(img.copy())
        return 0.0

    coeffs, image, trace = solver(y, otf, spec, Regularizer(), cfg, isnr_fn=isnr_fn)
    assert trace.final.iteration == 12
    assert len(seen) == len(residuals) == len(trace.records)
    image_hat = np.fft.rfft2(synthesis_bands(coeffs.bands, spec.levels))
    residual_half = otf * image_hat - np.fft.rfft2(y)
    assert np.array_equal(residuals[-1], residual_half)
    assert trace.final.objective == _objective(residual_half, _l1(coeffs.bands), tau, y.shape)
    assert np.array_equal(seen[-1], image)
    assert np.array_equal(image, synthesis_bands(coeffs.bands, spec.levels))


@pytest.mark.parametrize(
    "solver, dtype",
    [(solver, dtype) for dtype in (np.float64, np.float32)
     for solver in (salsa_solve, ist_solve, fista_solve)],
    ids=[name + suffix for suffix in ("", "-float32")
         for name in ("salsa_solve", "ist_solve", "fista_solve")])
def test_two_real_ffts_per_iteration(solver, dtype, monkeypatch):
    # each solver carries its iterate's half spectrum into the next
    # iteration: one inverse FFT for the step and one forward FFT of the
    # new image, whose spectrum also gives the trace its data term by
    # Parseval; the setup transforms y and the starting image and traces
    # iteration 0.  A float32 iterate's forward FFT is still one call.
    calls = []
    for name in ("rfft2", "irfft2"):
        def counted(*args, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_fft)
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    y, otf, spec = small_problem(side=16, levels=2)
    y = y.astype(dtype)
    for iters in (4, 9):
        calls.clear()
        _, _, trace = solver(y, otf, spec, Regularizer(),
                             SolverConfig(tau=0.05, max_iters=iters, rel_tol=0.0))
        assert trace.final.iteration == iters
        assert len(calls) == 2 + 2 * iters


def test_rfft2_transforms_float32_in_float32():
    # numpy 2's forward FFT of a float32 image at the default scale runs the
    # float64 loop and rounds to complex64, holding six complex64 half
    # spectra at its peak; the float32 loop holds two
    rng = np.random.default_rng(8)
    image = rng.uniform(0.0, 255.0, (256, 256))
    assert np.array_equal(solver_module._rfft2(image), np.fft.rfft2(image))
    image = image.astype(np.float32)
    want = np.fft.rfft2(image.astype(np.float64))
    tracemalloc.start()
    try:
        got = solver_module._rfft2(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.dtype == np.complex64
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    assert peak < 3 * got.nbytes, peak / got.nbytes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_solvers_take_a_fortran_ordered_observation(solver, dtype):
    # the rfft2 of a Fortran-ordered y is not C-contiguous, while the
    # objective views SALSA's residual spectrum as floats, which needs C order
    y, otf, spec = small_problem(side=16, levels=2)
    y = y.astype(dtype)
    cfg = SolverConfig(tau=0.05, max_iters=6, rel_tol=0.0)
    c_coeffs, c_image, c_trace = solver(y, otf, spec, Regularizer(), cfg)
    f_coeffs, f_image, f_trace = solver(np.asfortranarray(y), otf, spec, Regularizer(), cfg)
    assert [r.objective for r in f_trace.records] == [r.objective for r in c_trace.records]
    assert f_trace.splitting_residual == c_trace.splitting_residual
    assert np.array_equal(f_coeffs.bands, c_coeffs.bands)
    assert np.array_equal(f_image, c_image)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_solvers_take_a_real_otf(solver, dtype):
    # a symmetric kernel's OTF is real, and a real half spectrum is a valid
    # filter; IST's and FISTA's gradient filter must still be complex
    y, otf, spec = small_problem(side=16, levels=2)
    y = y.astype(dtype)
    cfg = SolverConfig(tau=0.05, max_iters=6, rel_tol=0.0)
    real = solver(y, otf.real, spec, Regularizer(), cfg)
    complex_ = solver(y, otf.real.astype(complex), spec, Regularizer(), cfg)
    np.testing.assert_allclose(real[1], complex_[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose([r.objective for r in real[2].records],
                               [r.objective for r in complex_[2].records], rtol=1e-12)


@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_solvers_hand_out_arrays_they_no_longer_write(solver):
    # the solvers overwrite their coefficient stacks in place; nothing a
    # caller receives may alias a buffer that is written later
    y, otf, spec = small_problem(side=16, levels=2)
    y_before, otf_before = y.copy(), otf.copy()
    cfg = SolverConfig(tau=0.05, max_iters=8, rel_tol=0.0)
    c1, img1, _ = solver(y, otf, spec, Regularizer(), cfg)
    first = (c1.bands.copy(), img1.copy())
    c2, img2, _ = solver(y, otf, spec, Regularizer(), cfg)
    assert not np.may_share_memory(c1.bands, c2.bands)
    assert not np.may_share_memory(img1, img2)
    assert np.array_equal(c1.bands, first[0]) and np.array_equal(img1, first[1])
    assert np.array_equal(c1.bands, c2.bands)
    assert np.array_equal(y, y_before) and np.array_equal(otf, otf_before)


@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_solvers_reject_a_full_spectrum_otf(solver):
    # the full (h, w) spectrum is the OTF format before half spectra
    y, otf, spec = small_problem(side=16, levels=1)
    with pytest.raises(ValueError, match=r"expected a filter of shape \(16, 9\), the half "
                                         r"spectrum of a 16x16 image, got shape \(16, 16\)"):
        solver(y, full_spectrum(otf, y.shape), spec, Regularizer(),
               SolverConfig(tau=0.05, max_iters=2))


@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_solvers_reject_observations_and_otfs_they_cannot_use(solver):
    # each once failed deep inside: a 1-D y in an unpack, a NaN as a
    # non-finite objective at iteration 0, an empty y in an FFT or a max
    y, otf, spec = small_problem(side=16, levels=1)
    cfg = SolverConfig(tau=0.05, max_iters=2)
    bad_y, bad_otf = y.copy(), otf.copy()
    bad_y[2, 3] = math.nan
    bad_otf[1, 1] = complex(math.inf, 0.0)
    for args, message in (((y[0], otf), "y must be a 2-D image, got shape (16,)"),
                          ((y[:0], otf), "y is empty, got shape (0, 16)"),
                          ((bad_y, otf), "y holds NaN or inf values"),
                          ((y, bad_otf), "filter holds NaN or inf values"),
                          ((y, np.full_like(otf, math.nan)), "filter holds NaN or inf values"),
                          # else the real part solved, with only a ComplexWarning
                          ((y * (1 + 2j), otf), "y must be real, got complex128")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solver(*args, spec, Regularizer(), cfg)
    # a zero OTF, or one whose squares underflow, leaves IST and FISTA no
    # gradient step (else a ZeroDivisionError), and a subnormal peak square an
    # infinite one (else a DivergenceError); SALSA's inversion filter is then 0
    for no_step, message in ((np.zeros_like(otf), "max |OTF|^2 must be positive, got 0.0"),
                             (otf * 1e-170, "max |OTF|^2 must be positive, got 0.0"),
                             (otf * 1e-155, "gradient step 1 / max |OTF|^2 must be finite, "
                                            "got inf")):
        if solver is salsa_solve:
            solver(y, no_step, spec, Regularizer(), cfg)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                solver(y, no_step, spec, Regularizer(), cfg)


@pytest.mark.parametrize("solver, exp_id, iters",
                         [(salsa_solve, "1", 20), (ist_solve, "2B", 60), (fista_solve, "2B", 60)],
                         ids=["salsa", "ist", "fista"])
def test_skipped_zero_blocks_and_bands_change_no_value(solver, exp_id, iters, monkeypatch):
    # at 256² the soft threshold leaves whole blocks of each solver's stack
    # at zero, which their sweeps and syntheses then skip (FISTA's sweep
    # only where its last two iterates are both zero); the same solve with
    # every block swept and every band synthesized is the reference for
    # every value
    spec = DEFAULT_EXPERIMENTS[exp_id]
    x = phantom(256)
    y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
    otf = psf_to_otf(spec.psf(), y.shape)
    cfg = SolverConfig(tau=spec.tau, max_iters=iters, rel_tol=0.0)
    prox_module = importlib.import_module("salsa_deconv.prox")
    calls, prox_fn = [], prox_module.prox
    monkeypatch.setattr(prox_module, "prox", lambda *a, **k: calls.append(None) or prox_fn(*a, **k))

    def run():
        calls.clear()
        coeffs, image, trace = solver(y, otf, FrameSpec(4), Regularizer(), cfg,
                                      lambda image: isnr(x, y, image))
        return coeffs.bands, image, trace, len(calls)

    bands, image, trace, skipping_calls = run()
    sweep, synthesis = solver_module._sweep, solver_module.synthesis_bands
    # fresh all-false flags on every call: no block is skipped
    monkeypatch.setattr(solver_module, "_sweep",
                        lambda values, stack, threshold, zero:
                        sweep(values, stack, threshold, _zero_blocks(stack)))
    monkeypatch.setattr(solver_module, "synthesis_bands",
                        lambda bands, levels, zero=(): synthesis(bands, levels))
    want_bands, want_image, want_trace, every_block = run()

    assert every_block == 26 * iters  # 13 bands of 256² are 26 blocks of 2**15
    assert skipping_calls < every_block
    assert bands.tobytes() == want_bands.tobytes()
    assert np.array_equal(image, want_image)
    assert [(r.iteration, r.objective, r.isnr_db) for r in trace.records] == \
        [(r.iteration, r.objective, r.isnr_db) for r in want_trace.records]
    assert trace.splitting_residual == want_trace.splitting_residual


def test_fista_leaves_zero_bands_out_of_its_synthesis(monkeypatch):
    # the flags FISTA's sweep records from |out| leave the detail bands
    # its iterate holds at zero out of the synthesis (on 3B at 256²,
    # from the 24th synthesis on); the same solve with no flags is the
    # reference for every value
    spec = DEFAULT_EXPERIMENTS["3B"]
    x = phantom(256)
    y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
    otf = psf_to_otf(spec.psf(), y.shape)
    cfg = SolverConfig(tau=spec.tau, max_iters=30, rel_tol=0.0)
    synthesis = solver_module.synthesis_bands
    flagged = []

    def recording(bands, levels, zero=()):
        flagged.append(sum(zero[:-1]))
        return synthesis(bands, levels, zero=zero)

    def run():
        coeffs, image, trace = fista_solve(y, otf, FrameSpec(4), Regularizer(), cfg,
                                           lambda image: isnr(x, y, image))
        return coeffs.bands, image, trace

    monkeypatch.setattr(solver_module, "synthesis_bands", recording)
    bands, image, trace = run()
    monkeypatch.setattr(solver_module, "synthesis_bands",
                        lambda bands, levels, zero=(): synthesis(bands, levels))
    want_bands, want_image, want_trace = run()

    assert len(flagged) == cfg.max_iters + 1 and sum(flagged) > 0
    assert bands.tobytes() == want_bands.tobytes()
    assert np.array_equal(image, want_image)
    assert [(r.iteration, r.objective, r.isnr_db) for r in trace.records] == \
        [(r.iteration, r.objective, r.isnr_db) for r in want_trace.records]


def test_salsa_zero_tau_needs_explicit_mu():
    y, otf, spec = small_problem(side=16, levels=1)
    with pytest.raises(ValueError, match="pass mu explicitly"):
        salsa_solve(y, otf, spec, Regularizer(), SolverConfig(tau=0.0, max_iters=5))


@pytest.mark.parametrize("solver", [salsa_solve, ist_solve, fista_solve])
def test_zero_tau_with_explicit_mu_runs(solver):
    # tau == 0 is unregularized least squares: the threshold is 0 and
    # the objective is the data term alone
    y, otf, spec = small_problem(side=16, levels=2)
    cfg = SolverConfig(tau=0.0, mu=0.05, max_iters=20, rel_tol=0.0)
    coeffs, image, trace = solver(y, otf, spec, Regularizer(), cfg)
    assert trace.final.iteration == 20
    assert np.all(np.isfinite(coeffs.bands))
    assert trace.final.objective < trace.records[0].objective
    residual = apply_filter(otf, image) - y
    assert trace.final.objective == pytest.approx(0.5 * float((residual**2).sum()),
                                                  rel=1e-9)


# ---------------------------------------------------------------------------
# cross-solver agreement


def test_long_run_consensus_uniform_blur():
    # all three methods drive the same objective to the same floor
    x = phantom(64)
    psf = build_psf(BlurKind.UNIFORM9)
    y = degrade(x, psf, 0.3136, 10)
    otf = psf_to_otf(psf, (64, 64))
    spec = FrameSpec(4)
    reg = Regularizer()
    tau = 0.05
    _, _, s_tr = salsa_solve(y, otf, spec, reg,
                             SolverConfig(tau=tau, max_iters=2000, rel_tol=1e-8))
    _, _, i_tr = ist_solve(y, otf, spec, reg,
                           SolverConfig(tau=tau, max_iters=2000, rel_tol=1e-10))
    _, _, f_tr = fista_solve(y, otf, spec, reg,
                             SolverConfig(tau=tau, max_iters=2000, rel_tol=1e-10))
    best = min(s_tr.final.objective, i_tr.final.objective, f_tr.final.objective)
    assert s_tr.final.objective <= best * 1.001


def test_all_solvers_meet_subgradient_certificate():
    # a mild, well-conditioned blur so every method can be run to a tight
    # certificate in test-budget time
    side, levels, tau = 8, 1, 10.0
    y, otf, spec = small_problem(side=side, levels=levels,
                                 kind=BlurKind.GAUSSIAN, sigma=0.6)
    reg = Regularizer()
    runs = {
        "salsa": salsa_solve(y, otf, spec, reg,
                             SolverConfig(tau=tau, max_iters=10000, rel_tol=0.0)),
        "ist": ist_solve(y, otf, spec, reg,
                         SolverConfig(tau=tau, max_iters=10000, rel_tol=0.0)),
        "fista": fista_solve(y, otf, spec, reg,
                             SolverConfig(tau=tau, max_iters=10000, rel_tol=1e-15)),
    }
    for name, (coeffs, _, _) in runs.items():
        grad = data_gradient(y, otf, levels, coeffs.bands)
        res = subgradient_residual(coeffs.bands, grad, tau)
        assert res <= 1e-3 * tau, f"{name}: residual {res:.3e}"


def test_ist_fixed_point_residual_tight():
    # unit intensity scale keeps the objective small enough that float64
    # resolves the last stretch to the fixed point
    side, levels, tau = 8, 1, 0.04
    y, otf, spec = small_problem(side=side, levels=levels, scale=1.0,
                                 kind=BlurKind.GAUSSIAN, sigma=0.5,
                                 variance=1e-4)
    cfg = SolverConfig(tau=tau, max_iters=6000, rel_tol=0.0)
    coeffs, _, _ = ist_solve(y, otf, spec, Regularizer(), cfg)
    grad = data_gradient(y, otf, levels, coeffs.bands)
    assert subgradient_residual(coeffs.bands, grad, tau) <= 1e-6

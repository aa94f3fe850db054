"""Deconvolution solvers sharing one objective and trace format.

``salsa_solve`` is the split augmented-Lagrangian shrinkage iteration:
an exact DFT-domain quadratic solve alternated with a soft-threshold
step and a multiplier update.  ``ist_solve`` and ``fista_solve`` are the
first-order shrinkage/thresholding baselines.  All three minimize

    0.5 * ||blur(synth(beta)) - y||^2 + tau * ||beta||_1

and report per-iteration progress in a :class:`SolverTrace`.  Blurs and
inversion filters run on real FFTs over half spectra.  The recorded
elapsed seconds count solver work only, so timings compare algorithms
rather than instrumentation.  Work is everything an iteration needs to
produce its iterate and the next one.  Every solver synthesizes its
iterate once per iteration, as work: SALSA's next quadratic step starts
from the image of theta, and IST and FISTA take their next gradient from
the data residual ``blur(synth(beta)) - y``, which is work for them too.
Bookkeeping is left out: the two reductions that turn a residual into
the objective, ISNR, the finiteness check, and SALSA's blur of theta for
its residual.  The synthesized iterate is also the image the trace uses
for the objective's residual and the ISNR.

Each solver allocates its coefficient stacks once and overwrites them in
place from iteration to iteration; what it hands out (the returned
coefficients, the states given to ``inspect``) is never written again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convolution import (
    _filter_real,
    _half_spectrum,
    apply_filter,
    build_inversion_filter,
)
from .frame import FrameCoeffs, FrameSpec, analysis_bands, synthesis_bands
from .prox import Regularizer, objective_from_residual, prox

__all__ = [
    "DivergenceError",
    "SolverConfig",
    "SolverState",
    "TraceRecord",
    "SolverTrace",
    "beta_update",
    "salsa_solve",
    "ist_solve",
    "fista_solve",
    "fista_momentum",
]


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""


@dataclass
class SolverConfig:
    """Shared solver settings.

    ``mu`` is the augmented-Lagrangian penalty; ``None`` resolves to the
    0.1*tau rule of thumb.  Stopping is either on relative objective
    change (``rel_tol``, checked against the previous iteration) or, when
    ``target_objective`` is set, on reaching that objective value; the
    ``max_iters`` cap always applies.
    """

    tau: float
    mu: float | None = None
    max_iters: int = 500
    rel_tol: float = 1e-5
    target_objective: float | None = None
    record_trace: bool = True

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be nonnegative, got {self.rel_tol}")
        if self.mu is not None and self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    def resolved_mu(self) -> float:
        mu = 0.1 * self.tau if self.mu is None else self.mu
        if mu <= 0:
            raise ValueError("resolved mu is not positive; pass mu explicitly when tau == 0")
        return mu


@dataclass
class SolverState:
    """SALSA iterates after iteration ``k``: primal pair and multiplier."""

    beta: FrameCoeffs
    theta: FrameCoeffs
    d: FrameCoeffs
    k: int


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    elapsed_s: float
    objective: float
    isnr_db: float | None = None


@dataclass
class SolverTrace:
    """Per-iteration records of one solve.

    ``splitting_residual`` is SALSA's final ``||beta - theta|| / ||theta||``
    (the absolute gap when theta is zero); the other solvers leave it
    ``None``.
    """

    records: list[TraceRecord] = field(default_factory=list)
    splitting_residual: float | None = None

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


class _Run:
    """Trace/stopping bookkeeping shared by the three solvers."""

    def __init__(self, cfg: SolverConfig, isnr_fn):
        self.cfg = cfg
        self.isnr_fn = isnr_fn
        self.trace = SolverTrace()
        self.work_seconds = 0.0
        self.prev_objective: float | None = None
        self._t0 = 0.0

    def start_work(self) -> None:
        self._t0 = time.perf_counter()

    def stop_work(self) -> None:
        self.work_seconds += time.perf_counter() - self._t0

    def check_finite(self, bands: np.ndarray, k: int) -> None:
        if not np.all(np.isfinite(bands)):
            raise DivergenceError(f"non-finite coefficients at iteration {k}")

    def observe(self, k: int, bands: np.ndarray, image: np.ndarray,
                residual: np.ndarray) -> bool:
        """Record iteration ``k`` and return True when the run should stop.

        ``bands`` is the recorded iterate, ``image`` its synthesis and
        ``residual`` the blurred image minus the observation.
        """
        f = objective_from_residual(residual, bands, self.cfg.tau)
        if not math.isfinite(f):
            raise DivergenceError(f"non-finite objective at iteration {k}")
        if self.cfg.record_trace:
            isnr = None
            if self.isnr_fn is not None:
                isnr = self.isnr_fn(image)
            self.trace.records.append(TraceRecord(k, self.work_seconds, f, isnr))
        stop = False
        if self.cfg.target_objective is not None:
            stop = f <= self.cfg.target_objective
        elif self.prev_objective is not None:
            change = abs(f - self.prev_objective)
            if self.prev_objective > 0:
                stop = change <= self.cfg.rel_tol * self.prev_objective
            else:
                stop = change == 0.0
        self.prev_objective = f
        return stop


def _image_and_residual(bands: np.ndarray, levels: int, otf_half: np.ndarray,
                        y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis of ``bands`` and its data residual ``blur(image) - y``."""
    image = synthesis_bands(bands, levels)
    return image, _filter_real(otf_half, image) - y


def beta_update(r: FrameCoeffs, inv_filter: np.ndarray, frame: FrameSpec,
                mu: float) -> FrameCoeffs:
    """Exact minimizer of the quadratic subproblem via the Woodbury identity.

    Solves ``(Wt Ht H W + mu I) beta = r`` for the Parseval frame W and
    circular blur H, as ``(1/mu) * (r - Wt F W r)`` where F is the
    DFT-domain inversion filter from :func:`build_inversion_filter`.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if r.levels != frame.levels or r.bands.shape[0] != frame.n_subbands:
        raise ValueError(
            f"coefficient layout {r.bands.shape} does not match a "
            f"{frame.levels}-level frame"
        )
    filtered = apply_filter(inv_filter, synthesis_bands(r.bands, frame.levels))
    return FrameCoeffs(r.levels, (r.bands - analysis_bands(filtered, frame.levels)) / mu)


def salsa_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
    inspect: Callable[[SolverState], None] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Split augmented-Lagrangian shrinkage iteration.

    In coefficient form, with ``ybar = Wt Ht y``, the iteration is

        r     = ybar + mu * (theta + d)
        beta  = (1/mu) * (r - Wt F W r)
        theta = soft_threshold(beta - d, tau / mu)
        d     = d - (beta - theta)

    starting from ``theta = beta = Wt y`` and ``d = 0``, where W is the
    frame synthesis, Wt its analysis and F the inversion filter from
    :func:`build_inversion_filter`.  The frame is Parseval (``W Wt = I``),
    so only the prox input ``v_k = beta_k - d_{k-1}`` and ``theta`` need
    to be coefficient stacks.  Since ``d_k = theta_k - v_k``, iteration
    ``k`` is

        u_k      = Ht y + mu * (2 W theta_{k-1} - W v_{k-1})   (= W r_k)
        g_k      = (Ht y - F u_k) / mu
        v_k      = theta_{k-1} + Wt g_k                  (= beta_k - d_{k-1})
        W v_k    = W theta_{k-1} + g_k
        theta_k  = soft_threshold(v_k, tau / mu)
        W theta_k = synth(theta_k)

    from ``v_0 = theta_0 = Wt y``: one analysis, one synthesis and one
    inversion filter per iteration.  The synthesis of ``theta_k`` is
    also the returned image and gives the trace its residual.

    The returned solution is ``theta`` (the prox output, exactly sparse)
    together with its synthesis and the per-iteration trace, whose
    ``splitting_residual`` is ``||beta_K - theta_K|| / ||theta_K||`` at
    the last iteration, with ``beta_K - theta_K = v_K + d_{K-1} - theta_K``.
    ``inspect``, when given, is called with the :class:`SolverState`
    after every iteration; only then are ``beta_k = v_k + d_{k-1}`` and
    the multiplier formed as stacks, the multiplier literally as
    ``d - (beta - theta)`` so its telescoping is bitwise reproducible.
    """
    levels = frame.levels
    mu = cfg.resolved_mu()
    threshold = cfg.tau / mu
    run = _Run(cfg, isnr_fn)

    run.start_work()
    otf_half = _half_spectrum(otf)
    inv_filter = build_inversion_filter(otf_half, mu)
    hty = _filter_real(np.conj(otf_half), y)
    theta = v = analysis_bands(y, levels)
    w_theta = w_v = synthesis_bands(theta, levels)
    # Iteration k writes v_k and theta_k over v_{k-2} and theta_{k-2}, so
    # v_{k-1} and theta_{k-1} survive for the splitting residual.
    v_bufs = (np.empty_like(theta), np.empty_like(theta))
    theta_bufs = (theta, np.empty_like(theta))
    run.stop_work()

    stop = run.observe(0, theta, w_theta, _filter_real(otf_half, w_theta) - y)
    theta_prev = v_prev = theta
    d = np.zeros_like(theta) if inspect is not None else None
    k = 0
    while not stop and k < cfg.max_iters:
        k += 1
        run.start_work()
        theta_prev, v_prev = theta, v
        u = hty + mu * (2.0 * w_theta - w_v)
        g = (hty - _filter_real(inv_filter, u)) / mu
        v = analysis_bands(g, levels, out=v_bufs[k % 2])
        v += theta
        w_v = w_theta + g
        theta = prox(reg, FrameCoeffs(levels, v), threshold, out=theta_bufs[k % 2]).bands
        w_theta = synthesis_bands(theta, levels)
        run.stop_work()

        run.check_finite(v, k)
        stop = run.observe(k, theta, w_theta, _filter_real(otf_half, w_theta) - y)
        if inspect is not None:
            beta = v + d
            d = d - (beta - theta)
            inspect(SolverState(
                beta=FrameCoeffs(levels, beta),
                theta=FrameCoeffs(levels, theta.copy()),
                d=FrameCoeffs(levels, d),
                k=k,
            ))

    gap = _norm(v + (theta_prev - v_prev) - theta)
    size = _norm(theta)
    run.trace.splitting_residual = gap / size if size > 0 else gap
    return FrameCoeffs(levels, theta), w_theta, run.trace


def _norm(bands: np.ndarray) -> float:
    return float(np.sqrt((bands**2).sum()))


def _default_step(otf: np.ndarray) -> float:
    # 1/L with L = max |d|^2, the Lipschitz bound of the data-term
    # gradient (the frame is Parseval, so ||W|| = 1).
    return 1.0 / float(np.max(np.abs(otf) ** 2))


def ist_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    step_size: float | None = None,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Iterative shrinkage/thresholding baseline.

    One iteration is a gradient step on the data term followed by the
    soft threshold: ``beta <- soft(beta - s * Wt Ht (H W beta - y),
    tau * s)``.  With the default step ``s = 1 / max|OTF|^2`` the
    objective is nonincreasing.
    """
    levels = frame.levels
    step = _default_step(otf) if step_size is None else step_size
    if step <= 0:
        raise ValueError(f"step_size must be positive, got {step}")
    threshold = cfg.tau * step
    run = _Run(cfg, isnr_fn)

    run.start_work()
    otf_half = _half_spectrum(otf)
    otf_half_adj = np.conj(otf_half)
    beta = analysis_bands(y, levels)
    z = np.empty_like(beta)
    image, residual = _image_and_residual(beta, levels, otf_half, y)
    run.stop_work()

    stop = run.observe(0, beta, image, residual)
    k = 0
    while not stop and k < cfg.max_iters:
        k += 1
        run.start_work()
        # z = beta - step * grad, with the gradient analysed into z
        analysis_bands(_filter_real(otf_half_adj, residual), levels, out=z)
        z *= -step
        z += beta
        prox(reg, FrameCoeffs(levels, z), threshold, out=beta)
        image, residual = _image_and_residual(beta, levels, otf_half, y)
        run.stop_work()

        run.check_finite(beta, k)
        stop = run.observe(k, beta, image, residual)

    return FrameCoeffs(levels, beta), image, run.trace


def fista_momentum(t: float) -> float:
    """Momentum recursion t -> (1 + sqrt(1 + 4 t^2)) / 2, starting from t = 1."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def fista_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    step_size: float | None = None,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Accelerated shrinkage/thresholding baseline.

    IST step taken at an extrapolated point, with the extrapolation
    weight ``(t_k - 1) / t_{k+1}`` driven by :func:`fista_momentum`.
    Unlike IST the objective need not decrease monotonically.  The data
    residual is affine in the coefficients, so the residual at the
    extrapolated point ``z = beta + w (beta - beta_prev)`` is
    ``(1 + w) r_beta - w r_beta_prev``, from residuals already held; one
    synthesis and one blur per iteration, at ``beta``, serve both the
    next gradient and the trace.
    """
    levels = frame.levels
    step = _default_step(otf) if step_size is None else step_size
    if step <= 0:
        raise ValueError(f"step_size must be positive, got {step}")
    threshold = cfg.tau * step
    run = _Run(cfg, isnr_fn)

    run.start_work()
    otf_half = _half_spectrum(otf)
    otf_half_adj = np.conj(otf_half)
    beta = analysis_bands(y, levels)
    z = beta.copy()
    g = np.empty_like(beta)
    beta_next = np.empty_like(beta)
    image, residual = _image_and_residual(beta, levels, otf_half, y)
    residual_z = residual
    t = 1.0
    run.stop_work()

    stop = run.observe(0, beta, image, residual)
    k = 0
    while not stop and k < cfg.max_iters:
        k += 1
        run.start_work()
        # g = z - step * grad, with the gradient analysed into g
        analysis_bands(_filter_real(otf_half_adj, residual_z), levels, out=g)
        g *= -step
        g += z
        prox(reg, FrameCoeffs(levels, g), threshold, out=beta_next)
        t_next = fista_momentum(t)
        w = (t - 1.0) / t_next
        # z = beta_next + w * (beta_next - beta)
        np.subtract(beta_next, beta, out=z)
        z *= w
        z += beta_next
        image, residual_next = _image_and_residual(beta_next, levels, otf_half, y)
        residual_z = (1.0 + w) * residual_next - w * residual
        beta, beta_next = beta_next, beta
        residual, t = residual_next, t_next
        run.stop_work()

        run.check_finite(beta, k)
        stop = run.observe(k, beta, image, residual)

    return FrameCoeffs(levels, beta), image, run.trace

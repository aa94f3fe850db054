"""Deconvolution solvers sharing one objective and trace format.

``salsa_solve`` is the split augmented-Lagrangian shrinkage iteration:
an exact DFT-domain quadratic solve alternated with a soft-threshold
step and a multiplier update.  ``ist_solve`` and ``fista_solve`` are the
first-order shrinkage/thresholding baselines.  All three minimize

    0.5 * ||blur(synth(beta)) - y||^2 + tau * ||beta||_1

and report per-iteration progress in a :class:`SolverTrace`.  One
private loop, ``_drive``, runs all three: each solver supplies a
generator that does its setup and then one iteration per step, and the
loop owns the work clock, the trace, the stopping rule of
:class:`SolverConfig` and the divergence check.  IST is FISTA without
the extrapolation.

Blurs and inversion filters are products with half spectra on real
FFTs, and every solver carries the half spectrum of its synthesized
iterate from one iteration to the next, so that an iteration runs three
real 2-D FFTs: SALSA's inverse FFT of its quadratic step and forward FFT
of the image of theta, IST's and FISTA's inverse FFT of the gradient and
forward FFT of the image of beta, and for all three the inverse FFT of
the blurred iterate that gives the trace its residual.

The recorded elapsed seconds count solver work only, so timings compare
algorithms rather than instrumentation: the time spent inside the
generator's steps.  Work is everything an iteration needs to produce its
iterate and the next one: for every solver, one blocked sweep over the
coefficients (``prox._sweep``: the carried stack's addition, the soft
threshold, the iterate's l1 norm and FISTA's extrapolation), the
synthesis of the iterate and that image's forward FFT, which the next
quadratic step or gradient starts from.  The sweep hands the l1 norm to
``_drive`` with the iterate, so ``_drive`` reads no stack.
Bookkeeping is left out: the inverse FFT that turns the blurred
spectrum into the data residual ``blur(synth(beta)) - y``, the
reductions that turn the residual into the data term, and ISNR.  The
synthesized iterate is also the image the trace uses for the ISNR.  A
non-finite iterate shows as a non-finite objective, on which ``_drive``
raises :class:`DivergenceError`.

Each solver allocates its coefficient stacks once and overwrites them in
place from iteration to iteration: SALSA and FISTA hold three stacks,
IST two.  The coefficients a solver returns are never written again.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .convolution import _half_spectrum, build_inversion_filter
from .frame import FrameCoeffs, FrameSpec, analysis_bands, synthesis_bands
from .prox import Regularizer, _l1, _objective, _sweep

__all__ = [
    "DivergenceError",
    "SolverConfig",
    "TraceRecord",
    "SolverTrace",
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

    def __post_init__(self) -> None:
        for name in ("tau", "mu", "rel_tol", "target_objective"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


def _drive(steps: Iterator[tuple[np.ndarray, float, np.ndarray, np.ndarray]],
           cfg: SolverConfig, isnr_fn: Callable[[np.ndarray], float] | None,
           y: np.ndarray, otf_half: np.ndarray) -> tuple[np.ndarray, np.ndarray, SolverTrace]:
    """Run a solver's iterations to the stopping rule and trace each one.

    ``steps`` is a generator that does its setup and then one iteration's
    work per ``next``, each time yielding the iterate's coefficient stack,
    its l1 norm, its synthesis and that image's ``rfft2`` half spectrum,
    from which ``_drive`` forms the data residual ``blur(image) - y``; the
    stack itself is only handed back.  Only the ``next`` calls count as
    work.  Iteration 0 is the starting point; ``cfg.max_iters`` caps the
    iterations after it.  Returns the last iterate, its image and the
    trace.
    """
    trace = SolverTrace()
    work_seconds = 0.0
    prev_objective = None
    for k in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        bands, l1, image, spectrum = next(steps)
        work_seconds += time.perf_counter() - t0

        residual = np.fft.irfft2(otf_half * spectrum, s=y.shape) - y
        # a non-finite coefficient makes the l1 term non-finite, so this
        # also catches an iterate that stopped being finite
        f = _objective(residual, l1, cfg.tau)
        if not math.isfinite(f):
            raise DivergenceError(f"non-finite objective at iteration {k}")
        isnr = None if isnr_fn is None else isnr_fn(image)
        trace.records.append(TraceRecord(k, work_seconds, f, isnr))
        if cfg.target_objective is not None:
            stop = f <= cfg.target_objective
        else:
            # relative change; an objective of 0 stops once it repeats
            stop = (prev_objective is not None
                    and abs(f - prev_objective) <= cfg.rel_tol * prev_objective)
        if stop:
            break
        prev_objective = f
    return bands, image, trace


def _quadratic_step(hty: np.ndarray | float, u: np.ndarray, inv_filter: np.ndarray,
                    mu: float) -> np.ndarray:
    """SALSA's quadratic step on half spectra, ``G = (Ht Y - F U) / mu``.

    ``u`` and ``hty`` are ``rfft2`` half spectra and ``inv_filter`` is the
    half spectrum of F from :func:`build_inversion_filter`; the step's
    image is ``g = irfft2(G)``.  For ``r = Wt Ht y + mu c`` and ``u`` the
    spectrum of ``W r``, the solution of ``(Wt Ht H W + mu I) beta = r``
    is ``beta = c + Wt g``, by the Woodbury identity and ``W Wt = I``;
    with ``hty = 0`` that is ``r / mu + Wt g``.
    """
    return (hty - inv_filter * u) / mu


def salsa_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Split augmented-Lagrangian shrinkage iteration.

    In coefficient form, with ``ybar = Wt Ht y``, the iteration is

        r     = ybar + mu * (theta + d)
        beta  = (1/mu) * (r - Wt F W r)
        theta = soft(beta - d, tau / mu)
        d     = d - (beta - theta)

    starting from ``theta = beta = Wt y`` and ``d = 0``, where W is the
    frame synthesis, Wt its analysis and F the inversion filter from
    :func:`build_inversion_filter`.  The frame is Parseval (``W Wt = I``),
    so the images ``W theta`` and ``W v`` of ``theta`` and of the prox
    input ``v_k = beta_k - d_{k-1}`` enter only through their half spectra
    ``Theta = rfft2(W theta)`` and ``V = rfft2(W v)``.  With
    ``Y = rfft2(y)``, H the OTF's half spectrum and ``d_k = theta_k - v_k``,
    iteration ``k`` is

        U_k      = Ht Y + mu * (2 Theta_{k-1} - V_{k-1})   (spectrum of W r_k)
        G_k      = (Ht Y - F U_k) / mu                  (:func:`_quadratic_step`)
        v_k      = theta_{k-1} + Wt irfft2(G_k)           (= beta_k - d_{k-1})
        V_k      = Theta_{k-1} + G_k
        theta_k  = soft(v_k, tau / mu)
        c_k      = v_k - theta_k                       (the prox's clip, -d_k)
        Theta_k  = rfft2(synth(theta_k))

    from ``v_0 = theta_0 = Wt y`` and ``c_0 = 0``: one inversion filter,
    one inverse and one forward FFT, one analysis, one sweep and one
    synthesis per iteration.  The sweep adds ``theta_{k-1}`` into the
    analysed step, thresholds the sum into theta's own stack and leaves
    ``c_k`` where the analysis wrote, so a solve holds three coefficient
    stacks: ``theta``, ``c_k`` and ``c_{k-1}``.  The synthesis of
    ``theta_k`` is also the returned image, and its spectrum gives the
    trace its residual.

    The returned solution is ``theta`` (the prox output, exactly sparse)
    together with its synthesis and the per-iteration trace, whose
    ``splitting_residual`` is ``||beta_K - theta_K|| / ||theta_K||`` at
    the last iteration, with ``beta_K - theta_K = v_K + d_{K-1} - theta_K
    = c_K - c_{K-1}``.  ``reg`` is the :class:`Regularizer`; the l1 norm
    is the only penalty.
    """
    levels = frame.levels
    mu = cfg.resolved_mu()
    threshold = cfg.tau / mu
    otf_half = _half_spectrum(otf)
    # iteration k leaves c_k in clips[k % 2], so c_{k-1} survives it
    clips = []

    def steps():
        inv_filter = build_inversion_filter(otf_half, mu)
        hty = np.conj(otf_half) * np.fft.rfft2(y)
        theta = analysis_bands(y, levels)
        w_theta = synthesis_bands(theta, levels)
        theta_hat = v_hat = np.fft.rfft2(w_theta)
        clips[:] = np.zeros_like(theta), np.empty_like(theta)
        yield theta, _l1(theta), w_theta, theta_hat
        for k in itertools.count(1):
            u = hty + mu * (2.0 * theta_hat - v_hat)
            g_hat = _quadratic_step(hty, u, inv_filter, mu)
            c = analysis_bands(np.fft.irfft2(g_hat, s=y.shape), levels, out=clips[k % 2])
            v_hat = theta_hat + g_hat
            # c + theta_{k-1} is v_k; theta_k replaces theta_{k-1}, c_k replaces c
            l1 = _sweep(c, theta, threshold, theta, keep_clip=True)
            w_theta = synthesis_bands(theta, levels)
            theta_hat = np.fft.rfft2(w_theta)
            yield theta, l1, w_theta, theta_hat

    theta, w_theta, trace = _drive(steps(), cfg, isnr_fn, y, otf_half)
    last = trace.final.iteration
    if last == 0:  # stopped at iteration 0, where beta = theta
        gap = 0.0
    else:
        # formed over c_{K-1}'s buffer, which nothing reads again
        c_prev = clips[(last - 1) % 2]
        gap = _norm(np.subtract(clips[last % 2], c_prev, out=c_prev))
    size = _norm(theta)
    trace.splitting_residual = gap / size if size > 0 else gap
    return FrameCoeffs(levels, theta), w_theta, trace


def _norm(bands: np.ndarray) -> float:
    flat = bands.ravel()
    return math.sqrt(np.dot(flat, flat))


def ist_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Iterative shrinkage/thresholding baseline.

    One iteration is a gradient step on the data term followed by the
    soft threshold: ``beta <- soft(beta - s * Wt Ht (H W beta - y),
    tau * s)``, with the 1/L step ``s = 1 / max|OTF|^2``, so the
    objective is nonincreasing.  This is :func:`fista_solve` without
    the extrapolation.
    """
    return _proximal_gradient(y, otf, frame, cfg, isnr_fn, momentum=False)


def fista_momentum(t: float) -> float:
    """Momentum recursion t -> (1 + sqrt(1 + 4 t^2)) / 2, starting from t = 1."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def fista_solve(
    y: np.ndarray,
    otf: np.ndarray,
    frame: FrameSpec,
    reg: Regularizer,
    cfg: SolverConfig,
    isnr_fn: Callable[[np.ndarray], float] | None = None,
) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """Accelerated shrinkage/thresholding baseline.

    The IST step, with its 1/L step size ``1 / max|OTF|^2``, taken at
    an extrapolated point with the weight ``(t_k - 1) / t_{k+1}``
    driven by :func:`fista_momentum`.  Unlike IST the objective need
    not decrease monotonically.
    """
    return _proximal_gradient(y, otf, frame, cfg, isnr_fn, momentum=True)


def _proximal_gradient(y: np.ndarray, otf: np.ndarray, frame: FrameSpec, cfg: SolverConfig,
                       isnr_fn: Callable[[np.ndarray], float] | None,
                       momentum: bool) -> tuple[FrameCoeffs, np.ndarray, SolverTrace]:
    """IST, or FISTA when ``momentum`` is set.

    The gradient step is taken at ``z = beta + w (beta - beta_prev)``,
    with the weight ``w`` 0 for IST and for FISTA's first step; then
    ``z`` equals the new iterate and so does its residual.  The data
    residual is affine in the coefficients, so it is kept as the half
    spectrum ``R = H B - Y`` of ``blur(synth(beta)) - y``, with
    ``B = rfft2(synth(beta))`` and ``Y = rfft2(y)``; the residual at
    ``z`` is ``R_z = (1 + w) R - w R_prev``.  The step's coefficients are
    ``z + Wt irfft2(-s Ht R_z)``, so an iteration runs one inverse FFT for
    the gradient and one forward FFT of the new iterate's image.  One
    sweep adds ``z`` into the analysed gradient step, thresholds it and,
    for FISTA, writes the next ``z``, so FISTA holds three coefficient
    stacks (the step, ``beta`` and ``z``) and IST two.  The step
    ``s = 1 / max|OTF|^2`` is ``1/L`` for ``L`` the Lipschitz bound of
    the data-term gradient (the frame is Parseval, so ``||W|| = 1``).
    """
    levels = frame.levels
    step = 1.0 / float(np.max(np.abs(otf) ** 2))
    threshold = cfg.tau * step
    otf_half = _half_spectrum(otf)

    def steps():
        # the gradient step's filter, applied to the residual spectrum
        descent = -step * np.conj(otf_half)
        y_hat = np.fft.rfft2(y)
        beta = analysis_bands(y, levels)
        g = np.empty_like(beta)
        # IST thresholds into beta itself; FISTA writes each iterate over
        # z and the next z over the previous iterate
        z = beta.copy() if momentum else beta
        image = synthesis_bands(beta, levels)
        beta_hat = np.fft.rfft2(image)
        residual_z = residual = otf_half * beta_hat - y_hat
        t = 1.0
        yield beta, _l1(beta), image, beta_hat
        while True:
            t_next = fista_momentum(t) if momentum else 1.0
            w = (t - 1.0) / t_next
            t = t_next
            # the step's image analysed into g; the sweep adds z, so that
            # g = z - step * grad, and thresholds it
            analysis_bands(np.fft.irfft2(descent * residual_z, s=y.shape), levels, out=g)
            if momentum:
                l1 = _sweep(g, z, threshold, z, prev=beta, weight=w)
                beta, z = z, beta
            else:
                l1 = _sweep(g, beta, threshold, beta)
            image = synthesis_bands(beta, levels)
            beta_hat = np.fft.rfft2(image)
            residual_next = otf_half * beta_hat - y_hat
            if w == 0.0:
                residual_z = residual_next
            else:
                residual_z = (1.0 + w) * residual_next - w * residual
            residual = residual_next
            yield beta, l1, image, beta_hat

    beta, image, trace = _drive(steps(), cfg, isnr_fn, y, otf_half)
    return FrameCoeffs(levels, beta), image, trace

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

The OTF every solver takes is the ``rfft2`` half spectrum that
:func:`~salsa_deconv.convolution.psf_to_otf` returns, so blurs and
inversion filters are products with half spectra on real FFTs.  Every
solver carries the half spectrum of its synthesized iterate from one
iteration to the next, so that an iteration runs two real 2-D FFTs:
SALSA's inverse FFT of its quadratic step and forward FFT of the image
of theta, IST's and FISTA's inverse FFT of the gradient
step and forward FFT of the image of beta.  The trace's data term takes
no FFT: each solver hands ``_drive`` the half spectrum ``R = H X - Y``
of its data residual ``blur(synth(beta)) - y``, with ``X`` the spectrum
of the iterate's image and ``Y`` that of ``y``, and ``prox._objective``
forms ``0.5*||r||^2`` from ``R`` by Parseval.

The recorded elapsed seconds count solver work only, so timings compare
algorithms rather than instrumentation: the time spent inside the
generator's steps.  Work is everything a generator step does: for every
solver, the analysis of its step's image and one blocked sweep over the
coefficients.  The sweep, ``prox._sweep``, takes one form in all three:
it adds the carried stack into the step's coefficients, soft-thresholds
the sum back into that stack and sums the iterate's l1 norm; IST and
FISTA feed it band by band as the analysis writes each band, and FISTA
then forms its extrapolated point in three whole-stack passes.  Work
also counts the synthesis of the iterate, that image's forward FFT and
the residual spectrum ``R``.  IST's and FISTA's next gradient step
starts from ``R``; SALSA needs it only for the trace, but forms it
inside its step (one multiply and one subtract on half spectra), so it
counts as work there too.  The sweep hands the l1 norm
to ``_drive`` with the iterate, so ``_drive`` reads no stack.
Bookkeeping is left out: the reductions that turn ``R`` into the data
term, and ISNR.  The synthesized iterate is also the image the trace
uses for the ISNR.  A non-finite iterate shows as a non-finite
objective, on which ``_drive`` raises :class:`DivergenceError`.

Every iterate is the output of a soft threshold, so many of its
coefficients are exactly zero (14-31% of the blocks of a SALSA solve at
256²).  Every solver keeps one flag per ``prox._BLOCK`` block of the
stack it thresholds into, set when the block came out of the last sweep
all zero, and the synthesis leaves out every detail band whose blocks
are all flagged.  Every sweep also skips a flagged block whose new input
stays within the threshold, which would threshold to the zero already
there.  Neither skip changes a value.  FISTA thresholds into its
extrapolated point, which is zero wherever its last two iterates are,
so its sweep takes the AND of their flags.

The solvers iterate in the precision of the observation ``y``, which
:func:`~salsa_deconv._checks.check_image` sets, as for every image of
the package: a float32 ``y`` makes the coefficient stacks, the images
and the half spectra the iteration carries float32 and complex64
(SALSA's step spectra, IST's and FISTA's gradient input), and any other
``y`` runs in float64; the frame transforms keep that precision by the
same rule.  The filters formed once per solve (SALSA's inversion filter
and its constant ``A``, IST's and FISTA's descent filter) are computed
in float64 and complex128 and cast to ``y.dtype`` or
``np.result_type(y, np.complex64)``.  The OTF and the spectrum ``Y`` of
``y`` stay complex128, so the residual spectrum ``R`` and the trace's
data term are formed in complex128, and every sum (the l1 norm, the
data term, the splitting residual's norms) accumulates in float64.
Thresholds, weights and step sizes are Python floats, which do not
promote a float32 array.  numpy 2
computes a forward FFT of a float32 image at the default scale in float64
and rounds it to complex64, so the iterate's forward FFT goes through
:func:`_rfft2`, which runs numpy's float32 loop on a float32 image.

Each solver allocates its coefficient stacks once and overwrites them in
place from iteration to iteration: SALSA holds three stacks, FISTA two
and IST one.  SALSA does the same with its step's half spectra.  The
coefficients a solver returns are never written again.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ._checks import check_image, check_integer, check_real
from .convolution import _check_half_spectrum, build_inversion_filter
from .frame import FrameCoeffs, FrameSpec, _analysis_steps, analysis_bands, synthesis_bands
from .prox import (Regularizer, _l1, _objective, _sum_of_squares, _sweep, _zero_bands,
                   _zero_blocks)

__all__ = [
    "DivergenceError",
    "SolverConfig",
    "TraceRecord",
    "SolverTrace",
    "salsa_solve",
    "ist_solve",
    "fista_solve",
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
        check_real("tau", self.tau, "nonnegative")
        if self.mu is not None:
            check_real("mu", self.mu, "positive")
        check_integer("max_iters", self.max_iters, minimum=1)
        check_real("rel_tol", self.rel_tol, "nonnegative")
        if self.target_objective is not None:
            check_real("target_objective", self.target_objective)

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
    def final(self) -> TraceRecord:
        return self.records[-1]


def _drive(steps: Iterator[tuple[np.ndarray, float, np.ndarray, np.ndarray]],
           cfg: SolverConfig, isnr_fn: Callable[[np.ndarray], float] | None,
           shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, SolverTrace]:
    """Run a solver's iterations to the stopping rule and trace each one.

    ``steps`` is a generator that does its setup and then one iteration's
    work per ``next``, each time yielding the iterate's coefficient stack,
    its l1 norm, its synthesis and the half spectrum of its data residual
    ``blur(image) - y``, an image of ``shape``; the stack itself is only
    handed back.  Only the ``next`` calls count as work.  Iteration 0 is
    the starting point; ``cfg.max_iters`` caps the iterations after it.
    Returns the last iterate, its image and the trace.
    """
    trace = SolverTrace()
    work_seconds = 0.0
    prev_objective = None
    for k in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        bands, l1, image, residual_half = next(steps)
        work_seconds += time.perf_counter() - t0

        # a non-finite coefficient makes the l1 term non-finite, so this
        # also catches an iterate that stopped being finite
        f = _objective(residual_half, l1, cfg.tau, shape)
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


def _quadratic_step(a: np.ndarray | float, theta_hat: np.ndarray, v_hat: np.ndarray,
                    inv_filter: np.ndarray, out: np.ndarray) -> np.ndarray:
    """SALSA's quadratic step on half spectra, ``G = A - F (2 Theta - V)``.

    ``theta_hat`` and ``v_hat`` are ``rfft2`` half spectra, ``inv_filter``
    is F from :func:`build_inversion_filter` and
    ``a`` the once-per-solve constant ``A = (1 - F) Ht Y / mu``; the
    step's image is ``g = irfft2(G)``.  ``G`` is written into ``out`` in
    four passes that allocate nothing.  For
    ``r = Wt Ht y + mu c`` and ``2 Theta - V`` the spectrum of ``W c``,
    the solution of ``(Wt Ht H W + mu I) beta = r`` is
    ``beta = c + Wt g``, by the Woodbury identity and ``W Wt = I``: with
    ``U = Ht Y + mu (2 Theta - V)`` the spectrum of ``W r``,
    ``G = (Ht Y - F U) / mu``.  With ``a = 0`` that is ``r / mu + Wt g``
    for ``r = mu c``.
    """
    np.multiply(theta_hat, 2.0, out=out)
    out -= v_hat
    out *= inv_filter
    return np.subtract(a, out, out=out)


def _residual_half(otf_half: np.ndarray, x_hat: np.ndarray, y_hat: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """``R = H X - Y`` into ``out``: the half spectrum of ``blur(x) - y``."""
    np.multiply(otf_half, x_hat, out=out)
    return np.subtract(out, y_hat, out=out)


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
    ``Y = rfft2(y)``, H the OTF and ``d_k = theta_k - v_k``,
    iteration ``k`` is

        G_k      = A - F (2 Theta_{k-1} - V_{k-1})     (:func:`_quadratic_step`)
        v_k      = theta_{k-1} + Wt irfft2(G_k)        (= beta_k - d_{k-1})
        V_k      = Theta_{k-1} + G_k
        theta_k  = soft(v_k, tau / mu)
        Theta_k  = rfft2(synth(theta_k))

    with the constant ``A = (1 - F) Ht Y / mu``, formed once per solve:
    ``G_k`` is ``(Ht Y - F U_k) / mu`` for
    ``U_k = Ht Y + mu (2 Theta_{k-1} - V_{k-1})``, the spectrum of
    ``W r_k``.  It starts from
    ``v_0 = theta_0 = Wt y`` and ``d_0 = 0``: one inversion filter, one
    inverse and one forward FFT, one analysis, one sweep and one synthesis
    per iteration.  The step and ``V`` make five passes over half spectra
    and write into buffers allocated once per solve.  The sweep adds
    ``theta_{k-1}`` into the analysed step, which leaves ``v_k`` where the
    analysis wrote, and thresholds the sum into theta's own stack, so a
    solve holds three coefficient stacks: ``theta``, ``v_k`` and
    ``v_{k-1}``.  The synthesis of ``theta_k`` is also the returned image,
    and its spectrum gives the trace its residual spectrum
    ``H Theta_k - Y``.

    The returned solution is ``theta`` (the prox output, exactly sparse)
    together with its synthesis and the per-iteration trace, whose
    ``splitting_residual`` is ``||beta_K - theta_K|| / ||theta_K||`` at
    the last iteration.  With the prox's clip
    ``c_k = v_k - theta_k = clip(v_k, -tau/mu, tau/mu) = -d_k``, that is
    ``beta_K - theta_K = v_K + d_{K-1} - theta_K = c_K - c_{K-1}``; the
    two clips are formed once, at the end of the solve, in the buffers of
    ``v_K`` and ``v_{K-1}`` (``c_0 = 0``).  ``reg`` is the
    :class:`Regularizer`; the l1 norm is the only penalty.
    """
    y = check_image("y", y)
    _check_half_spectrum(otf, y.shape)
    levels = frame.levels
    mu = cfg.resolved_mu()
    threshold = float(cfg.tau / mu)
    # iteration k leaves v_k in prox_inputs[k % 2], so v_{k-1} survives it;
    # both start as zeros, whose clip is c_0 = 0, so a solve stopped at
    # iteration 0, where beta = theta, has a gap of 0
    prox_inputs = []

    def steps():
        inv_filter = build_inversion_filter(otf, mu)
        y_hat = _spectrum(y)
        a = (1.0 - inv_filter) * (np.conj(otf) * y_hat) / mu
        # formed in float64 and complex128, stored in the working precision
        inv_filter, a = (inv_filter.astype(y.dtype, copy=False),
                         a.astype(np.result_type(y, np.complex64), copy=False))
        theta = analysis_bands(y, levels)
        w_theta = synthesis_bands(theta, levels)
        theta_hat = _rfft2(w_theta)
        v_hat = theta_hat.copy()
        g_hat = np.empty_like(theta_hat)
        residual_half = _residual_half(otf, theta_hat, y_hat, np.empty_like(y_hat))
        prox_inputs[:] = np.zeros_like(theta), np.zeros_like(theta)
        zero = _zero_blocks(theta)
        yield theta, _l1(theta), w_theta, residual_half
        for k in itertools.count(1):
            _quadratic_step(a, theta_hat, v_hat, inv_filter, g_hat)
            v = analysis_bands(np.fft.irfft2(g_hat, s=y.shape), levels, out=prox_inputs[k % 2])
            np.add(theta_hat, g_hat, out=v_hat)
            # v + theta_{k-1} is v_k; theta_k replaces theta_{k-1}
            l1 = _sweep(v, theta, threshold, zero)
            w_theta = synthesis_bands(theta, levels, zero=_zero_bands(zero, theta.shape))
            theta_hat = _rfft2(w_theta)
            yield theta, l1, w_theta, _residual_half(otf, theta_hat, y_hat, residual_half)

    theta, w_theta, trace = _drive(steps(), cfg, isnr_fn, y.shape)
    last = trace.final.iteration
    # formed over v_K's and v_{K-1}'s buffers, which nothing reads again
    c_last, c_prev = prox_inputs[last % 2], prox_inputs[(last - 1) % 2]
    np.clip(c_last, -threshold, threshold, out=c_last)
    np.clip(c_prev, -threshold, threshold, out=c_prev)
    gap = _norm(np.subtract(c_last, c_prev, out=c_prev))
    size = _norm(theta)
    trace.splitting_residual = gap / size if size > 0 else gap
    return FrameCoeffs(levels, theta), w_theta, trace


def _norm(bands: np.ndarray) -> float:
    return math.sqrt(_sum_of_squares(bands))


def _spectrum(y: np.ndarray) -> np.ndarray:
    """``Y = rfft2(y)`` in complex128, whatever the precision of ``y``."""
    return np.fft.rfft2(y.astype(np.float64, copy=False))


def _rfft2(image: np.ndarray) -> np.ndarray:
    """``rfft2(image)``, computed in the precision of ``image``.

    numpy 2 picks the loop of a forward FFT from its scale factor.  The
    default scale is the Python int 1, which selects the float64 loop, so
    a float32 image is transformed in float64 and the result rounded to
    complex64; that call holds three times the memory of the float32 loop
    and takes 2-4 times as long.  ``norm="forward"`` makes the scale a
    float32 ``1/n`` per axis, so the float32 loop runs, and multiplying by
    ``image.size`` restores the default scale, exactly when both sides are
    powers of two.  A float64 image takes the plain call, so its spectrum
    is unchanged bit for bit.
    """
    if image.dtype != np.float32:
        return np.fft.rfft2(image)
    spectrum = np.fft.rfft2(image, norm="forward")
    spectrum *= image.size
    return spectrum


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
    the gradient and one forward FFT of the new iterate's image, and
    ``R`` is also the trace's residual spectrum.  One sweep adds ``z``
    into the analysed gradient step and thresholds it into ``z``; FISTA
    then writes the next ``z`` over ``beta`` in three in-place passes.
    The sweep skips a block left all zero by both of FISTA's last two
    iterates (IST's last one), as ``z`` is zero there.  The analysis
    feeds the sweep band by band (``frame._analysis_steps``), each band
    shrunk while it is still in cache and then overwritten by the next, so
    the step is never a stack: FISTA holds two coefficient stacks
    (``beta`` and ``z``) and IST one, since its ``z`` is ``beta``.  The step
    ``s = 1 / max|OTF|^2`` is ``1/L`` for ``L`` the Lipschitz bound of
    the data-term gradient (the frame is Parseval, so ``||W|| = 1``); an
    OTF whose ``max|OTF|^2`` is not positive, or so small that ``s``
    overflows, is rejected, as it gives no step.  SALSA takes such an
    OTF: its inversion filter is then 0.
    """
    y = check_image("y", y)
    _check_half_spectrum(otf, y.shape)
    levels = frame.levels
    # an all-zero OTF, or one whose squares underflow, leaves no gradient step,
    # and one whose peak square is subnormal an infinite one
    peak = float(np.max(np.abs(otf) ** 2))
    check_real("max |OTF|^2", peak, "positive")
    step = 1.0 / peak
    check_real("gradient step 1 / max |OTF|^2", step)
    threshold = float(cfg.tau) * step

    def steps():
        # the gradient step's filter, applied to the residual spectrum: complex
        # (also for a real OTF) and in the working precision
        descent = (-step * np.conj(otf)).astype(np.result_type(y, np.complex64), copy=False)
        gradient_hat = np.empty_like(descent)
        y_hat = _spectrum(y)
        beta = analysis_bands(y, levels)
        # IST thresholds into beta itself; FISTA writes each iterate over
        # z and the next z over the previous iterate
        z = beta.copy() if momentum else beta
        # flags of the blocks of the last two iterates left all zero
        zero = zero_prev = _zero_blocks(beta)
        image = synthesis_bands(beta, levels)
        residual_z = residual = otf * _rfft2(image) - y_hat
        t = 1.0
        yield beta, _l1(beta), image, residual
        while True:
            t_next = fista_momentum(t) if momentum else 1.0
            w = (t - 1.0) / t_next
            t = t_next
            # each band of the step's analysis plus z's is z - step * grad,
            # thresholded into z as soon as the analysis writes it
            # the spectrum of -step * grad, formed from R in complex128, stored in
            # the working precision
            np.multiply(descent, residual_z, out=gradient_hat)
            bands = _analysis_steps(np.fft.irfft2(gradient_hat, s=y.shape), levels)
            if momentum:
                # z is +0.0 wherever both of the last two iterates are
                zero, zero_prev = [a and b for a, b in zip(zero, zero_prev)], zero
            l1 = _sweep(bands, z, threshold, zero)
            if momentum:
                # the next z, z + w (z - beta), over the previous iterate
                np.subtract(z, beta, out=beta)
                beta *= w
                beta += z
                beta, z = z, beta
            image = synthesis_bands(beta, levels, zero=_zero_bands(zero, beta.shape))
            residual_next = otf * _rfft2(image) - y_hat
            if w == 0.0:
                residual_z = residual_next
            else:
                residual_z = (1.0 + w) * residual_next - w * residual
            residual = residual_next
            yield beta, l1, image, residual

    beta, image, trace = _drive(steps(), cfg, isnr_fn, y.shape)
    return FrameCoeffs(levels, beta), image, trace

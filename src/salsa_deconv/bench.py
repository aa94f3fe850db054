"""Benchmark harness for the five standard deblurring experiments.

Synthesizes degraded observations (periodic blur plus seeded white
Gaussian noise), runs the requested solvers on the identical problem
instance, and collects objective traces, timings and ISNR into an
:class:`ExperimentReport`.  Writing a report to files is the command
line's job (:mod:`.cli`).

Images are on the [0, 255] intensity scale; the shipped noise variances
are only meaningful at that scale.  Noise is drawn from a PCG64 stream
via the Box-Muller transform, so a (seed, shape) pair pins the
observation bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_image, check_integer, check_real
from .convolution import BlurKind, _check_taps, apply_filter, build_psf, psf_to_otf
from .frame import FrameSpec
from .prox import Regularizer
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverTrace,
    fista_solve,
    ist_solve,
    salsa_solve,
)

__all__ = [
    "ExperimentSpec",
    "SolverResult",
    "ExperimentReport",
    "DEFAULT_EXPERIMENTS",
    "SOLVER_NAMES",
    "phantom",
    "degrade",
    "isnr",
    "run_experiment",
    "solve_observation",
]

SOLVER_NAMES = ("salsa", "ist", "fista")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one benchmark run.

    ``tau``, ``mu``, ``max_iters`` and ``rel_tol`` go unchanged into the
    :class:`SolverConfig` of every solve, which the spec builds at
    construction, so a bad setting fails there with that class's message.
    ``mu=None`` is its automatic penalty, which needs ``tau > 0`` whenever
    SALSA runs.  ``target_objective`` selects the stopping mode: ``None``
    stops on relative objective change (``rel_tol``), ``"auto"`` first
    computes a common target objective by running the augmented-Lagrangian
    solver with this experiment's own ``rel_tol`` stopping rule and then
    runs every requested solver until it reaches that value, and an
    explicit float is used as-is.  ``max_iters`` caps every run.
    ``solvers`` names at least one solver and each at most once, and
    ``seed``, the noise seed, is a nonnegative integer.  The frame (``levels``) and
    the blur (``blur_kind``, ``blur_size``, ``blur_sigma``) are also built
    at construction, so their settings fail there too.
    """

    id: str
    blur_kind: BlurKind
    noise_variance: float
    tau: float
    mu: float | None = None
    blur_size: int | None = None
    blur_sigma: float | None = None
    seed: int = 0
    levels: int = 4
    solvers: tuple[str, ...] = ("salsa",)
    rel_tol: float = 1e-4
    max_iters: int = 500
    target_objective: float | str | None = None

    def __post_init__(self) -> None:
        check_real("noise_variance", self.noise_variance, "nonnegative")
        if not self.solvers:
            raise ValueError("solvers must name at least one solver")
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise ValueError(f"unknown solver(s) {unknown}; choose from {SOLVER_NAMES}")
        repeated = sorted({s for s in self.solvers if self.solvers.count(s) > 1})
        if repeated:
            raise ValueError(f"solver(s) {repeated} requested more than once")
        check_integer("seed", self.seed, minimum=0)
        auto = self.target_objective == "auto"
        if isinstance(self.target_objective, str) and not auto:
            raise ValueError("target_objective must be a number, 'auto' or None")
        cfg = _solver_cfg(self, None if auto else self.target_objective)
        if auto or "salsa" in self.solvers:  # "auto" probes with SALSA
            cfg.resolved_mu()
        FrameSpec(self.levels)
        self.psf()

    def psf(self) -> np.ndarray:
        """The blur kernel's taps."""
        return build_psf(self.blur_kind, size=self.blur_size, sigma=self.blur_sigma)


def _solver_cfg(spec: ExperimentSpec, target: float | None) -> SolverConfig:
    return SolverConfig(tau=spec.tau, mu=spec.mu, max_iters=spec.max_iters,
                        rel_tol=spec.rel_tol, target_objective=target)


# Default tau per experiment: coarse grid search over {2**k * 1e-3, k=0..10}
# maximizing ISNR of the augmented-Lagrangian solver on the 256x256 phantom
# (scripts/tune_tau.py); the seeds are arbitrary but frozen.
DEFAULT_EXPERIMENTS: dict[str, ExperimentSpec] = {
    "1": ExperimentSpec(id="1", blur_kind=BlurKind.UNIFORM9,
                        noise_variance=0.56**2, tau=0.064, seed=1001),
    "2A": ExperimentSpec(id="2A", blur_kind=BlurKind.GAUSSIAN,
                         noise_variance=2.0, tau=0.032, seed=1002),
    "2B": ExperimentSpec(id="2B", blur_kind=BlurKind.GAUSSIAN,
                         noise_variance=8.0, tau=0.128, seed=1003),
    "3A": ExperimentSpec(id="3A", blur_kind=BlurKind.INVERSE_QUADRATIC,
                         noise_variance=2.0, tau=0.128, seed=1004),
    "3B": ExperimentSpec(id="3B", blur_kind=BlurKind.INVERSE_QUADRATIC,
                         noise_variance=8.0, tau=0.256, seed=1005),
}


@dataclass
class SolverResult:
    name: str
    objective: float | None = None
    iterations: int = 0
    seconds: float = 0.0
    isnr_db: float | None = None
    diverged: bool = False
    error: str | None = None
    reached_target: bool | None = None
    splitting_residual: float | None = None
    trace: SolverTrace = field(default_factory=SolverTrace)
    image: np.ndarray | None = field(default=None, repr=False)


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    input_sha256: str
    target_objective: float | None
    results: dict[str, SolverResult]


def phantom(size: int = 256) -> np.ndarray:
    """Deterministic piecewise-smooth test scene in [0, 255].

    A gradient background with rectangles, a disk, thin bars and a
    smooth bump; integer-valued so PGM round-trips are lossless.  Any
    size divisible by 16 works with the default 4-level frame.
    """
    check_integer("phantom size", size, minimum=16)
    t = np.arange(size) / size
    xx, yy = np.meshgrid(t, t, indexing="ij")
    img = 40.0 + 110.0 * yy + 30.0 * xx

    def box(r0, r1, c0, c1, value):
        img[int(r0 * size):int(r1 * size), int(c0 * size):int(c1 * size)] = value

    box(0.10, 0.35, 0.12, 0.45, 205.0)
    box(0.55, 0.90, 0.58, 0.72, 25.0)
    box(0.62, 0.68, 0.10, 0.50, 230.0)       # horizontal bar
    box(0.15, 0.85, 0.80, 0.835, 170.0)      # vertical bar
    rr = (xx - 0.42) ** 2 + (yy - 0.68) ** 2
    img[rr < 0.02] = 95.0
    img += 50.0 * np.exp(-((xx - 0.75) ** 2 + (yy - 0.25) ** 2) / 0.01)
    img += 12.0 * np.sin(2.0 * np.pi * 8.0 * xx) * (yy > 0.92)
    return np.rint(np.clip(img, 0.0, 255.0))


def degrade(x: np.ndarray, blur: np.ndarray, noise_variance: float, seed: int) -> np.ndarray:
    """Observation model: periodic blur by the taps ``blur`` plus seeded white Gaussian noise.

    Noise generation is frozen for reproducibility: a PCG64 stream
    seeded with ``seed`` yields two uniform draws per pixel, combined by
    Box-Muller as ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``.  ``seed`` is a
    nonnegative integer and ``noise_variance`` a finite nonnegative number,
    as in :class:`ExperimentSpec`; ``x`` is a finite 2-D image and ``blur``
    finite taps with odd sides.
    """
    check_real("noise_variance", noise_variance, "nonnegative")
    check_integer("seed", seed, minimum=0)
    x = check_image("x", x)
    taps = _check_taps(blur)
    if taps.size == 1:
        y = x * taps[0, 0]  # a 1x1 kernel scales: skip the FFT round-trip
    else:
        y = apply_filter(psf_to_otf(taps, x.shape), x)
    if noise_variance > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        u1 = rng.random(x.size)
        u2 = rng.random(x.size)
        normal = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        y = y + math.sqrt(noise_variance) * normal.reshape(x.shape)
    return y


def isnr(x_true: np.ndarray, y: np.ndarray, x_hat: np.ndarray) -> float:
    """Improvement in SNR, 10*log10(||y - x||^2 / ||x_hat - x||^2), in dB.

    Positive iff the reconstruction is closer to the truth than the
    observation; ``inf`` for a perfect one, else ``-inf`` when ``y == x``.
    Each image must be real, 2-D, not empty and finite.
    """
    x_true, y = check_image("x_true", x_true), check_image("y", y)
    x_hat = check_image("x_hat", x_hat)
    if x_true.shape != y.shape or x_true.shape != x_hat.shape:
        raise ValueError(
            f"shape mismatch: x {x_true.shape}, y {y.shape}, x_hat {x_hat.shape}"
        )
    return _isnr_db(_squared_distance(y, x_true), x_true, x_hat)


def _isnr_db(ref: float, x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """:func:`isnr` given its reference energy ``ref = ||y - x||^2``."""
    err = _squared_distance(x_hat, x_true)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(ref / err) if ref > 0.0 else -math.inf


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||^2``, summed in float64 also for float32 images."""
    return float(((a - b) ** 2).sum(dtype=np.float64))


def _input_digest(y: np.ndarray, otf: np.ndarray, tau: float, levels: int) -> str:
    h = hashlib.sha256()
    h.update(y.tobytes())
    h.update(otf.tobytes())
    h.update(struct.pack("<dq", tau, levels))
    return h.hexdigest()


def _run_one(name: str, y, otf, frame, reg, cfg, isnr_fn) -> SolverResult:
    # looked up at each call, so a solver wrapped in this module by name is the one called
    solve = {"salsa": salsa_solve, "ist": ist_solve, "fista": fista_solve}[name]
    try:
        _, image, trace = solve(y, otf, frame, reg, cfg, isnr_fn=isnr_fn)
    except DivergenceError as exc:
        return SolverResult(name=name, diverged=True, error=str(exc))
    final = trace.final
    reached = None if cfg.target_objective is None else final.objective <= cfg.target_objective
    return SolverResult(name=name, objective=final.objective, iterations=final.iteration,
                        seconds=final.elapsed_s, isnr_db=final.isnr_db, reached_target=reached,
                        splitting_residual=trace.splitting_residual, trace=trace, image=image)


def solve_observation(y: np.ndarray, spec: ExperimentSpec,
                      x_true: np.ndarray | None = None) -> ExperimentReport:
    """Run every solver requested by ``spec`` on an existing observation.

    All solvers see the identical observation, regularization weight and
    frame; a SHA-256 digest of those inputs (observation, OTF, tau and
    frame levels) goes into the report so a comparison can assert it was
    fair.  Solver divergence is recorded in the result rather than
    raised; when the probe that sets an ``"auto"`` target diverges, every
    solver is recorded as diverged with the probe's error and the target
    stays ``None``.  ISNR is only tracked when the ground truth ``x_true``
    is supplied.  A ``y`` or ``x_true`` that is not a 2-D image or holds NaN
    or inf raises ``ValueError`` before any solve.

    The ``"auto"`` probe is SALSA's own solve under ``rel_tol``.  When its
    objective first reaches its final value at its last record, a SALSA
    solve stopped at that target would stop there too, so the probe is
    reported as SALSA's result instead of solving again.
    """
    y = check_image("y", y)
    otf = psf_to_otf(spec.psf(), y.shape)
    frame = FrameSpec(spec.levels)
    reg = Regularizer()

    isnr_fn = None
    if x_true is not None:
        truth = check_image("x_true", x_true)
        if truth.shape != y.shape:
            raise ValueError(f"shape mismatch: x {truth.shape}, y {y.shape}")
        ref = _squared_distance(y, truth)
        isnr_fn = lambda image: _isnr_db(ref, truth, image)

    target: float | None = None
    probe_error = None
    salsa_result = None
    if spec.target_objective == "auto":
        reuse = "salsa" in spec.solvers
        probe = _run_one("salsa", y, otf, frame, reg, _solver_cfg(spec, None),
                         isnr_fn if reuse else None)
        if probe.diverged:
            probe_error = f"target probe diverged: {probe.error}"
        else:
            target = probe.objective
            if reuse and all(r.objective > target for r in probe.trace.records[:-1]):
                probe.reached_target = True
                salsa_result = probe
    elif spec.target_objective is not None:
        target = float(spec.target_objective)

    results: dict[str, SolverResult] = {}
    for name in spec.solvers:
        if name == "salsa" and salsa_result is not None:
            results[name] = salsa_result
        elif probe_error is not None:
            results[name] = SolverResult(name=name, diverged=True, error=probe_error)
        else:
            results[name] = _run_one(name, y, otf, frame, reg, _solver_cfg(spec, target),
                                     isnr_fn)

    return ExperimentReport(
        spec=spec,
        input_sha256=_input_digest(y, otf, spec.tau, spec.levels),
        target_objective=target,
        results=results,
    )


def run_experiment(spec: ExperimentSpec, x_true: np.ndarray) -> ExperimentReport:
    """Degrade ``x_true`` per the spec, then solve the resulting problem."""
    # a float32 truth still runs in float64: check_image keeps its precision
    x_true = check_image("x_true", x_true).astype(float, copy=False)
    y = degrade(x_true, spec.psf(), spec.noise_variance, spec.seed)
    return solve_observation(y, spec, x_true=x_true)

"""Frame-based image deconvolution by augmented-Lagrangian splitting.

The pieces: FFT-domain circular blur operators (:mod:`.convolution`), a
Parseval redundant Haar frame (:mod:`.frame`), l1 proximal maps
(:mod:`.prox`), the splitting solver plus shrinkage baselines
(:mod:`.solver`), a reproducible benchmark harness (:mod:`.bench`) and a
PGM command-line front end that writes a run's artifacts (:mod:`.cli`).
"""

from .bench import (
    DEFAULT_EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    SolverResult,
    degrade,
    isnr,
    phantom,
    run_experiment,
    solve_observation,
)
from .convolution import (
    BlurKind,
    apply_filter,
    build_inversion_filter,
    build_psf,
    psf_to_otf,
)
from .frame import FrameCoeffs, FrameSpec
from .prox import Regularizer, prox
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverTrace,
    TraceRecord,
    fista_solve,
    ist_solve,
    salsa_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BlurKind",
    "build_psf",
    "psf_to_otf",
    "apply_filter",
    "build_inversion_filter",
    "FrameSpec",
    "FrameCoeffs",
    "Regularizer",
    "prox",
    "DivergenceError",
    "SolverConfig",
    "TraceRecord",
    "SolverTrace",
    "salsa_solve",
    "ist_solve",
    "fista_solve",
    "ExperimentSpec",
    "SolverResult",
    "ExperimentReport",
    "DEFAULT_EXPERIMENTS",
    "phantom",
    "degrade",
    "isnr",
    "run_experiment",
    "solve_observation",
    "__version__",
]

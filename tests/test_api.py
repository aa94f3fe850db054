import importlib
import math
import re

import numpy as np
import pytest

import salsa_deconv
from salsa_deconv import (
    BlurKind,
    ExperimentSpec,
    FrameSpec,
    SolverConfig,
    apply_filter,
    build_inversion_filter,
    build_psf,
    degrade,
    isnr,
    phantom,
    prox,
    psf_to_otf,
    run_experiment,
)
from salsa_deconv.cli import write_image
from salsa_deconv.frame import analysis_bands, synthesis_bands

# Each module's ``__all__``, pinned the same way as the package's.
MODULE_ALL = {
    "bench": ["ExperimentSpec", "SolverResult", "ExperimentReport", "DEFAULT_EXPERIMENTS",
              "SOLVER_NAMES", "phantom", "degrade", "isnr", "run_experiment",
              "solve_observation"],
    "cli": ["PgmError", "read_image", "write_image", "parse_args", "main"],
    "convolution": ["BlurKind", "build_psf", "psf_to_otf", "apply_filter",
                    "build_inversion_filter"],
    "frame": ["FrameSpec", "FrameCoeffs", "analysis_bands", "synthesis_bands"],
    "prox": ["Regularizer", "prox"],
    "solver": ["DivergenceError", "SolverConfig", "TraceRecord", "SolverTrace",
               "salsa_solve", "ist_solve", "fista_solve"],
}
MODULES = tuple(MODULE_ALL)

# The package's public surface: what the solvers, the benchmark harness and
# the CLI need.  A name added here is a decision, not drift.
PUBLIC = [
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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"salsa_deconv.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"salsa_deconv.{name}.__all__ names undefined {missing}"


def test_package_surface_is_pinned():
    assert [a for a in salsa_deconv.__all__ if not hasattr(salsa_deconv, a)] == []
    assert salsa_deconv.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_module_surface_is_pinned(name):
    assert importlib.import_module(f"salsa_deconv.{name}").__all__ == MODULE_ALL[name]


# Every public entry that takes a number from outside, by the argument it checks.
_X = phantom(16)
_PSF = build_psf(BlurKind.UNIFORM9, size=3)
ENTRIES = {
    "SolverConfig(max_iters)": lambda v: SolverConfig(tau=0.1, max_iters=v),
    "SolverConfig(tau)": lambda v: SolverConfig(tau=v),
    "SolverConfig(mu)": lambda v: SolverConfig(tau=0.1, mu=v),
    "SolverConfig(rel_tol)": lambda v: SolverConfig(tau=0.1, rel_tol=v),
    "SolverConfig(target_objective)": lambda v: SolverConfig(tau=0.1, target_objective=v),
    "ExperimentSpec(seed)": lambda v: ExperimentSpec(
        id="t", blur_kind=BlurKind.UNIFORM9, noise_variance=1.0, tau=0.1, seed=v),
    "ExperimentSpec(noise_variance)": lambda v: ExperimentSpec(
        id="t", blur_kind=BlurKind.UNIFORM9, noise_variance=v, tau=0.1),
    "FrameSpec(levels)": FrameSpec,
    "build_psf(size)": lambda v: build_psf(BlurKind.UNIFORM9, size=v),
    "build_psf(sigma)": lambda v: build_psf(BlurKind.GAUSSIAN, sigma=v),
    "phantom(size)": phantom,
    "degrade(seed)": lambda v: degrade(_X, _PSF, 1.0, v),
    "degrade(noise_variance)": lambda v: degrade(_X, _PSF, v, 0),
    "build_inversion_filter(mu)": lambda v: build_inversion_filter(psf_to_otf(_PSF, (16, 16)), v),
    "write_image(pixel)": lambda v: write_image(np.array([[v, 1.0]]), "unwritten.pgm"),
    "psf_to_otf(taps)": lambda v: psf_to_otf(np.array([[0.25, v, 0.25]]), (16, 16)),
    "psf_to_otf(shape)": lambda v: psf_to_otf(_PSF, v),
    "apply_filter(image)": lambda v: apply_filter(psf_to_otf(_PSF, (16, 16)), v),
    "degrade(x)": lambda v: degrade(v, _PSF, 1.0, 0),
    "isnr(x_true)": lambda v: isnr(v, _X, _X),
    "analysis_bands(image)": lambda v: analysis_bands(v, 3),
    # at the levels whose band count the stack has
    "synthesis_bands(bands)": lambda v: synthesis_bands(v, (len(v) - 1) // 3),
    "analysis_bands(levels)": lambda v: analysis_bands(_X, v),
    "synthesis_bands(levels)": lambda v: synthesis_bands(np.zeros((13, 16, 16)), v),
    "build_inversion_filter(otf)": lambda v: build_inversion_filter(v, 0.5),
    "prox(values)": lambda v: prox(v, 0.5),
    "run_experiment(x_true)": lambda v: run_experiment(ExperimentSpec(
        id="t", blur_kind=BlurKind.UNIFORM9, noise_variance=1.0, tau=0.1), v),
}


def _integer_cases(entry, name, below_minimum):
    """The integer rule's five rejections; ``below_minimum`` is the message for -1."""
    return [(entry, True, f"{name} must be an integer, got True"),
            (entry, 2.5, f"{name} must be an integer, got 2.5"),
            (entry, -1, below_minimum),
            (entry, math.nan, f"{name} must be an integer, got nan"),
            (entry, math.inf, f"{name} must be an integer, got inf")]


def _finite_cases(entry, name, negative):
    """A real setting's rejections: -1 (``negative``'s message, if -1 is rejected), nan,
    inf, and a str and a bool, which are not real numbers."""
    cases = [(entry, math.nan, f"{name} must be finite, got nan"),
             (entry, math.inf, f"{name} must be finite, got inf"),
             # else numpy's TypeError, which names no setting (True was accepted)
             (entry, "1", f"{name} must be a real number, got '1'"),
             (entry, True, f"{name} must be a real number, got True")]
    return cases if negative is None else [(entry, -1, negative), *cases]


REJECTED = [
    *_integer_cases("SolverConfig(max_iters)", "max_iters", "max_iters must be >= 1, got -1"),
    *_finite_cases("SolverConfig(tau)", "tau", "tau must be nonnegative, got -1"),
    # None means "not set" to mu, target_objective and sigma, but tau has no default
    ("SolverConfig(tau)", None, "tau must be a real number, got None"),
    *_finite_cases("SolverConfig(mu)", "mu", "mu must be positive, got -1"),
    *_finite_cases("SolverConfig(rel_tol)", "rel_tol", "rel_tol must be nonnegative, got -1"),
    *_finite_cases("SolverConfig(target_objective)", "target_objective", None),
    *_integer_cases("ExperimentSpec(seed)", "seed", "seed must be >= 0, got -1"),
    *_finite_cases("ExperimentSpec(noise_variance)", "noise_variance",
                   "noise_variance must be nonnegative, got -1"),
    *_integer_cases("FrameSpec(levels)", "levels", "levels must be >= 1, got -1"),
    *_integer_cases("build_psf(size)", "kernel size", "kernel size must be odd and >= 1, got -1"),
    *_finite_cases("build_psf(sigma)", "gaussian sigma",
                   "gaussian sigma must be positive, got -1"),
    *_integer_cases("phantom(size)", "phantom size", "phantom size must be >= 16, got -1"),
    *_integer_cases("degrade(seed)", "seed", "seed must be >= 0, got -1"),  # else truncated
    *_finite_cases("degrade(noise_variance)", "noise_variance",
                   "noise_variance must be nonnegative, got -1"),
    # else an all-NaN filter for nan and an all-zero one for inf
    *_finite_cases("build_inversion_filter(mu)", "mu", "mu must be positive, got -1"),
    ("write_image(pixel)", math.nan, "image holds NaN or inf values"),  # else byte 0
    ("write_image(pixel)", math.inf, "image holds NaN or inf values"),
    # else an all-NaN OTF for nan and numpy's RuntimeWarning for inf
    ("psf_to_otf(taps)", math.nan, "kernel taps holds NaN or inf values"),
    ("psf_to_otf(taps)", math.inf, "kernel taps holds NaN or inf values"),
    # else numpy's "'float' object cannot be interpreted as an integer", an unpack
    # error, and "kernel support 3x3 exceeds image shape Truex16"
    ("psf_to_otf(shape)", (16.0, 16), "image height must be an integer, got 16.0"),
    ("psf_to_otf(shape)", (16, 16, 3), "image shape must be two integers, got (16, 16, 3)"),
    ("psf_to_otf(shape)", (True, 16), "image height must be an integer, got True"),
    ("psf_to_otf(shape)", (16, 0), "image width must be >= 1, got 0"),
    # else "'list' object has no attribute 'shape'" and an unpack error
    ("apply_filter(image)", [1.0, 2.0], "image must be a 2-D image, got shape (2,)"),
    ("apply_filter(image)", np.ones(3), "image must be a 2-D image, got shape (3,)"),
    # else a (13, 0, 16) stack; the 1-D message was "expected a 2-D image, got ndim=1"
    ("analysis_bands(image)", np.zeros((0, 16)), "image is empty, got shape (0, 16)"),
    ("analysis_bands(image)", np.zeros(16), "image must be a 2-D image, got shape (16,)"),
    ("analysis_bands(image)", np.zeros((18, 16)),
     "image dimensions 18x16 must be divisible by 2**levels = 8"),
    # else a 3x3 image and a (0, 16) one, shapes the analysis rejects
    ("synthesis_bands(bands)", np.zeros((4, 3, 3)),
     "band dimensions 3x3 must be divisible by 2**levels = 2"),
    ("synthesis_bands(bands)", np.zeros((13, 0, 16)), "band is empty, got shape (0, 16)"),
    # else an uninitialized (1, 16, 16) stack for 0 and one level for True, a bare
    # TypeError for 2.5 and "negative shift count" for -1
    *_integer_cases("analysis_bands(levels)", "levels", "levels must be >= 1, got -1"),
    ("analysis_bands(levels)", 0, "levels must be >= 1, got 0"),
    # else band counts such as "expected 8.5 stacked subbands" for 2.5
    *_integer_cases("synthesis_bands(levels)", "levels", "levels must be >= 1, got -1"),
    ("synthesis_bands(levels)", 0, "levels must be >= 1, got 0"),
    # else NaN gains for the NaN bin
    ("build_inversion_filter(otf)", np.array([[math.nan, 1.0]]), "filter holds NaN or inf values"),
    # complex input: else numpy's ComplexWarning, and the imaginary part dropped
    ("write_image(pixel)", 1 + 2j, "image must be real, got complex128"),
    ("psf_to_otf(taps)", 0.5j, "kernel taps must be real, got complex128"),
    ("apply_filter(image)", _X * (1 + 2j), "image must be real, got complex128"),
    ("degrade(x)", _X * (1 + 2j), "x must be real, got complex128"),
    ("isnr(x_true)", _X * (1 + 2j), "x_true must be real, got complex128"),
    ("analysis_bands(image)", _X * (1 + 2j), "image must be real, got complex128"),
    ("synthesis_bands(bands)", np.zeros((4, 16, 16), np.complex64),
     "bands must be real, got complex64"),
    # prox thresholded the real part and kept the imaginary one: [0.5+1j, 0j]
    ("prox(values)", np.array([1 + 1j, 0.1]), "values must be real, got complex128"),
    ("run_experiment(x_true)", _X * (1 + 2j), "x_true must be real, got complex128"),
]


def _case_id(entry, value):
    """``entry=repr(value)``; an array whose repr spans lines goes by dtype and shape."""
    text = repr(value)
    if "\n" in text:
        text = f"{value.dtype}{value.shape}"
    return f"{entry}={text}"


@pytest.mark.parametrize("entry, value, message", REJECTED,
                         ids=[_case_id(entry, value) for entry, value, _ in REJECTED])
def test_public_entries_reject_bad_numbers(entry, value, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a write_image that fails to reject writes here
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRIES[entry](value)
    assert not (tmp_path / "unwritten.pgm").exists()

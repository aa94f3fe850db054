import importlib

import pytest

import salsa_deconv

# Each module's ``__all__``, pinned the same way as the package's.
MODULE_ALL = {
    "bench": ["ExperimentSpec", "SolverResult", "ExperimentReport", "DEFAULT_EXPERIMENTS",
              "SOLVER_NAMES", "phantom", "degrade", "isnr", "run_experiment",
              "solve_observation", "export_trace", "export_report", "report_summary"],
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
    "export_trace",
    "export_report",
    "report_summary",
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

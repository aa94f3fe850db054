"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints one ``PASS:``/``FAIL:`` line (visible under
``pytest -v -s tests/test_acceptance.py``) and fails if its numerical
bound or its runtime budget is violated.  Timing-sensitive tests assume
an otherwise idle machine.
"""

import contextlib
import csv
import io
import json
import time
from dataclasses import replace

import numpy as np

from oracles import (
    data_gradient,
    dense_analysis_matrix,
    dense_blur_matrix,
    direct_convolve,
    grid_prox_objective,
    subgradient_residual,
)

from salsa_deconv import (
    DEFAULT_EXPERIMENTS,
    BlurKind,
    FrameSpec,
    Regularizer,
    SolverConfig,
    apply_filter,
    build_inversion_filter,
    build_psf,
    degrade,
    fista_solve,
    ist_solve,
    phantom,
    prox,
    psf_to_otf,
    run_experiment,
    salsa_solve,
)
from salsa_deconv.cli import main
from salsa_deconv.frame import analysis_bands, synthesis_bands
from salsa_deconv.solver import _quadratic_step


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
    except BaseException:
        print(f"\nFAIL: criterion {number} - {title}")
        raise
    bound = f" < {budget_s:.0f}s" if budget_s is not None else ""
    print(f"\nPASS: criterion {number} - {title} ({elapsed:.1f}s{bound})")


# ---------------------------------------------------------------------------
# 1. frame round-trip and adjoint identities


def test_criterion_1_frame_identities():
    with criterion(1, "frame round-trip and adjoint identities", 5.0):
        rng = np.random.default_rng(1001)
        sides = (16, 32, 48, 64)
        for case in range(100):
            side = sides[case % len(sides)]
            levels = 1 + (case // len(sides)) % 4
            x = rng.standard_normal((side, side))

            roundtrip = synthesis_bands(analysis_bands(x, levels), levels)
            assert np.abs(roundtrip - x).max() <= 1e-10

            c = rng.standard_normal((3 * levels + 1, side, side))
            lhs = float(np.vdot(analysis_bands(x, levels), c))
            rhs = float(np.vdot(x, synthesis_bands(c, levels)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# 2. quadratic subproblem matches a dense solve


def test_criterion_2_dense_subproblem():
    with criterion(2, "quadratic subproblem matches dense solve", 10.0):
        side, levels = 8, 1
        psf = build_psf(BlurKind.UNIFORM9, size=3)
        otf = psf_to_otf(psf, (side, side))

        a_mat = dense_analysis_matrix(side, levels)
        ha = dense_blur_matrix(psf, side) @ a_mat.T
        gram = ha.T @ ha

        rng = np.random.default_rng(1002)
        for mu in (0.01, 0.1, 1.0, 10.0):
            q = gram + mu * np.eye(gram.shape[0])
            filt = build_inversion_filter(otf, mu)
            for _ in range(20):
                r = rng.standard_normal((3 * levels + 1, side, side))
                want = np.linalg.solve(q, r.ravel())
                # the solver's quadratic step without the Ht y it carries
                # (A = 0), at Theta = V = the spectrum of W r / mu
                c_hat = np.fft.rfft2(synthesis_bands(r, levels)) / mu
                g_hat = _quadratic_step(0.0, c_hat, c_hat, filt, np.empty_like(c_hat))
                g = np.fft.irfft2(g_hat, s=r.shape[1:])
                got = (r / mu + analysis_bands(g, levels)).ravel()
                denom = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= 1e-8 * denom


# ---------------------------------------------------------------------------
# 3. soft threshold matches grid search


def test_criterion_3_prox_grid():
    with criterion(3, "soft threshold matches scalar grid search", 5.0):
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            a = float(rng.normal(scale=2.0))
            t = float(np.abs(rng.normal(scale=1.0))) + 1e-3
            got = float(prox(np.array([a]), t)[0])

            span = abs(a) + 2.0 * t + 1.0
            grid = np.linspace(-span, span, 601)
            vals = grid_prox_objective(a, t, grid)
            best = grid[int(np.argmin(vals))]
            pitch = grid[1] - grid[0]

            # the grid argmin is only accurate to its pitch; the sharp
            # comparison is in objective value
            assert abs(got - best) <= pitch + 1e-12
            got_val = 0.5 * (got - a) ** 2 + t * abs(got)
            assert got_val <= vals.min() + 1e-8


# ---------------------------------------------------------------------------
# 4. cross-solver consensus with optimality certificates


def test_criterion_4_solver_consensus():
    with criterion(4, "solver consensus with optimality certificates", 60.0):
        x = phantom(32)
        levels = 1
        frame = FrameSpec(levels)
        reg = Regularizer()
        # mild 3x3 member of each blur family; tau large enough that the
        # solution is sparse with strict complementarity margins, so all
        # three solvers can certify optimality in bounded budgets.  The
        # splitting solver certifies fastest with mu well below the 0.1*tau
        # reconstruction heuristic (absolute mu near the blur spectrum's
        # geometric mean); mu = 0.003*tau crosses 1e-3*tau within ~1k
        # iterations here where 0.1*tau needs >20k.
        cases = [
            (BlurKind.UNIFORM9, None, 50.0),
            (BlurKind.GAUSSIAN, 0.6, 20.0),
            (BlurKind.INVERSE_QUADRATIC, None, 20.0),
        ]
        solvers = {"salsa": salsa_solve, "ist": ist_solve, "fista": fista_solve}
        budgets = {"salsa": 4000, "ist": 12000, "fista": 3000}
        for kind, sigma, tau in cases:
            psf = build_psf(kind, size=3, sigma=sigma)
            y = degrade(x, psf, 1.0, 7)
            otf = psf_to_otf(psf, y.shape)
            objectives = {}
            for name, solver in solvers.items():
                mu = 0.003 * tau if name == "salsa" else None
                cfg = SolverConfig(tau=tau, mu=mu, max_iters=budgets[name],
                                   rel_tol=0.0)
                coeffs, _, trace = solver(y, otf, frame, reg, cfg)
                res = subgradient_residual(
                    coeffs.bands, data_gradient(y, otf, levels, coeffs.bands), tau)
                assert res <= 1e-3 * tau, (
                    f"{name} residual {res / tau:.2e}*tau on {kind.value}")
                objectives[name] = trace.final.objective
            spread = max(objectives.values()) - min(objectives.values())
            assert spread <= 1e-3 * min(objectives.values()), (
                f"objective spread {spread:.3e} on {kind.value}: {objectives}")


# ---------------------------------------------------------------------------
# 5. speed gate against both baselines


def test_criterion_5_speed_gate():
    with criterion(5, "splitting solver 3x faster to the common target", 120.0):
        # common target = objective reached by the splitting solver under a
        # 1e-3 relative-change stop; every solver then runs to that value
        spec = replace(DEFAULT_EXPERIMENTS["1"], solvers=("salsa", "fista", "ist"),
                       rel_tol=1e-3, max_iters=4000, target_objective="auto")
        t0 = time.perf_counter()
        report = run_experiment(spec, phantom(256))
        # solver work next to the run's wall time: a budget miss then
        # shows whether the solvers or their bookkeeping grew
        print(f"\ncriterion 5 run: {time.perf_counter() - t0:.1f}s wall; " + ", ".join(
            f"{name} {r.iterations} it / {r.seconds:.2f}s work"
            for name, r in report.results.items()))
        for name, result in report.results.items():
            assert not result.diverged, name
            assert result.reached_target, (
                f"{name} missed target {report.target_objective:.6g} "
                f"(objective {result.objective:.6g})")
        fast = report.results["salsa"].seconds
        for baseline in ("fista", "ist"):
            slow = report.results[baseline].seconds
            assert fast <= slow / 3.0, (
                f"salsa {fast:.2f}s vs {baseline} {slow:.2f}s: ratio "
                f"{slow / max(fast, 1e-12):.2f} < 3")


# ---------------------------------------------------------------------------
# 6. reconstruction quality on all five experiments


def test_criterion_6_reconstruction_quality():
    with criterion(6, "positive ISNR and tight splitting residual", 300.0):
        x = phantom(256)
        for exp_id, spec in DEFAULT_EXPERIMENTS.items():
            report = run_experiment(spec, x)
            result = report.results["salsa"]
            assert not result.diverged, exp_id
            assert result.isnr_db is not None and result.isnr_db > 0.0, (
                f"experiment {exp_id}: ISNR {result.isnr_db}")
            assert result.splitting_residual is not None
            assert result.splitting_residual <= 1e-2, (
                f"experiment {exp_id}: splitting residual "
                f"{result.splitting_residual:.3e}")


# ---------------------------------------------------------------------------
# 7. bitwise-deterministic traces


def _trace_rows_without_elapsed(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "elapsed_s", "objective", "isnr_db"]
    return [[row[0], row[2], row[3]] for row in rows]


def _report_without_timings(path):
    doc = json.loads(path.read_text())
    for block in doc["solvers"].values():
        del block["seconds"], block["phase_s"]
    return doc


def test_criterion_7_trace_determinism(tmp_path):
    with criterion(7, "run artifacts are bitwise deterministic"):
        # experiment 2B on the built-in 256x256 phantom, twice
        outs = [tmp_path / run for run in ("a", "b")]
        for out in outs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--experiment", "2B", "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["2B_report.json", "2B_salsa.pgm", "2B_salsa_trace.csv"]
        assert sorted(p.name for p in outs[1].iterdir()) == names
        first, second = (out / "2B_salsa_trace.csv" for out in outs)
        assert _trace_rows_without_elapsed(first) == _trace_rows_without_elapsed(second)
        first, second = (out / "2B_salsa.pgm" for out in outs)
        assert first.read_bytes() == second.read_bytes()
        first, second = (out / "2B_report.json" for out in outs)
        assert _report_without_timings(first) == _report_without_timings(second)


# ---------------------------------------------------------------------------
# 8. FFT blur matches direct periodic convolution


def test_criterion_8_convolution_oracle():
    with criterion(8, "FFT blur matches direct periodic convolution"):
        rng = np.random.default_rng(1008)
        kernels = (
            build_psf(BlurKind.UNIFORM9),
            build_psf(BlurKind.GAUSSIAN),
            build_psf(BlurKind.INVERSE_QUADRATIC),
        )
        for side in (16, 32):
            images = (phantom(side), rng.standard_normal((side, side)))
            for psf in kernels:
                otf = psf_to_otf(psf, (side, side))
                for img in images:
                    fft_blur = apply_filter(otf, img)
                    direct = direct_convolve(img, psf)
                    assert np.abs(fft_blur - direct).max() <= 1e-9

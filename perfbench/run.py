#!/usr/bin/env python3
"""Time to solution of the salsa-deconv solvers, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-table-256 [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics from a traced pass, next to an untraced pass
of the same inputs that gives the tracing overhead.  The end-to-end times
are calibrated seconds (``calibrate.py``): wall time scaled, every 0.2 s,
by how fast a fixed probe runs at that moment, so that the drift of a
shared host's speed cancels out.  Without ``--seed``
every experiment keeps its frozen seed (1001-1005), so the numbers line
up with the test suite; any seed re-seeds every experiment.

Each run sets up its inputs several times and reports the median set-up
time, then repeats the solve phase while another pass fits in
``--seconds`` (always at least one) and reports medians over the passes.
Results, machine details and, for traced runs, every span are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
PACKAGE = "salsa_deconv"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9

SOLVERS = {"salsa": "solver.salsa_solve", "fista": "solver.fista_solve",
           "ist": "solver.ist_solve"}
LAYERS = (
    "frame.analysis_bands", "frame.synthesis_bands",
    "convolution.apply_filter", "convolution.adjoint_filter",
    "convolution.build_inversion_filter", "convolution.psf_to_otf",
    "prox.prox", "prox.objective",
    "bench.isnr", "bench.degrade", "bench.export_trace", "bench.export_report",
    "cli.read_image", "cli.write_image",
)
BYTE_LAYERS = ("frame.analysis_bands", "frame.synthesis_bands", "convolution.apply_filter")


def cap_threads(nproc: int) -> None:
    """Limit BLAS/OpenMP pools to ``nproc`` threads; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def machine_info(nproc: int) -> dict:
    import numpy as np

    caches = {}
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        for label, code in (("L1d", 188), ("L2", 191), ("L3", 194)):
            caches[label] = libc.sysconf(code)
    except (OSError, AttributeError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    fft = ("pocketfft" if importlib.util.find_spec("numpy.fft._pocketfft_umath")
           else "unknown")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft": fft,
        "cache_bytes": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def source_digest() -> str:
    """sha256 over the package sources; a change to the program starts new count records."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def keep_final(args, kwargs, result):
    """An untraced pass keeps only the solver's last trace record of each solve."""
    return result[2].final, None


def keep_problem(target: str):
    """A traced pass also keeps each solve's problem and coefficients, for ``opt_residual``."""
    module_name, _, attr = target.rpartition(".")
    fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
    signature = inspect.signature(fn)

    def extract(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        coeffs, _, trace = result
        return trace.final, (bound["y"], bound["otf"], coeffs.levels, coeffs.bands,
                             bound["cfg"].tau)

    return extract


def opt_residual(y, otf, levels: int, bands, tau: float) -> float:
    """Largest violation of the l1 optimality condition at ``bands``, in units of tau.

    The certificate is the test suite's (``tests/oracles.py``).  It is
    imported here, after the traced pass has restored the package, so that
    only traced runs depend on it.
    """
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    from oracles import data_gradient, subgradient_residual

    return subgradient_residual(bands, data_gradient(y, otf, levels, bands), tau) / tau


class Runner:
    """One benchmark run of one workload: set-up, passes, checks, metrics."""

    def __init__(self, workload, seed: int | None):
        self.workload = workload
        self.seed = seed
        self.scratch = OUT / workload.name
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self, clock) -> tuple[object, list[float]]:
        """Set up ``SETUP_REPEATS`` times; returns the last state and each time by ``clock``."""
        # Every state stays alive until the last set-up, so each repeat
        # works in fresh memory instead of reusing the previous repeat's
        # pages; the median then spreads less from process to process.
        states, times = [], []
        for _ in range(SETUP_REPEATS):
            c0 = clock()
            states.append(self.workload.setup(self.seed, self.scratch))
            times.append(clock() - c0)
        return states[-1], times

    def solve(self, state, tracer, targets, keep: dict, clock=None, **patch) -> dict:
        """One pass of the solve phase.

        With a calibrated ``clock`` the pass also reports ``solve_s`` in
        calibrated seconds, and ``wall_s`` leaves out the probes' time.
        """
        with tracer.patched(PACKAGE, list(targets), keep=keep, **patch):
            c0, p0 = (clock.now(), clock.probe_s) if clock else (0.0, 0.0)
            t0 = time.perf_counter()
            outputs = self.workload.solve(state)
            t1 = time.perf_counter()
            c1, p1 = (clock.now(), clock.probe_s) if clock else (0.0, 0.0)
        probe_s = p1 - p0
        scored = self.score(state, outputs, tracer, t0, t1)
        return {**scored, "wall_s": scored["wall_s"] - probe_s, "solve_s": c1 - c0,
                "probe_s": probe_s}

    def score(self, state, outputs, tracer, t0: float, t1: float) -> dict:
        outcomes = self.workload.evaluate(state, outputs)
        for o in outcomes:
            self.attempted += 1
            if o.failures:
                self.failed += 1
                self.failures += [f"{o.problem}/{o.solver}: {f}" for f in o.failures]
        # span_s is in the tracer's clock: calibrated seconds in untraced passes
        solvers = {name: {"calls": 0, "span_s": 0.0, "iterations": 0, "work_s": 0.0,
                          "opt_residual": 0.0} for name in SOLVERS}
        sequence = []
        for kept in tracer.kept:
            name = next(n for n, t in SOLVERS.items() if t == kept.name)
            final, problem = kept.value
            stat = solvers[name]
            stat["calls"] += 1
            stat["span_s"] += tracer.spans[kept.span].duration
            stat["iterations"] += final.iteration
            stat["work_s"] += final.elapsed_s
            if problem is not None:
                stat["opt_residual"] = max(stat["opt_residual"], opt_residual(*problem))
            sequence.append([name, final.iteration])
        isnrs = [o.isnr_db for o in outcomes if o.isnr_db is not None]
        return {"t0": t0, "wall_s": t1 - t0, "solvers": solvers, "iterations": sequence,
                "isnr_db_min": min(isnrs) if isnrs else 0.0}

    def check_repeat(self, passes: list[dict], calls: dict | None, source: str) -> None:
        """Iterations (and traced call counts) must repeat exactly at one seed.

        Earlier runs are looked up by workload, seed and ``source``, the
        digest of the package sources, so a change to the program that
        moves the counts starts a new record instead of failing the check.
        """
        first = passes[0]["iterations"]
        if any(p["iterations"] != first for p in passes[1:]):
            self.failures.append(f"iterations differ between passes: "
                                 f"{[p['iterations'] for p in passes]}")
        path = OUT / "counts.json"
        try:
            book = json.loads(path.read_text())
        except (OSError, ValueError):
            book = {}
        key = f"{self.workload.name}/seed={self.seed}/src={source}"
        entry = book.setdefault(key, {})
        for field, value in (("iterations", first), ("calls", calls)):
            if value is None:
                continue
            if field in entry and entry[field] != value:
                self.failures.append(f"{field} differ from an earlier run at this seed: "
                                     f"{entry[field]} != {value}")
            entry.setdefault(field, value)
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, path)


def end_to_end(runner: Runner, passes: list[dict], setup_times: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = (runner.attempted - runner.failed) / runner.attempted
    return {
        "wall_s": (median([p["solve_s"] for p in passes]), "s"),
        "setup_s": (median(setup_times), "s"),
        "salsa.solve_s": (median([p["solvers"]["salsa"]["span_s"] for p in passes]), "s"),
        "isnr_db_min": (median([p["isnr_db_min"] for p in passes]), "dB"),
        "passed_frac": (ok, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(untraced: dict, traced: dict, tracer, clock) -> dict:
    stats = tracer.stats()
    metrics = {}
    for layer in LAYERS:
        stat = stats.get(layer)
        calls = stat.calls if stat else 0
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (stat.self_s if stat else 0.0, "s")
        metrics[f"{layer}.ms_per_call"] = (1e3 * stat.total_s / calls if calls else 0.0, "ms")
        if layer in BYTE_LAYERS:
            metrics[f"{layer}.computed_bytes_per_call"] = (
                stat.nbytes / calls if calls else 0.0, "B")
            metrics[f"{layer}.computed_GBps"] = (
                stat.nbytes / stat.total_s / 1e9 if calls else 0.0, "GB/s")
    for name, target in SOLVERS.items():
        solver = traced["solvers"][name]
        stat = stats.get(target)
        iterations = solver["iterations"]
        prefix = f"solver.{name}"
        metrics[f"{prefix}.iterations"] = (iterations, "count")
        metrics[f"{prefix}.work_s"] = (solver["work_s"], "s")
        metrics[f"{prefix}.bookkeeping_s"] = (solver["span_s"] - solver["work_s"], "s")
        metrics[f"{prefix}.ms_per_iter"] = (
            1e3 * solver["work_s"] / iterations if iterations else 0.0, "ms")
        metrics[f"{prefix}.self_s"] = (stat.self_s if stat else 0.0, "s")
        metrics[f"{prefix}.opt_residual"] = (solver["opt_residual"], "tau")
    for name in ("fista", "ist"):
        metrics[f"{name}.solve_s"] = (untraced["solvers"][name]["span_s"], "s")
    t0, wall = traced["t0"], traced["wall_s"]
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    metrics["trace.untraced_solve_s"] = (untraced["solve_s"], "s")
    metrics["trace.overhead_s"] = (wall - untraced["wall_s"], "s")
    metrics["trace.uncovered_s"] = (wall - tracer.covered_s(t0, t0 + wall), "s")
    metrics["trace.spans"] = (sum(s.calls for s in stats.values()), "count")
    metrics["calibration.probe_ms"] = (1e3 * median(clock.probes), "ms")
    metrics["calibration.probe_share"] = (untraced["probe_s"] / (untraced["wall_s"]
                                                              + untraced["probe_s"]), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=None,
                        help="re-seed every experiment (default: frozen seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; another pass starts only if it fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from calibrate import CalibratedClock
    from spans import Tracer
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    machine = machine_info(nproc)
    clock = CalibratedClock()
    passes = []
    with clock.running():
        state, setup_times = runner.setup(clock.now)
        warm_up(workload.size, workload.solvers)
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            # solver spans of untraced passes are timed in calibrated seconds
            passes.append(runner.solve(state, Tracer(clock=clock.now), SOLVERS.values(),
                                       dict.fromkeys(SOLVERS.values(), keep_final), clock))
            now = time.perf_counter()
            if args.trace or now - begin + (now - start) > args.seconds:
                break

    tracer = calls = None
    if args.trace:
        tracer = Tracer()
        with tracer.patched(PACKAGE, list(LAYERS)):
            state = workload.setup(args.seed, runner.scratch)
        passes.append(runner.solve(state, tracer, LAYERS + tuple(SOLVERS.values()),
                                   {t: keep_problem(t) for t in SOLVERS.values()},
                                   count_bytes=BYTE_LAYERS))
        calls = {name: stat.calls for name, stat in sorted(tracer.stats().items())}
        metrics = per_layer(passes[0], passes[-1], tracer, clock)
    else:
        metrics = end_to_end(runner, passes, setup_times)
    source = source_digest()
    runner.check_repeat(passes, calls, source)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "source": source, "setup_s": setup_times,
              "probes_s": clock.probes, "failures": runner.failures,
              "passes": [{k: p[k] for k in ("solve_s", "wall_s", "probe_s", "solvers",
                                            "iterations", "isnr_db_min")}
                         for p in passes],
              **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))

    print(f"{args.workload}  seed={args.seed}  passes={len(passes)}  trace={args.trace}")
    print("machine " + json.dumps(machine))
    for p in passes:
        print(f"pass solve_s {p['solve_s']:.4f}  wall_s {p['wall_s']:.4f}  "
              f"probe_s {p['probe_s']:.4f}")
    for failure in runner.failures:
        print(f"CHECK FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

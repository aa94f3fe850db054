"""Median time per iteration of each part of one solver iteration.

Runs one solver on the problem of experiment --experiment (default 1, an
id of ``DEFAULT_EXPERIMENTS``: its blur, noise, seed and tau) at an N x N
phantom, with rel_tol 0 so that it takes exactly --iters iterations, after
a two-iteration warm-up solve.  The problem and the solve come from
``solve_fn`` of ``ab_iterations.py``, beside this script, with the
observation cast to --dtype (default float64; a float32 observation makes
the solver iterate in float32).  The experiment matters to SALSA and IST:
their sweeps skip the coefficient blocks, and their syntheses the bands,
that the soft threshold left all zero.  Over a SALSA solve at 256² to the
default stop that is 14% (3B) to 31% (2B) of the blocks.  The parts are timed by
wrapping what the solver module calls:

- ``analysis+sweep``: the frame analysis of the step's image and
  ``prox._sweep`` (add, soft threshold, l1 norm, extrapolation), timed
  together because IST and FISTA sweep each band as soon as the analysis
  writes it, inside the sweep's call;
- ``synthesis``: the inverse frame transform;
- ``rfft2`` and ``irfft2``: each real FFT (the rescale that
  ``solver._rfft2`` applies after a float32 ``rfft2`` counts in the
  spectral step);
- ``spectral step``: the rest of the generator step, i.e. the arithmetic
  on half spectra (SALSA's quadratic step, ``V`` and ``R``; IST's and
  FISTA's gradient filter, ``R`` and ``R_z``) and the Python around it;
- ``objective``: ``prox._objective``, the trace's data term by Parseval;
- ``remainder``: the rest of the iteration's wall time (the trace record
  and the stopping rule).

Iteration 0, the setup, is left out.  Each row is the median over the
iterations, in ms; ``iteration`` is the median wall time of a whole
iteration.  The wrappers cost about a microsecond per call.

Usage: python3 scripts/iteration_split.py [--experiment 1] [--size 256] [--solver salsa]
           [--iters 20] [--dtype float64]
"""

import argparse
import runpy
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import salsa_deconv
from salsa_deconv import DEFAULT_EXPERIMENTS
from salsa_deconv import solver as solver_module

# the problem builder and solver names of the in-process A/B beside this script
AB_ITERATIONS = runpy.run_path(str(Path(__file__).with_name("ab_iterations.py")))
SOLVES = AB_ITERATIONS["SOLVES"]
CALLS = {(solver_module, "analysis_bands"): "analysis+sweep",
         (solver_module, "_sweep"): "analysis+sweep",
         (solver_module, "synthesis_bands"): "synthesis",
         (np.fft, "rfft2"): "rfft2",
         (np.fft, "irfft2"): "irfft2",
         (solver_module, "_objective"): "objective"}
STEP_CALLS = ("analysis+sweep", "synthesis", "rfft2", "irfft2")
ROWS = STEP_CALLS + ("spectral step", "objective", "remainder", "iteration")


def split(experiment: str, size: int, solver: str, iters: int, dtype: str) -> dict[str, float]:
    """Median ms per iteration of each row of ``ROWS``, from an observation in ``dtype``."""
    warm_up, solve = (AB_ITERATIONS["solve_fn"](salsa_deconv, experiment, size, solver, n,
                                                dtype) for n in (2, iters + 1))
    warm_up()
    spent = defaultdict(float)  # seconds in each wrapped call this iteration
    samples = defaultdict(list)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    def timed_steps(steps):
        # an iteration runs from the start of its step to the start of the
        # next one, so the last iteration (one past --iters) is not recorded
        previous = None
        for k in range(iters + 2):
            start = time.perf_counter()
            if previous is not None:
                step_start, step_s = previous
                for name in STEP_CALLS + ("objective",):
                    samples[name].append(spent[name])
                samples["spectral step"].append(step_s - sum(spent[n] for n in STEP_CALLS))
                samples["remainder"].append(start - step_start - step_s - spent["objective"])
                samples["iteration"].append(start - step_start)
            spent.clear()
            item = next(steps)
            if k:
                previous = start, time.perf_counter() - start
            yield item

    drive = solver_module._drive
    originals = {target: getattr(*target) for target in [*CALLS, (solver_module, "_drive")]}
    try:
        for (owner, attr), name in CALLS.items():
            setattr(owner, attr, timed(name, originals[owner, attr]))
        solver_module._drive = lambda steps, *args: drive(timed_steps(steps), *args)
        solve()
    finally:
        for (owner, attr), fn in originals.items():
            setattr(owner, attr, fn)
    return {row: 1e3 * statistics.median(samples[row]) for row in ROWS}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--experiment", default="1")
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--solver", choices=sorted(SOLVES), default="salsa")
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64",
                        help="precision of the observation the solver is given")
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be >= 1")
    if args.experiment not in DEFAULT_EXPERIMENTS:
        parser.error(f"--experiment must be one of {sorted(DEFAULT_EXPERIMENTS)}, "
                     f"got {args.experiment!r}")

    medians = split(args.experiment, args.size, args.solver, args.iters, args.dtype)
    print(f"{args.solver} at {args.size}x{args.size}, median of {args.iters} iterations, "
          f"experiment {args.experiment} with a {args.dtype} observation "
          f"(numpy {np.__version__})")
    for row, ms in medians.items():
        print(f"{row:<15s}{ms:10.3f} ms")


if __name__ == "__main__":
    sys.exit(main())

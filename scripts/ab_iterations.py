"""Solver time per iteration of two checkouts, measured in one process.

Copies ``src/salsa_deconv`` of each checkout into a temporary directory
under its own package name (``ab_base``, ``ab_change``) and imports both,
so that the two sides share one interpreter, one numpy and one heap, and
the host's drift over the run reaches both alike.  Each side builds
the problem of experiment --experiment (default 1, an id of
``DEFAULT_EXPERIMENTS``: its blur, noise, seed and tau) at an N x N
phantom with its own package, and so its own OTF format, and solves it
with rel_tol 0, so that every solve takes exactly --iters iterations.
It solves through ``solve_observation``, which every checkout has, so
the script depends on no solver's signature.  Each solve then also
builds its OTF and the digest of its inputs: 1.8 ms at 256x256 and
7.5 ms at 512x512 on a 2-core x86_64 (numpy 2.4.6), or 0.75% and 1% of
a 20-iteration SALSA solve there, the same on both sides.
``--dtype float32`` casts each side's observation to float32 before the
solve, so a checkout that iterates in the observation's precision runs
in float32, and one that converts every observation to float64 runs in
float64.

After one warm-up solve per side, it runs --reps pairs of solves and
alternates which side goes first.  A sample is the wall time of one
solve, setup included, divided by --iters.  After a header that names
numpy's version and nproc (the CPUs this process may run on), it prints
each side's median and quartiles in ms per iteration, the median over
the pairs of the change/base ratio, and the number of pairs the change
won.

Usage: python3 scripts/ab_iterations.py --base DIR --change DIR
           [--experiment 1] [--size 256] [--solver salsa] [--iters 20] [--reps 10]
           [--dtype float64]
"""

import argparse
import dataclasses
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("base", "change")
SOLVERS = ("fista", "ist", "salsa")


def load(checkout: Path, name: str, root: Path):
    """Import ``checkout``'s package as ``name``, from a copy under ``root``."""
    src = checkout / "src" / "salsa_deconv"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{checkout} has no src/salsa_deconv package")
    shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]  # left by an earlier call in this process
    return importlib.import_module(name)


def solve_fn(pkg, experiment: str, size: int, solver: str, iters: int, dtype: str):
    """A no-argument call that solves ``pkg``'s problem of ``experiment`` in ``iters``
    iterations, from the observation cast to ``dtype``, by ``pkg.solve_observation``."""
    if experiment not in pkg.DEFAULT_EXPERIMENTS:
        raise SystemExit(f"--experiment must be one of {sorted(pkg.DEFAULT_EXPERIMENTS)}, "
                         f"got {experiment!r}")
    spec = pkg.DEFAULT_EXPERIMENTS[experiment]
    y = pkg.degrade(pkg.phantom(size), spec.psf(), spec.noise_variance, spec.seed).astype(dtype)
    spec = dataclasses.replace(spec, solvers=(solver,), max_iters=iters, rel_tol=0.0)
    return lambda: pkg.solve_observation(y, spec)


def run_pairs(runs: dict, iters: int, reps: int) -> dict[str, list[float]]:
    """``reps`` alternating pairs of solves; ms per iteration of each side, pair by pair."""
    for run in runs.values():
        run()  # warm-up
    samples = {side: [] for side in SIDES}
    for i in range(reps):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            runs[side]()
            samples[side].append(1e3 * (time.perf_counter() - t0) / iters)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--experiment", default="1",
                        help="an id of DEFAULT_EXPERIMENTS, checked on both sides")
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--solver", choices=SOLVERS, default="salsa")
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64",
                        help="precision of the observation each side is given")
    args = parser.parse_args(argv)
    if args.iters < 1 or args.reps < 1:
        parser.error("--iters and --reps must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sys.path.insert(0, tmp)
        try:
            runs = {side: solve_fn(load(getattr(args, side).resolve(), f"ab_{side}", root),
                                   args.experiment, args.size, args.solver, args.iters,
                                   args.dtype)
                    for side in SIDES}
        finally:
            sys.path.remove(tmp)
        samples = run_pairs(runs, args.iters, args.reps)

    print(f"{args.solver} at {args.size}x{args.size}, {args.iters} iterations per solve, "
          f"{args.reps} pairs, experiment {args.experiment} with a {args.dtype} observation "
          f"(numpy {np.__version__}, nproc {len(os.sched_getaffinity(0))})")
    for side in SIDES:
        q1, median, q3 = np.percentile(samples[side], [25, 50, 75])
        print(f"{side:<8s}median {median:9.3f} ms/iter  quartiles {q1:9.3f} {q3:9.3f}")
    ratios = [c / b for b, c in zip(samples["base"], samples["change"])]
    wins = sum(c < b for b, c in zip(samples["base"], samples["change"]))
    print(f"change/base median ratio {statistics.median(ratios):.3f}, "
          f"change faster in {wins}/{args.reps} pairs")


if __name__ == "__main__":
    sys.exit(main())

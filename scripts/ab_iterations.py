"""Solver time per iteration of two checkouts, measured in one process.

Copies ``src/salsa_deconv`` of each checkout into a temporary directory
under its own package name (``ab_base``, ``ab_change``) and imports both,
so that the two sides share one interpreter, one numpy and one heap, and
the host's drift over the run reaches both alike.  The base's package
builds the observation of experiment --experiment (default 1, an id of
``DEFAULT_EXPERIMENTS``: its blur, noise and seed) at an N x N phantom
once, so both sides solve the same input even when the change touches
``degrade`` or the filtering.  Each side solves it with its own package,
and so its own experiment spec (tau) and OTF format, with rel_tol 0, so
that every solve takes exactly --iters iterations.  It solves through
``solve_observation``, which every checkout has, so the script depends
on no solver's signature.  Each solve then also builds its OTF and the
digest of its inputs: 1.8 ms at 256x256 and 7.5 ms at 512x512 on a
2-core x86_64 (numpy 2.4.6), or 0.75% and 1% of a 20-iteration SALSA
solve there, the same on both sides.  Both sides are handed
``degrade``'s float64 observation, and each side's ``solve_observation``
decides the precision it iterates in (float32 in this checkout).

After one warm-up solve per side, it runs --reps pairs of solves and
alternates which side goes first.  A sample is the wall time of one
solve, setup included, divided by --iters.  After a header that names
numpy's version and nproc (the CPUs this process may run on), it prints
each side's median and quartiles in ms per iteration, the median and
quartiles over the pairs of the change/base ratio, and the number of
pairs the change won.  A last line compares the objectives each side's
last solve recorded: ``traces equal``, or ``traces differ from record k
(max rel r)`` with ``k`` the first record that differs and ``r`` the
largest relative difference over the records both sides have.

Usage: python3 scripts/ab_iterations.py --base DIR --change DIR
           [--experiment 1] [--size 256] [--solver salsa] [--iters 20] [--reps 10]
"""

import argparse
import dataclasses
import importlib
import os
import shutil
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


def experiment_spec(pkg, experiment: str):
    """``pkg``'s ``DEFAULT_EXPERIMENTS[experiment]``, or an exit that lists the ids."""
    if experiment not in pkg.DEFAULT_EXPERIMENTS:
        raise SystemExit(f"--experiment must be one of {sorted(pkg.DEFAULT_EXPERIMENTS)}, "
                         f"got {experiment!r}")
    return pkg.DEFAULT_EXPERIMENTS[experiment]


def solve_fn(pkg, y, experiment: str, solver: str, iters: int):
    """A no-argument call that solves ``y`` as ``pkg``'s problem of ``experiment`` in
    ``iters`` iterations, by ``pkg.solve_observation``."""
    spec = dataclasses.replace(experiment_spec(pkg, experiment), solvers=(solver,),
                               max_iters=iters, rel_tol=0.0)
    return lambda: pkg.solve_observation(y, spec)


def run_pairs(runs: dict, iters: int, reps: int) -> tuple[dict[str, list[float]], dict]:
    """``reps`` alternating pairs of solves; ms per iteration of each side, pair by pair,
    and each side's last report."""
    for run in runs.values():
        run()  # warm-up
    samples = {side: [] for side in SIDES}
    last = {}
    for i in range(reps):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            last[side] = runs[side]()
            samples[side].append(1e3 * (time.perf_counter() - t0) / iters)
    return samples, last


def trace_agreement(last: dict, solver: str) -> str:
    """Whether the two sides' last solves recorded the same objectives, and if not,
    from which record on and by how much, relative to the larger of each pair."""
    base, change = ([r.objective for r in last[side].results[solver].trace.records]
                    for side in SIDES)
    if base == change:
        return "traces equal"
    pairs = list(zip(base, change))
    first = next((k for k, (b, c) in enumerate(pairs) if b != c), len(pairs))
    worst = max((abs(c - b) / max(abs(b), abs(c)) for b, c in pairs if b != c), default=0.0)
    return f"traces differ from record {first} (max rel {worst:.3g})"


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
    args = parser.parse_args(argv)
    if args.iters < 1 or args.reps < 1:
        parser.error("--iters and --reps must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sys.path.insert(0, tmp)
        try:
            pkgs = {side: load(getattr(args, side).resolve(), f"ab_{side}", root)
                    for side in SIDES}
        finally:
            sys.path.remove(tmp)
        base, spec = pkgs["base"], experiment_spec(pkgs["base"], args.experiment)
        y = base.degrade(base.phantom(args.size), spec.psf(), spec.noise_variance, spec.seed)
        runs = {side: solve_fn(pkg, y, args.experiment, args.solver, args.iters)
                for side, pkg in pkgs.items()}
        samples, last = run_pairs(runs, args.iters, args.reps)

    print(f"{args.solver} at {args.size}x{args.size}, {args.iters} iterations per solve, "
          f"{args.reps} pairs, experiment {args.experiment} "
          f"(numpy {np.__version__}, nproc {len(os.sched_getaffinity(0))})")
    for side in SIDES:
        q1, median, q3 = np.percentile(samples[side], [25, 50, 75])
        print(f"{side:<8s}median {median:9.3f} ms/iter  quartiles {q1:9.3f} {q3:9.3f}")
    ratios = [c / b for b, c in zip(samples["base"], samples["change"])]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    wins = sum(c < b for b, c in zip(samples["base"], samples["change"]))
    print(f"change/base median ratio {median:.3f}  quartiles {q1:.3f} {q3:.3f}, "
          f"change faster in {wins}/{args.reps} pairs")
    print(trace_agreement(last, args.solver))


if __name__ == "__main__":
    sys.exit(main())

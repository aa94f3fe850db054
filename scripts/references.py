"""Reference objectives of the five experiments, for the convergence gate.

For each experiment of ``DEFAULT_EXPERIMENTS`` it builds the float64
observation of the N x N phantom at the experiment's frozen seed and
shipped tau, runs ``salsa_solve`` on the 4-level frame for --iters
iterations with rel_tol 0 at ``mu = 0.01 tau`` and at ``mu = 0.003 tau``,
and records the lowest objective either solve reached.  Each record also
holds the problem it was solved on (size, precision, seed, tau, blur,
noise variance and the SHA-256 of the observation's bytes), both ``mu``
values, the iteration count and the SHA-256 of the package's source, so a
test can tell a stale file from a slow solver.  ``tests/test_convergence.py``
reads the file; rerun this script after any change to the problem, such as
new taus.  At the defaults it takes about 35 s on a 2-core x86_64.

Usage: python3 scripts/references.py [--size 64] [--iters 6000]
           [--out tests/data/reference_objectives.json]
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import salsa_deconv
from salsa_deconv.bench import DEFAULT_EXPERIMENTS, degrade, phantom
from salsa_deconv.convolution import psf_to_otf
from salsa_deconv.frame import FrameSpec
from salsa_deconv.prox import Regularizer
from salsa_deconv.solver import SolverConfig, salsa_solve

MU_RATIOS = (0.01, 0.003)
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "reference_objectives.json"


def source_sha256() -> str:
    """SHA-256 over the package's modules, each name then its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(salsa_deconv.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference(spec, y, iters: int) -> tuple[float, list[float]]:
    """The lowest objective over SALSA solves of ``spec``'s observation ``y`` at each ``mu``."""
    otf = psf_to_otf(spec.psf(), y.shape)
    mus = [ratio * spec.tau for ratio in MU_RATIOS]
    best = math.inf
    for mu in mus:
        cfg = SolverConfig(tau=spec.tau, mu=mu, max_iters=iters, rel_tol=0.0)
        _, _, trace = salsa_solve(y, otf, FrameSpec(), Regularizer(), cfg)
        best = min(best, *(record.objective for record in trace.records))
    return best, mus


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--iters", type=int, default=6000)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    digest = source_sha256()
    records = {}
    for exp_id, spec in DEFAULT_EXPERIMENTS.items():
        t0 = time.perf_counter()
        y = degrade(phantom(args.size), spec.psf(), spec.noise_variance, spec.seed)
        objective, mus = reference(spec, y, args.iters)
        records[exp_id] = {
            "objective": objective, "size": args.size, "precision": "float64",
            "seed": spec.seed, "tau": spec.tau, "blur_kind": spec.blur_kind.value,
            "blur_sigma": spec.blur_sigma, "noise_variance": spec.noise_variance,
            "observation_sha256": hashlib.sha256(y.tobytes()).hexdigest(),
            "mu": mus, "iterations": args.iters, "source_sha256": digest,
        }
        print(f"exp {exp_id}: reference objective {objective:.17g} "
              f"({time.perf_counter() - t0:.1f}s)", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8", newline="\n")


if __name__ == "__main__":
    sys.exit(main())

"""One-time grid search for the shipped per-experiment tau defaults.

For each benchmark experiment, runs the augmented-Lagrangian solver on
the 256x256 built-in phantom over tau in {2**k * 1e-3 : k = 0..10} and
reports the tau with the best final ISNR.  The winners are frozen into
DEFAULT_EXPERIMENTS; rerun this only when the phantom, noise model or
solver defaults change.

Usage: python3 scripts/tune_tau.py [--size 256] [--rel-tol 1e-5] [--max-iters 300]
"""

import argparse
import dataclasses
import json
import sys
import time

from salsa_deconv.bench import DEFAULT_EXPERIMENTS, phantom, run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--rel-tol", type=float, default=1e-5)
    parser.add_argument("--max-iters", type=int, default=300)
    args = parser.parse_args(argv)

    x_true = phantom(args.size)
    taus = [2**k * 1e-3 for k in range(11)]
    winners = {}
    for exp_id, base in DEFAULT_EXPERIMENTS.items():
        rows = []
        for tau in taus:
            spec = dataclasses.replace(base, tau=tau, rel_tol=args.rel_tol,
                                       max_iters=args.max_iters)
            t0 = time.perf_counter()
            report = run_experiment(spec, x_true)
            r = report.results["salsa"]
            rows.append((tau, r.isnr_db, r.iterations, time.perf_counter() - t0))
            print(f"exp {exp_id} tau={tau:<7g} isnr={r.isnr_db:7.3f} dB "
                  f"iters={r.iterations:4d} ({rows[-1][3]:.1f}s)", flush=True)
        best = max(rows, key=lambda row: row[1])
        winners[exp_id] = {"tau": best[0], "isnr_db": best[1]}
        print(f"--> exp {exp_id}: best tau = {best[0]} ({best[1]:.3f} dB)", flush=True)
    print(json.dumps(winners, indent=2))


if __name__ == "__main__":
    sys.exit(main())

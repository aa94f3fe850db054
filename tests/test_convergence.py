"""Convergence gate: iterations each solver needs to come within 1% of a reference objective.

The references are the lowest objectives of long SALSA solves of the five
experiments' 64x64 float64 problems, written by ``scripts/references.py``
into ``tests/data/reference_objectives.json``.  SALSA (default ``mu``) and
FISTA are called directly, in float64 on the 4-level frame, and run to
``f_ref * (1 + 1e-2)``.  An iteration count at a fixed excess is
deterministic at the frozen seeds and does not depend on the host's load.

The pins are upper bounds: a change that lowers a count tightens its pin,
and one that raises a count fails here.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from salsa_deconv.bench import DEFAULT_EXPERIMENTS, degrade, phantom
from salsa_deconv.convolution import psf_to_otf
from salsa_deconv.frame import FrameSpec
from salsa_deconv.prox import Regularizer
from salsa_deconv.solver import SolverConfig, fista_solve, salsa_solve

REFERENCES = Path(__file__).resolve().parent / "data" / "reference_objectives.json"
SIZE = 64
EXCESS = 1e-2
MAX_ITERS = 3000

# iterations to f_ref * (1 + EXCESS) at the frozen seeds and shipped taus
PINNED = {
    "salsa": {"1": 614, "2A": 453, "2B": 428, "3A": 696, "3B": 663},
    "fista": {"1": 863, "2A": 1062, "2B": 511, "3A": 649, "3B": 447},
}


def observation(exp_id: str) -> np.ndarray:
    spec = DEFAULT_EXPERIMENTS[exp_id]
    return degrade(phantom(SIZE), spec.psf(), spec.noise_variance, spec.seed)


def reference_objective(records: dict, exp_id: str, y: np.ndarray) -> float:
    """``f_ref`` of ``exp_id``, failing by name when its record is of another problem
    than ``DEFAULT_EXPERIMENTS[exp_id]`` and its observation ``y``."""
    spec = DEFAULT_EXPERIMENTS[exp_id]
    want = {"size": SIZE, "precision": "float64", "seed": spec.seed, "tau": spec.tau,
            "blur_kind": spec.blur_kind.value, "blur_sigma": spec.blur_sigma,
            "noise_variance": spec.noise_variance,
            "observation_sha256": hashlib.sha256(y.tobytes()).hexdigest()}
    record = records.get(exp_id, {})
    stale = sorted(key for key, value in want.items() if record.get(key) != value)
    if stale:
        pytest.fail(f"{REFERENCES.name} holds another problem for experiment {exp_id} "
                    f"(differs in {', '.join(stale)}): rerun python3 scripts/references.py")
    return record["objective"]


@pytest.fixture(scope="module")
def records() -> dict:
    return json.loads(REFERENCES.read_text())


@pytest.mark.parametrize("exp_id", list(DEFAULT_EXPERIMENTS))
@pytest.mark.parametrize("name", list(PINNED))
def test_solver_reaches_one_percent_within_its_pin(records, name, exp_id):
    y = observation(exp_id)
    f_ref = reference_objective(records, exp_id, y)
    spec = DEFAULT_EXPERIMENTS[exp_id]
    cfg = SolverConfig(tau=spec.tau, max_iters=MAX_ITERS, target_objective=f_ref * (1 + EXCESS))
    solve = {"salsa": salsa_solve, "fista": fista_solve}[name]
    _, _, trace = solve(y, psf_to_otf(spec.psf(), y.shape), FrameSpec(4), Regularizer(), cfg)
    objectives = [record.objective for record in trace.records]
    # a record below the reference means the reference is not the optimum's
    assert min(objectives) >= f_ref, \
        f"experiment {exp_id}: {name} went below f_ref; rerun python3 scripts/references.py"
    assert objectives[-1] <= cfg.target_objective, f"experiment {exp_id}: {name} missed 1%"
    assert trace.final.iteration <= PINNED[name][exp_id], \
        f"experiment {exp_id}: {name} took {trace.final.iteration} iterations"


@pytest.mark.parametrize("key, value", [("tau", 0.5), ("seed", 7), ("size", 32),
                                        ("blur_kind", "uniform9"), ("blur_sigma", 1.0),
                                        ("noise_variance", 1.0),
                                        ("observation_sha256", "0" * 64)])
def test_a_reference_of_another_problem_fails_by_name(records, key, value):
    stale = copy.deepcopy(records)
    stale["2B"][key] = value
    with pytest.raises(pytest.fail.Exception,
                       match=rf"experiment 2B \(differs in {key}\): rerun python3 "
                             r"scripts/references.py"):
        reference_objective(stale, "2B", observation("2B"))
    assert reference_objective(stale, "3A", observation("3A")) == records["3A"]["objective"]

import hashlib
import json
import os
import re
import runpy
import shutil
from pathlib import Path

import numpy as np

from salsa_deconv.bench import DEFAULT_EXPERIMENTS, degrade, phantom

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_tune_tau_prints_json_winners(capsys):
    # the grid search behind DEFAULT_EXPERIMENTS' tau values, cut to a smoke run
    main = runpy.run_path(str(SCRIPTS / "tune_tau.py"))["main"]
    main(["--size", "32", "--max-iters", "2"])
    out = capsys.readouterr().out
    winners = json.loads(out[out.index("\n{\n") + 1:])
    assert set(winners) == {"1", "2A", "2B", "3A", "3B"}
    grid = [2**k * 1e-3 for k in range(11)]
    for row in winners.values():
        assert row["tau"] in grid
        assert isinstance(row["isnr_db"], float)


def test_references_writes_one_record_per_experiment(tmp_path, capsys):
    # the reference objectives behind tests/test_convergence.py, cut to a smoke run
    main = runpy.run_path(str(SCRIPTS / "references.py"))["main"]
    out = tmp_path / "refs.json"
    main(["--size", "16", "--iters", "20", "--out", str(out)])
    assert len(capsys.readouterr().out.splitlines()) == 5
    records = json.loads(out.read_text())
    assert list(records) == ["1", "2A", "2B", "3A", "3B"]
    for exp_id, record in records.items():
        assert list(record) == ["objective", "size", "precision", "seed", "tau", "blur_kind",
                                "blur_sigma", "noise_variance", "observation_sha256", "mu",
                                "iterations", "source_sha256"]
        spec = DEFAULT_EXPERIMENTS[exp_id]
        assert (record["size"], record["precision"], record["iterations"]) == (16, "float64", 20)
        assert (record["seed"], record["tau"], record["blur_kind"], record["blur_sigma"],
                record["noise_variance"]) == (spec.seed, spec.tau, spec.blur_kind.value,
                                              spec.blur_sigma, spec.noise_variance)
        assert record["mu"] == [0.01 * spec.tau, 0.003 * spec.tau]
        assert isinstance(record["objective"], float) and record["objective"] > 0.0
        assert re.fullmatch(r"[0-9a-f]{64}", record["source_sha256"])
        y = degrade(phantom(16), spec.psf(), spec.noise_variance, spec.seed)
        assert record["observation_sha256"] == hashlib.sha256(y.tobytes()).hexdigest()
    assert len({record["source_sha256"] for record in records.values()}) == 1


def test_ab_iterations_compares_two_checkouts(capsys):
    # the in-process A/B timing, cut to a smoke run with both sides this checkout
    main = runpy.run_path(str(SCRIPTS / "ab_iterations.py"))["main"]
    repo = str(SCRIPTS.parent)
    main(["--base", repo, "--change", repo, "--experiment", "3B",
          "--size", "32", "--iters", "2", "--reps", "3"])
    header, base, change, summary, traces = capsys.readouterr().out.splitlines()
    assert header.startswith("salsa at 32x32, 2 iterations per solve, 3 pairs, experiment 3B ")
    # a timing counts as evidence only with the numpy version and nproc beside it
    assert header.endswith(f"(numpy {np.__version__}, nproc {len(os.sched_getaffinity(0))})")
    for side, row in (("base", base), ("change", change)):
        assert row.split()[0] == side
        median, q1, q3 = (float(row.split()[i]) for i in (2, 5, 6))
        assert 0.0 < q1 <= median <= q3
    ratio, q1, q3, wins = re.fullmatch(r"change/base median ratio (\S+)  quartiles (\S+) (\S+), "
                                       r"change faster in (\d)/3 pairs", summary).groups()
    assert 0.0 < float(q1) <= float(ratio) <= float(q3) and 0 <= int(wins) <= 3
    # a checkout run against itself solves bitwise alike
    assert traces == "traces equal"


def test_ab_iterations_solves_the_base_observation_on_both_sides(tmp_path, capsys):
    # a change whose degrade moves the observation by one ulp still solves the
    # base's observation, so a solver left alone reads equal traces
    repo = SCRIPTS.parent
    change = tmp_path / "change"
    shutil.copytree(repo / "src" / "salsa_deconv", change / "src" / "salsa_deconv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "src" / "salsa_deconv" / "bench.py", "a") as f:
        f.write("\n_degrade = degrade\n\n\n"
                "def degrade(*args):\n"
                "    return np.nextafter(_degrade(*args), np.inf)\n")
    main = runpy.run_path(str(SCRIPTS / "ab_iterations.py"))["main"]
    main(["--base", str(repo), "--change", str(change), "--experiment", "1",
          "--size", "32", "--iters", "2", "--reps", "1"])
    assert capsys.readouterr().out.splitlines()[-1] == "traces equal"


def test_code_lines_counts_only_code(tmp_path, capsys):
    # a module, class and function docstring, a comment and a blank line
    # are not code; a trailing comment and a plain multi-line string are
    (tmp_path / "a.py").write_text('"""Module\ndocstring."""\n\nimport os  # trailing\n'
                                   '# comment\n\n\nclass C:\n    """Class docstring."""\n\n'
                                   '    def f(self):\n        """Function\n        docstring."""\n'
                                   '        return """two\nlines"""\n')
    (tmp_path / "b.py").write_text("x = 1\n")
    main = runpy.run_path(str(SCRIPTS / "code_lines.py"))["main"]
    main([str(tmp_path)])
    *rows, total = capsys.readouterr().out.splitlines()
    counts = {Path(row.split()[1]).name: int(row.split()[0]) for row in rows}
    assert counts == {"a.py": 5, "b.py": 1}
    assert total.split() == [str(sum(counts.values())), "total"]

import json
import runpy
from pathlib import Path

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


def test_iteration_split_prints_every_part(capsys):
    # the per-part timing of one solver iteration, cut to a smoke run
    main = runpy.run_path(str(SCRIPTS / "iteration_split.py"))["main"]
    for solver in ("salsa", "ist", "fista"):
        main(["--size", "32", "--solver", solver, "--iters", "3"])
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith(f"{solver} at 32x32, median of 3 iterations")
        parts = {row[:15].strip(): float(row[15:].split()[0]) for row in rows}
        assert list(parts) == ["analysis", "synthesis", "sweep", "rfft2", "irfft2",
                               "spectral step", "objective", "remainder", "iteration"]
        assert all(ms >= 0.0 for ms in parts.values())

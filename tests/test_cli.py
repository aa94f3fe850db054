import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import salsa_deconv
from salsa_deconv.bench import ExperimentReport, ExperimentSpec, SolverResult, degrade, phantom
from salsa_deconv.cli import PgmError, _write_artifacts, main, parse_args, read_image, write_image
from salsa_deconv.convolution import BlurKind, build_psf
from salsa_deconv.solver import DivergenceError, SolverTrace, TraceRecord

# the phases every solver block of a report splits its time into
PHASES = {"spectral", "irfft2", "analysis+sweep", "synthesis", "rfft2", "bookkeeping"}


# ---------------------------------------------------------------------------
# PGM I/O


def test_pgm_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(70)
    img = np.rint(rng.uniform(0, 255, (24, 16)))
    p = tmp_path / "a.pgm"
    q = tmp_path / "b.pgm"
    write_image(img, p)
    decoded = read_image(p)
    assert np.array_equal(decoded, img)
    write_image(decoded, q)
    assert p.read_bytes() == q.read_bytes()


def test_pgm_known_payload_decodes(tmp_path):
    p = tmp_path / "tiny.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    img = read_image(p)
    assert np.array_equal(img, [[0.0, 128.0], [255.0, 7.0]])


def test_pgm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # comment\n# another\n 3\t1 # w h\n255\n" + bytes([9, 8, 7]))
    assert np.array_equal(read_image(p), [[9.0, 8.0, 7.0]])


def test_pgm_byte_above_maxval_names_offset(tmp_path):
    # the header is 10 bytes, so the raster's third byte is byte 12
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5 2 2 15\n" + bytes([0, 15, 200, 255]))
    with pytest.raises(PgmError, match=r"pixel value 200 above maxval 15 at byte 12$"):
        read_image(p)


def test_pgm_small_maxval_scales_to_255(tmp_path):
    # the taus and noise variances assume the 0-255 scale
    p = tmp_path / "four_bit.pgm"
    p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 1, 8, 15]))
    assert np.array_equal(read_image(p), [[0.0, 17.0], [136.0, 255.0]])
    q = tmp_path / "hundred.pgm"
    q.write_bytes(b"P5\n3 1\n100\n" + bytes([0, 33, 100]))
    assert np.array_equal(read_image(q), [[0.0, 33 * 255 / 100, 255.0]])


def test_pgm_sixteen_bit_rejected(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmError, match="maxval"):
        read_image(p)


def test_pgm_wrong_magic_rejected(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PgmError, match="P5"):
        read_image(p)


def test_pgm_truncated_raster_names_offset(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="byte"):
        read_image(p)


def test_pgm_bad_header_token(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match="width"):
        read_image(p)


def assert_pgm_error(tmp_path, data, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(PgmError) as exc:
        read_image(p)
    assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize("data, message", [
    (b"P2\n2 2\n255\n0 1 2 3\n", "not a binary PGM (expected magic 'P5' at byte 0)"),
    (b"P5", "truncated header at byte 2 (missing width)"),
    (b"P5 2 # w\n", "truncated header at byte 9 (missing height)"),
    (b"P5 2 2", "truncated header at byte 6 (missing maxval)"),
    (b"P5\nx 2\n255\n" + bytes(2), "invalid width 'x' at byte 3"),
    (b"P5 2 2.0 255\n", "invalid height '2.0' at byte 5"),
    (b"P5 2 2 0x1f\n", "invalid maxval '0x1f' at byte 7"),
    (b"P5 " + b"9" * 5000 + b" 2 255\n", f"invalid width '{'9' * 5000}' at byte 3"),
    (b"P5 0 2 255\n", "width must be positive, got 0 at byte 3"),
    (b"P5 2 00 255\n", "height must be positive, got 0 at byte 5"),
    (b"P5 2 2 0\n", "maxval must be positive, got 0 at byte 7"),
    (b"P5\n2 2\n65535\n" + bytes(8), "unsupported maxval 65535 (only 8-bit PGM, maxval <= 255)"),
    (b"P5 1 1 255", "missing whitespace after maxval at byte 10"),
    (b"P5 1 1 255#\n\x00", "missing whitespace after maxval at byte 10"),
    (b"P5\n4 4\n255\n" + bytes(7), "truncated raster at byte 18 (have 7 of 16 pixel bytes)"),
    (b"P5 2 2 15\n" + bytes([0, 15, 200, 255]), "pixel value 200 above maxval 15 at byte 12"),
], ids=["magic", "missing-width", "missing-height", "missing-maxval", "invalid-width",
        "invalid-height", "invalid-maxval", "width-past-int-digit-limit", "zero-width",
        "zero-height", "zero-maxval", "maxval-above-255", "no-raster-whitespace",
        "comment-before-raster", "truncated-raster", "byte-above-maxval"])
def test_pgm_malformed_header_message(tmp_path, data, message):
    # one header per message the reader gives, with its byte offset
    assert_pgm_error(tmp_path, data, message)


@pytest.mark.parametrize("data, message", [
    # int() reads these as 2, 10 and 255; netpbm fields are decimal digits
    (b"P5 +2 2 255\n" + bytes(4), "invalid width '+2' at byte 3"),
    (b"P5 2 1_0 255\n" + bytes(20), "invalid height '1_0' at byte 5"),
    (b"P5 2 2 2_55\n" + bytes(4), "invalid maxval '2_55' at byte 7"),
    (b"P5 2 -2 255\n" + bytes(4), "invalid height '-2' at byte 5"),
    # the magic needs whitespace or a comment after it
    (b"P52 2 255\n" + bytes(4), "missing whitespace before width at byte 2"),
], ids=["plus-sign", "underscore", "underscores", "minus-sign", "magic-glued-to-width"])
def test_pgm_header_fields_are_decimal_digits(tmp_path, data, message):
    assert_pgm_error(tmp_path, data, message)


def test_pgm_header_separators_property(tmp_path):
    # any runs of whitespace and '#' comments between the fields, one
    # whitespace byte before the raster; arbitrary bytes decode or raise PgmError
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    space = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    text = st.binary(max_size=8).map(lambda t: t.replace(b"\n", b"").replace(b"\r", b""))
    comment = st.builds(lambda t, end: b"#" + t + end, text, st.sampled_from([b"\n", b"\r"]))
    separator = st.lists(space | comment, min_size=1, max_size=4).map(b"".join)
    p = tmp_path / "h.pgm"

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(seps=st.tuples(separator, separator, separator),
                      last=space, width=st.integers(1, 4), height=st.integers(1, 3),
                      seed=st.integers(0, 2**32 - 1))
    def decodes(seps, last, width, height, seed):
        raster = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
        fields = (b"%d" % width, b"%d" % height, b"255")
        p.write_bytes(b"P5" + b"".join(s + f for s, f in zip(seps, fields))
                      + last + raster.tobytes())
        assert np.array_equal(read_image(p), raster)

    token = st.sampled_from([b" ", b"\n", b"#", b"0", b"1", b"2", b"9", b"255", b"-",
                             b"+", b"_", b"x", b"\xff", b"\x00"])
    tail = st.binary(max_size=40) | st.lists(token, max_size=16).map(b"".join)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(rest=tail)
    def decodes_or_rejects(rest):
        p.write_bytes(b"P5" + rest)
        try:
            read_image(p)
        except PgmError:
            pass

    decodes()
    decodes_or_rejects()


def test_write_image_clamps_and_rounds(tmp_path):
    p = tmp_path / "clamp.pgm"
    write_image(np.array([[-5.0, 300.7], [128.4, 127.5]]), p)
    img = read_image(p)
    assert np.array_equal(img, [[0.0, 255.0], [128.0, 128.0]])


def test_write_image_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        write_image(np.zeros(5), tmp_path / "x.pgm")


def test_write_image_rejects_an_empty_image(tmp_path):
    # else a PGM of height 0, which read_image rejects
    with pytest.raises(ValueError, match=r"^image is empty, got shape \(0, 5\)$"):
        write_image(np.zeros((0, 5)), tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


# ---------------------------------------------------------------------------
# parse_args


def make_pgm(tmp_path, name="img.pgm", side=32):
    p = tmp_path / name
    write_image(phantom(side), p)
    return p


def test_parse_run_defaults(tmp_path):
    img = make_pgm(tmp_path)
    cfg = parse_args(["run", "--experiment", "1", "--image", str(img),
                      "--out", str(tmp_path / "results")])
    assert cfg.subcommand == "run"
    assert cfg.experiment == "1"
    assert cfg.image == img
    assert cfg.tau is None and cfg.mu is None and cfg.solvers == ()
    assert cfg.out == tmp_path / "results"


def test_parse_deblur_mu_auto(tmp_path):
    img = make_pgm(tmp_path)
    cfg = parse_args(["deblur", "--image", str(img), "--blur", "uniform9",
                      "--tau", "0.05", "--mu", "auto"])
    assert cfg.blur is BlurKind.UNIFORM9
    assert cfg.tau == 0.05
    assert cfg.mu is None  # auto resolves downstream to 0.1*tau


def test_parse_scientific_notation(tmp_path):
    img = make_pgm(tmp_path)
    cfg = parse_args(["deblur", "--image", str(img), "--blur", "gaussian",
                      "--tau", "5e-2", "--mu", "1.5e-3", "--rel-tol", "1E-7"])
    assert cfg.tau == 0.05
    assert cfg.mu == 1.5e-3
    assert cfg.rel_tol == 1e-7


def test_parse_repeatable_solver(tmp_path):
    img = make_pgm(tmp_path)
    cfg = parse_args(["run", "--experiment", "2A", "--image", str(img),
                      "--solver", "salsa", "--solver", "fista"])
    assert cfg.solvers == ("salsa", "fista")


def test_unknown_experiment_id_is_usage_error(tmp_path, capsys):
    img = make_pgm(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_args(["run", "--experiment", "9", "--image", str(img)])
    assert exc.value.code == 2
    assert "argument --experiment: invalid choice: '9'" in capsys.readouterr().err


def test_missing_image_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["deblur", "--image", str(tmp_path / "nope.pgm"),
                    "--blur", "uniform9", "--tau", "0.1"])
    assert exc.value.code == 2
    assert "not found" in capsys.readouterr().err


def test_deblur_requires_tau(tmp_path):
    img = make_pgm(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_args(["deblur", "--image", str(img), "--blur", "uniform9"])
    assert exc.value.code == 2


def test_non_numeric_value_is_usage_error(tmp_path):
    img = make_pgm(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_args(["deblur", "--image", str(img), "--blur", "uniform9",
                    "--tau", "lots"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parse_args(["deblur", "--image", str(img), "--blur", "uniform9",
                    "--tau", "0.1", "--mu", "bogus"])


REAL_FLAG_FIELDS = {"--tau": "tau", "--sigma2": "noise_variance", "--mu": "mu",
                    "--rel-tol": "rel_tol", "--target-objective": "target_objective"}


@pytest.mark.parametrize("flag", REAL_FLAG_FIELDS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_is_usage_error(flag, value, capsys):
    # a NaN rel_tol used to run to max_iters and write NaN into the JSON report;
    # the setting's own rule rejects it, as it does a negative value
    with pytest.raises(SystemExit) as exc:
        parse_args(["run", "--experiment", "1", f"{flag}={value}"])
    assert exc.value.code == 2
    field = REAL_FLAG_FIELDS[flag]
    assert f"error: {field} must be finite, got {value}\n" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_args(["run", "--experiment", "1", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, field", [
    (["--max-iters", "0"], "max_iters"),
    (["--rel-tol", "-1"], "rel_tol"),
    (["--mu", "0"], "mu"),
    (["--sigma2", "-1"], "noise_variance"),
    (["--tau", "0", "--solver", "salsa"], "tau"),  # automatic mu needs tau > 0
    (["--seed", "-5"], "seed"),
    (["--solver", "ist", "--solver", "ist"], "['ist'] requested more than once"),
])
def test_setting_the_library_rejects_is_usage_error(tmp_path, capsys, flags, field):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "1", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


def test_zero_tau_without_salsa_runs(tmp_path):
    # automatic mu is SALSA's alone; IST needs no mu at tau == 0
    out = tmp_path / "out"
    code = main(["run", "--experiment", "1", "--tau", "0", "--solver", "ist",
                 "--max-iters", "3", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "1_report.json").read_text())["solvers"]["ist"]["iterations"] == 3


def test_seed_is_a_run_flag_only(tmp_path, capsys):
    # deblur adds no noise and no solver reads a seed, so deblur has no --seed
    img = make_pgm(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_args(["deblur", "--image", str(img), "--blur", "uniform9",
                    "--tau", "0.1", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert parse_args(["run", "--experiment", "1", "--seed", "3"]).seed == 3


def test_negative_tau_rejected(tmp_path):
    img = make_pgm(tmp_path)
    with pytest.raises(SystemExit):
        parse_args(["deblur", "--image", str(img), "--blur", "uniform9",
                    "--tau", "-0.5"])


# ---------------------------------------------------------------------------
# artifacts


PHASE_S = {"spectral": 0.5, "irfft2": 0.25, "analysis+sweep": 2.0, "synthesis": 1.0,
           "rfft2": 0.25, "bookkeeping": 0.125}


def fabricated_report():
    trace = SolverTrace([
        TraceRecord(0, 0.0, 100.0, None),
        TraceRecord(1, 0.125, 50.5, 1.25),
        TraceRecord(2, 0.25, 25.125, 2.5),
    ])
    result = SolverResult(name="salsa", objective=25.125, iterations=2,
                          seconds=0.25, isnr_db=2.5, trace=trace)
    spec = ExperimentSpec(id="t", blur_kind=BlurKind.UNIFORM9, noise_variance=0.25,
                          tau=0.05, seed=5)
    return ExperimentReport(spec=spec, input_sha256="ab" * 32,
                            target_objective=None,
                            results={"salsa": result})


def test_empty_trace_csv_is_header_only(tmp_path):
    report = fabricated_report()
    report.results["salsa"].trace = SolverTrace()
    _write_artifacts(report, tmp_path)
    # the fabricated result has no image, so no PGM
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t_report.json", "t_salsa_trace.csv"]
    assert (tmp_path / "t_salsa_trace.csv").read_text() == "iter,elapsed_s,objective,isnr_db\n"


def test_trace_csv_rows_and_round_trip(tmp_path):
    report = fabricated_report()
    _write_artifacts(report, tmp_path)
    raw = (tmp_path / "t_salsa_trace.csv").read_bytes()
    assert b"\r" not in raw  # LF only
    lines = raw.decode().splitlines()
    assert lines[0] == "iter,elapsed_s,objective,isnr_db"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # missing ISNR -> empty field
    for line, rec in zip(lines[1:], report.results["salsa"].trace.records):
        cells = line.split(",")
        assert int(cells[0]) == rec.iteration
        assert float(cells[1]) == rec.elapsed_s  # 17 sig digits round-trips
        assert float(cells[2]) == rec.objective
        if rec.isnr_db is not None:
            assert float(cells[3]) == rec.isnr_db


def test_report_json_contents(tmp_path):
    report = fabricated_report()
    report.results["salsa"].trace.phase_s = PHASE_S
    report.results["ist"] = SolverResult(name="ist", diverged=True, error="boom")
    _write_artifacts(report, tmp_path)
    raw = (tmp_path / "t_report.json").read_bytes()
    assert b"\r" not in raw  # LF only
    doc = json.loads(raw)
    assert doc["experiment"]["id"] == "t"
    assert doc["experiment"]["blur_kind"] == "uniform9"
    assert doc["input_sha256"] == "ab" * 32
    assert doc["intensity_scale"] == [0.0, 255.0]
    block = doc["solvers"]["salsa"]
    assert block["objective"] == 25.125
    assert block["iterations"] == 2
    assert block["diverged"] is False
    assert block["phase_s"] == PHASE_S
    assert doc["solvers"]["ist"]["phase_s"] == {}  # diverged: no phases


def test_report_json_handles_infinite_isnr(tmp_path):
    report = fabricated_report()
    report.results["salsa"].isnr_db = math.inf
    _write_artifacts(report, tmp_path)
    doc = json.loads((tmp_path / "t_report.json").read_text())
    assert doc["solvers"]["salsa"]["isnr_db"] is None  # JSON-safe


# ---------------------------------------------------------------------------
# main


def test_run_writes_stable_artifacts(tmp_path, capsys):
    img = make_pgm(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--experiment", "1", "--image", str(img),
                 "--out", str(out), "--max-iters", "8",
                 "--solver", "salsa", "--solver", "ist"])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["1_ist.pgm", "1_ist_trace.csv", "1_report.json",
                     "1_salsa.pgm", "1_salsa_trace.csv"]
    doc = json.loads((out / "1_report.json").read_text())
    assert doc["experiment"]["id"] == "1"
    assert set(doc["solvers"]) == {"salsa", "ist"}
    for block in doc["solvers"].values():
        assert set(block["phase_s"]) == PHASES
    assert "1 salsa:" in capsys.readouterr().out


def test_report_key_order_is_pinned(tmp_path):
    # the report's layout is a pinned format: its key order at every level
    img = make_pgm(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--experiment", "1", "--image", str(img), "--out", str(out),
                 "--max-iters", "2", "--solver", "salsa", "--solver", "fista"]) == 0
    doc = json.loads((out / "1_report.json").read_text())
    assert list(doc) == ["experiment", "intensity_scale", "input_sha256",
                         "target_objective", "solvers"]
    assert list(doc["experiment"]) == [f.name for f in dataclasses.fields(ExperimentSpec)]
    assert list(doc["solvers"]) == ["salsa", "fista"]
    for block in doc["solvers"].values():
        assert list(block) == ["objective", "iterations", "seconds", "isnr_db", "diverged",
                               "error", "reached_target", "splitting_residual", "phase_s"]


def test_run_uses_builtin_phantom_when_no_image(tmp_path):
    out = tmp_path / "r"
    code = main(["run", "--experiment", "2A", "--out", str(out),
                 "--max-iters", "3"])
    assert code == 0
    assert (out / "2A_salsa.pgm").exists()
    assert read_image(out / "2A_salsa.pgm").shape == (256, 256)


def test_deblur_end_to_end(tmp_path):
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.3136, seed=4)
    obs = tmp_path / "obs.pgm"
    write_image(y, obs)
    out = tmp_path / "d"
    code = main(["deblur", "--image", str(obs), "--blur", "uniform9",
                 "--tau", "0.05", "--mu", "auto", "--max-iters", "20",
                 "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["deblur_report.json", "deblur_salsa.pgm",
                     "deblur_salsa_trace.csv"]
    trace = (out / "deblur_salsa_trace.csv").read_text().splitlines()
    assert trace[0] == "iter,elapsed_s,objective,isnr_db"
    assert all(line.endswith(",") for line in trace[1:])  # no truth, no ISNR
    doc = json.loads((out / "deblur_report.json").read_text())
    assert set(doc["solvers"]["salsa"]["phase_s"]) == PHASES


def test_deblur_and_run_solve_in_float32(tmp_path, monkeypatch):
    # both subcommands solve through solve_observation, which hands the
    # solver the observation in float32: deblur's 8-bit observation is
    # exact there, and run's is degraded in float64 and cast once
    import salsa_deconv.bench as bench_module

    seen, solve = [], bench_module.salsa_solve

    def recording(y, *args, **kwargs):
        seen.append(y.dtype)
        return solve(y, *args, **kwargs)

    monkeypatch.setattr(bench_module, "salsa_solve", recording)
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.3136, seed=4)
    obs = tmp_path / "obs.pgm"
    write_image(y, obs)
    assert main(["deblur", "--image", str(obs), "--blur", "uniform9", "--tau", "0.05",
                 "--max-iters", "5", "--out", str(tmp_path / "d")]) == 0
    assert read_image(obs).dtype == np.float64  # read_image keeps its float64 contract
    assert main(["run", "--experiment", "1", "--image", str(obs), "--max-iters", "2",
                 "--out", str(tmp_path / "r")]) == 0
    assert seen == [np.float32, np.float32]
    assert read_image(tmp_path / "d" / "deblur_salsa.pgm").shape == (32, 32)


def test_write_failure_names_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    blocked = out / "1_salsa_trace.csv"
    blocked.mkdir(parents=True)  # a directory where the trace goes
    assert main(["run", "--experiment", "1", "--max-iters", "2", "--out", str(out)]) == 1
    assert f"error: cannot write {blocked}: " in capsys.readouterr().err


def test_failed_write_leaves_no_report_beside_other_files(tmp_path, capsys):
    # a run into the --out of an earlier run, whose trace path is now a
    # directory: the failed run must not leave its new image beside the
    # earlier run's report; either both are the earlier run's, or the
    # report is gone
    out = tmp_path / "out"
    run = ["run", "--experiment", "1", "--out", str(out)]
    assert main(run + ["--max-iters", "2"]) == 0
    earlier = {name: (out / name).read_bytes() for name in ("1_salsa.pgm", "1_report.json")}
    blocked = out / "1_salsa_trace.csv"
    blocked.unlink()
    blocked.mkdir()
    assert main(run + ["--max-iters", "9"]) == 1
    assert f"error: cannot write {blocked}: " in capsys.readouterr().err
    if (out / "1_report.json").exists():
        assert {name: (out / name).read_bytes() for name in earlier} == earlier


def test_psf_dump(capsys):
    assert main(["psf-dump", "--blur", "invquad"]) == 0
    out = capsys.readouterr().out
    assert "invquad: 15x15" in out
    assert len(out.splitlines()) == 16


def test_divergence_exits_nonzero(tmp_path, monkeypatch, capsys):
    img = make_pgm(tmp_path)

    def blow_up(*args, **kwargs):
        raise DivergenceError("non-finite coefficients at iteration 3")

    monkeypatch.setattr("salsa_deconv.bench.salsa_solve", blow_up)
    code = main(["run", "--experiment", "1", "--image", str(img),
                 "--out", str(tmp_path / "f"), "--max-iters", "4"])
    assert code == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_malformed_pgm_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    code = main(["deblur", "--image", str(bad), "--blur", "uniform9",
                 "--tau", "0.1", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_console_entry_point_runs():
    # the child process imports the package from this checkout's source root
    src = str(Path(salsa_deconv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "salsa_deconv.cli", "psf-dump", "--blur", "uniform9"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0
    assert "uniform9" in proc.stdout

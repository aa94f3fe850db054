import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

import salsa_deconv.bench as bench_module
from salsa_deconv.bench import (
    DEFAULT_EXPERIMENTS,
    ExperimentSpec,
    SolverResult,
    degrade,
    isnr,
    phantom,
    run_experiment,
    solve_observation,
)
from salsa_deconv.cli import _write_artifacts
from salsa_deconv.convolution import BlurKind, apply_filter, build_psf, psf_to_otf
from salsa_deconv.frame import FrameSpec
from salsa_deconv.prox import Regularizer
from salsa_deconv.solver import fista_solve, ist_solve, salsa_solve


def quick_spec(**overrides):
    base = dict(id="t", blur_kind=BlurKind.UNIFORM9, noise_variance=0.25,
                tau=0.05, seed=5, solvers=("salsa",),
                rel_tol=1e-5, max_iters=40)
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# phantom


def test_phantom_deterministic_and_in_range():
    a = phantom(64)
    b = phantom(64)
    assert np.array_equal(a, b)
    assert a.shape == (64, 64)
    assert a.min() >= 0.0 and a.max() <= 255.0
    assert np.array_equal(a, np.rint(a))  # integer-valued, PGM-lossless


def test_phantom_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        phantom(8)
    with pytest.raises(ValueError, match="phantom size must be an integer"):
        phantom(16.5)  # else a 17x17 scene
    assert phantom(np.int64(16)).shape == (16, 16)


def test_phantom_has_structure():
    a = phantom(256)
    assert a.std() > 20.0  # not a flat field


# ---------------------------------------------------------------------------
# degrade


def test_degrade_identity_no_noise_is_exact():
    x = phantom(32)
    psf = build_psf(BlurKind.UNIFORM9, size=1)
    y = degrade(x, psf, 0.0, seed=3)
    assert np.array_equal(y, x)


def test_degrade_no_noise_equals_filtering():
    x = phantom(32)
    psf = build_psf(BlurKind.GAUSSIAN, size=5)
    y = degrade(x, psf, 0.0, seed=3)
    want = apply_filter(psf_to_otf(psf, x.shape), x)
    assert np.array_equal(y, want)


def test_degrade_noise_statistics():
    x = phantom(256)
    psf = build_psf(BlurKind.UNIFORM9)
    y = degrade(x, psf, 8.0, seed=99)
    noise = y - apply_filter(psf_to_otf(psf, x.shape), x)
    assert abs(noise.var() - 8.0) <= 0.05 * 8.0
    assert abs(noise.mean()) <= 0.05


def test_degrade_deterministic_and_seed_sensitive():
    x = phantom(32)
    psf = build_psf(BlurKind.UNIFORM9)
    a = degrade(x, psf, 2.0, seed=7)
    b = degrade(x, psf, 2.0, seed=7)
    c = degrade(x, psf, 2.0, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_degrade_noise_stream_pinned():
    # freezes the documented PRNG contract: PCG64(seed) -> two uniform
    # blocks -> Box-Muller; a regression here breaks stored artifacts
    x = np.zeros((4, 4))
    psf = build_psf(BlurKind.UNIFORM9, size=1)
    y = degrade(x, psf, 1.0, seed=42)
    rng = np.random.Generator(np.random.PCG64(42))
    u1 = rng.random(16)
    u2 = rng.random(16)
    want = (np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)).reshape(4, 4)
    assert np.array_equal(y, want)


def test_degrade_one_tap_kernel_scales_by_its_tap():
    # the 1x1 shortcut once returned x for any tap
    x = phantom(32)
    taps = np.array([[2.0]])
    y = degrade(x, taps, 0.0, seed=0)
    assert np.array_equal(y, 2.0 * x)
    filtered = apply_filter(psf_to_otf(taps, x.shape), x)
    assert np.abs(y - filtered).max() <= 1e-12 * np.abs(y).max()


@pytest.mark.parametrize("taps", [[[math.nan]], [[math.inf]],
                                  [[0.25, 0.25, 0.25], [0.0, math.nan, 0.0], [0.25, 0.0, 0.0]]],
                         ids=["1x1-nan", "1x1-inf", "3x3-nan"])
def test_degrade_rejects_non_finite_taps(taps):
    # a [[nan]] kernel once passed silently through the 1x1 shortcut
    with pytest.raises(ValueError, match="^kernel taps holds NaN or inf values$"):
        degrade(phantom(32), np.array(taps), 0.0, seed=0)


def test_degrade_rejects_an_image_that_is_not_finite_and_2d():
    psf = build_psf(BlurKind.UNIFORM9, size=3)
    x = phantom(16)
    with pytest.raises(ValueError, match=re.escape("x must be a 2-D image, got shape (16,)")):
        degrade(x[0], psf, 0.0, seed=0)
    x[3, 4] = math.nan
    with pytest.raises(ValueError, match="^x holds NaN or inf values$"):
        degrade(x, psf, 1.0, seed=0)


def test_degrade_rejects_negative_variance():
    with pytest.raises(ValueError):
        degrade(phantom(32), build_psf(BlurKind.UNIFORM9), -1.0, seed=0)


# ---------------------------------------------------------------------------
# isnr


def test_isnr_zero_when_estimate_is_observation():
    rng = np.random.default_rng(60)
    x = rng.standard_normal((8, 8))
    y = x + rng.standard_normal((8, 8))
    assert isnr(x, y, y) == pytest.approx(0.0, abs=1e-12)


def test_isnr_ten_db_by_construction():
    x = np.zeros((4, 4))
    y = np.zeros((4, 4))
    y[0, 0] = math.sqrt(10.0)
    x_hat = np.zeros((4, 4))
    x_hat[0, 0] = 1.0
    assert isnr(x, y, x_hat) == pytest.approx(10.0, rel=1e-12)


def test_isnr_perfect_reconstruction_is_infinite():
    x = phantom(32)
    y = x + 1.0
    assert isnr(x, y, x.copy()) == math.inf


def test_isnr_against_noiseless_identity_observation(tmp_path):
    # ||y - x|| = 0: no estimate but x itself improves on y
    x = phantom(32)
    assert isnr(x, x, x + 1.0) == -math.inf
    assert isnr(x, x, x.copy()) == math.inf
    spec = quick_spec(noise_variance=0.0, max_iters=3)
    report = solve_observation(x, spec, x_true=x)
    result = report.results["salsa"]
    assert not result.diverged and result.isnr_db == -math.inf
    # the solve starts from y, which is x here
    assert [r.isnr_db for r in result.trace.records] == [math.inf] + [-math.inf] * 3
    _write_artifacts(report, tmp_path)
    doc = json.loads((tmp_path / "t_report.json").read_text())
    assert doc["solvers"]["salsa"]["isnr_db"] is None


def test_isnr_sums_float32_images_in_float64():
    # ||y - x||^2 = 2**24 + 32767 is odd and above 2**24, so no float32 holds it
    side = 1 << 7
    x = np.zeros((2 * side, side), np.float32)
    y = np.ones_like(x)
    y[0, 0] = 2.0**12
    x_hat = np.ones_like(x)
    want = 10.0 * math.log10((2.0**24 + x.size - 1) / x.size)
    assert isnr(x, y, x_hat) == want


def test_isnr_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        isnr(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((8, 8)))


def test_isnr_checks_its_images():
    # as every public entry that takes an image: an array-like is read as one,
    # and a 1-D, empty or non-finite image is rejected by name
    x, y, x_hat = np.zeros((2, 2)), np.full((2, 2), 2.0), np.ones((2, 2))
    assert isnr(x.tolist(), y.tolist(), x_hat.tolist()) == isnr(x, y, x_hat)
    bad_hat = x_hat.copy()
    bad_hat[1, 0] = math.nan
    for args, message in (((x, y, bad_hat), "x_hat holds NaN or inf values"),
                          ((x, np.full((2, 2), math.inf), x_hat), "y holds NaN or inf values"),
                          ((np.ones(4), np.zeros(4), 0.5 * np.ones(4)),
                           "x_true must be a 2-D image, got shape (4,)"),
                          ((np.zeros((0, 4)),) * 3, "x_true is empty, got shape (0, 4)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            isnr(*args)


# ---------------------------------------------------------------------------
# ExperimentSpec / defaults


def test_spec_validation():
    with pytest.raises(ValueError):
        quick_spec(noise_variance=-1.0)
    with pytest.raises(ValueError):
        quick_spec(solvers=("salsa", "newton"))
    with pytest.raises(ValueError):
        quick_spec(target_objective="fast")


@pytest.mark.parametrize("name", ["noise_variance", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        quick_spec(**{name: value})


@pytest.mark.parametrize("overrides, field", [
    ({"max_iters": 0}, "max_iters"),
    ({"rel_tol": -1.0}, "rel_tol"),
    ({"mu": 0.0}, "mu"),
    ({"tau": -0.1}, "tau"),
    ({"tau": 0.0}, "tau"),  # automatic mu with SALSA
    ({"tau": 0.0, "solvers": ("ist",), "target_objective": "auto"}, "tau"),  # SALSA probe
    ({"target_objective": math.nan}, "target_objective"),
    ({"seed": -5}, "seed"),  # the noise stream's seed
    ({"solvers": ("ist", "salsa", "ist")}, r"\['ist'\] requested more than once"),
    ({"solvers": ()}, "at least one solver"),  # else the report has no results
    ({"max_iters": 2.5}, "max_iters must be an integer"),
    ({"max_iters": True}, "max_iters must be an integer"),
    ({"seed": 2.5}, "seed must be an integer"),  # else seed 2's noise
    ({"solvers": "salsa"}, "solvers must be a tuple of solver names, got 'salsa'"),
])
def test_spec_rejects_bad_solver_settings(overrides, field):
    with pytest.raises(ValueError, match=field):
        quick_spec(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"blur_kind": "box"}, "'box' is not a valid BlurKind"),
    ({"blur_kind": BlurKind.GAUSSIAN, "blur_sigma": 0.0}, "gaussian sigma must be positive"),
    ({"blur_kind": BlurKind.GAUSSIAN, "blur_sigma": -1.0}, "gaussian sigma"),
    ({"blur_kind": BlurKind.GAUSSIAN, "blur_sigma": math.nan}, "gaussian sigma"),
    ({"blur_sigma": 2.0}, "sigma is only meaningful for gaussian"),  # uniform9 blur
])
def test_spec_rejects_bad_blur_and_frame_settings(overrides, message):
    # checked at construction, not first when the spec is run
    with pytest.raises(ValueError, match=message):
        quick_spec(**overrides)


def test_spec_zero_tau_needs_no_mu_without_salsa():
    spec = quick_spec(tau=0.0, solvers=("ist", "fista"), max_iters=3)
    report = run_experiment(spec, phantom(32))
    assert [r.iterations for r in report.results.values()] == [3, 3]


def test_blur_kind_given_by_name_is_stored_and_reported(tmp_path):
    # a spec may name its blur family by string; it is stored as the
    # BlurKind, so the report of its run is written like any other
    spec = quick_spec(id="w", blur_kind="gaussian", max_iters=3)
    assert spec.blur_kind is BlurKind.GAUSSIAN
    _write_artifacts(run_experiment(spec, phantom(32)), tmp_path)
    doc = json.loads((tmp_path / "w_report.json").read_text())
    assert doc["experiment"]["blur_kind"] == "gaussian"


def test_automatic_mu_is_the_explicit_rule():
    # mu=None and mu=0.1*tau are the same solve, to the bit
    spec = quick_spec(tau=0.2, solvers=("salsa", "fista"), target_objective="auto")
    x = phantom(32)
    y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
    auto = solve_observation(y, spec, x_true=x)
    explicit = solve_observation(y, dataclasses.replace(spec, mu=0.1 * spec.tau), x_true=x)
    assert auto.input_sha256 == explicit.input_sha256
    assert auto.target_objective == explicit.target_objective
    for name in spec.solvers:
        a, b = auto.results[name], explicit.results[name]
        assert [(r.iteration, r.objective, r.isnr_db) for r in a.trace.records] == \
            [(r.iteration, r.objective, r.isnr_db) for r in b.trace.records]
        assert a.splitting_residual == b.splitting_residual
        assert np.array_equal(a.image, b.image)


def test_default_experiment_table():
    assert set(DEFAULT_EXPERIMENTS) == {"1", "2A", "2B", "3A", "3B"}
    e1 = DEFAULT_EXPERIMENTS["1"]
    assert e1.blur_kind is BlurKind.UNIFORM9
    assert e1.noise_variance == pytest.approx(0.56**2, rel=1e-12)
    assert DEFAULT_EXPERIMENTS["2A"].blur_kind is BlurKind.GAUSSIAN
    assert DEFAULT_EXPERIMENTS["2A"].noise_variance == 2.0
    assert DEFAULT_EXPERIMENTS["2B"].noise_variance == 8.0
    assert DEFAULT_EXPERIMENTS["3A"].blur_kind is BlurKind.INVERSE_QUADRATIC
    assert DEFAULT_EXPERIMENTS["3A"].noise_variance == 2.0
    assert DEFAULT_EXPERIMENTS["3B"].noise_variance == 8.0
    assert FrameSpec().levels == 4  # the frame of every harness solve
    for spec in DEFAULT_EXPERIMENTS.values():
        # the paper's kernels: 9x9 uniform, 15x15 Gaussian and inverse-quadratic
        side = 9 if spec.blur_kind is BlurKind.UNIFORM9 else 15
        assert spec.psf().shape == (side, side)
        assert spec.tau > 0
        assert spec.mu is None  # 0.1*tau rule


# ---------------------------------------------------------------------------
# run_experiment


def test_single_solver_report():
    report = run_experiment(quick_spec(), phantom(32))
    assert list(report.results) == ["salsa"]
    r = report.results["salsa"]
    assert not r.diverged
    assert r.objective == report.results["salsa"].trace.final.objective
    assert r.image.shape == (32, 32)
    assert r.splitting_residual is not None


def test_repeat_runs_bitwise_identical():
    spec = quick_spec(solvers=("salsa", "ist"))
    a = run_experiment(spec, phantom(32))
    b = run_experiment(spec, phantom(32))
    assert a.input_sha256 == b.input_sha256
    for name in spec.solvers:
        ta = a.results[name].trace
        tb = b.results[name].trace
        assert [r.objective for r in ta.records] == [r.objective for r in tb.records]
        assert [r.isnr_db for r in ta.records] == [r.isnr_db for r in tb.records]


def test_input_hash_tracks_problem_instance():
    a = run_experiment(quick_spec(), phantom(32))
    b = run_experiment(quick_spec(seed=6), phantom(32))
    c = run_experiment(quick_spec(tau=0.07), phantom(32))
    assert a.input_sha256 != b.input_sha256
    assert a.input_sha256 != c.input_sha256


def test_input_hash_covers_the_frame_depth():
    # the digest names every solver input: the float32 observation, the OTF,
    # tau and the depth of the harness's frame, which no spec field sets
    spec = quick_spec()
    y = degrade(phantom(32), spec.psf(), spec.noise_variance, spec.seed)
    otf = psf_to_otf(spec.psf(), y.shape)
    want = hashlib.sha256(y.astype(np.float32).tobytes() + otf.tobytes()
                          + struct.pack("<dq", spec.tau, 4)).hexdigest()
    assert solve_observation(y, spec).input_sha256 == want


def test_auto_target_mode_runs_all_solvers_to_common_target():
    spec = quick_spec(solvers=("salsa", "fista"), target_objective="auto",
                      blur_kind=BlurKind.GAUSSIAN, blur_sigma=1.0,
                      max_iters=4000, rel_tol=1e-6)
    report = run_experiment(spec, phantom(32))
    assert report.target_objective is not None
    for r in report.results.values():
        assert r.reached_target is True
        assert r.objective <= report.target_objective


def float64_solve(solve, y, spec, target=None, x_true=None):
    """A direct float64 solve of ``y`` with ``spec``'s problem and settings, stopped at
    ``target`` if one is given; returns the image and the trace."""
    otf = psf_to_otf(spec.psf(), y.shape)
    cfg = bench_module._solver_cfg(spec, target)
    isnr_fn = None if x_true is None else lambda image: isnr(x_true, y, image)
    _, image, trace = solve(y, otf, FrameSpec(), Regularizer(), cfg, isnr_fn=isnr_fn)
    assert image.dtype == np.float64
    return image, trace


@pytest.mark.parametrize("exp_id", list(DEFAULT_EXPERIMENTS))
def test_float32_observation_solves_like_float64(exp_id):
    # solve_observation iterates in float32, where an 8-bit observation is
    # exact: against direct float64 solves of the same observation, every
    # solver takes as many iterations to the same stop (SALSA's rel_tol,
    # then the common target it sets for IST and FISTA, as "auto" does) and
    # lands within 1e-6 of its objective, 1e-3 dB of its ISNR and one 8-bit
    # level in at most 0.1% of the pixels
    spec = dataclasses.replace(DEFAULT_EXPERIMENTS[exp_id], solvers=("salsa", "ist", "fista"),
                               rel_tol=2e-2, max_iters=1000, target_objective="auto")
    x = phantom(128)
    y = np.rint(np.clip(degrade(x, spec.psf(), spec.noise_variance, spec.seed), 0.0, 255.0))
    got = solve_observation(y, spec, x_true=x)
    target = float64_solve(salsa_solve, y, spec)[1].final.objective
    assert got.target_objective == pytest.approx(target, rel=1e-6)
    for name, solve in (("salsa", salsa_solve), ("ist", ist_solve), ("fista", fista_solve)):
        image, trace = float64_solve(solve, y, spec, target, x_true=x)
        g, w = got.results[name], trace.final
        assert g.image.dtype == np.float32
        assert g.reached_target and w.objective <= target
        assert g.iterations == w.iteration, name
        assert g.objective == pytest.approx(w.objective, rel=1e-6), name
        assert g.isnr_db == pytest.approx(w.isnr_db, abs=1e-3), name
        levels = [np.rint(np.clip(im, 0.0, 255.0)) for im in (g.image, image)]
        moved = np.abs(levels[0] - levels[1])
        assert moved.max() <= 1.0 and np.count_nonzero(moved) <= 0.001 * moved.size, name


def test_experiments_at_256_solve_in_float32_like_float64():
    # the benchmark's problems at their frozen seeds: the harness's float32
    # solve stops where a float64 solve of the same observation does, within
    # 1e-6 of its objective, 1e-3 dB of its ISNR and 1e-4 of its splitting
    # residual, relatively
    x = phantom(256)
    for exp_id, spec in DEFAULT_EXPERIMENTS.items():
        y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
        got = solve_observation(y, spec, x_true=x).results["salsa"]
        image, trace = float64_solve(salsa_solve, y, spec, x_true=x)
        assert got.image.dtype == np.float32
        assert got.iterations == trace.final.iteration, exp_id
        assert got.objective == pytest.approx(trace.final.objective, rel=1e-6), exp_id
        assert got.isnr_db == pytest.approx(trace.final.isnr_db, abs=1e-3), exp_id
        assert got.splitting_residual == pytest.approx(trace.splitting_residual,
                                                       rel=1e-4), exp_id


def recording_salsa(monkeypatch):
    """Wrap ``bench.salsa_solve``; returns the coefficients and last iteration of each call."""
    calls = []
    solve = bench_module.salsa_solve

    def wrapper(y, otf, frame, reg, cfg, isnr_fn=None):
        coeffs, image, trace = solve(y, otf, frame, reg, cfg, isnr_fn=isnr_fn)
        calls.append((coeffs.bands, trace.final.iteration))
        return coeffs, image, trace

    monkeypatch.setattr(bench_module, "salsa_solve", wrapper)
    return calls


@pytest.mark.parametrize("reused", [True, False], ids=["probe-reused", "solved-again"])
def test_auto_target_salsa_result_equals_target_stopped_solve(monkeypatch, reused):
    # the "auto" probe is SALSA's result when its objective first reaches
    # its final value at its last record; otherwise (here: capped at 17
    # iterations while the objective rises, with mu = 0.01 tau) SALSA is
    # solved again to the target.  Either way the reported SALSA result is
    # what a separate solve stopped at that target gives
    if reused:
        spec = quick_spec(solvers=("ist", "salsa"), target_objective="auto", max_iters=200)
    else:
        spec = quick_spec(solvers=("ist", "salsa"), target_objective="auto", max_iters=17,
                          rel_tol=0.0, mu=0.0005)
    x = phantom(32)
    y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
    calls = recording_salsa(monkeypatch)
    report = solve_observation(y, spec, x_true=x)
    assert list(report.results) == ["ist", "salsa"]
    assert len(calls) == (1 if reused else 2)
    got, (got_bands, _) = report.results["salsa"], calls[-1]
    if not reused:
        assert calls[0][1] == spec.max_iters
        assert got.iterations < spec.max_iters

    separate = dataclasses.replace(spec, target_objective=report.target_objective,
                                   solvers=("salsa",))
    want = solve_observation(y, separate, x_true=x).results["salsa"]
    assert want.reached_target is True and want.isnr_db is not None
    for f in dataclasses.fields(SolverResult):
        if f.name not in ("seconds", "trace", "image"):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    records = lambda r: [(rec.iteration, rec.objective, rec.isnr_db) for rec in r.trace.records]
    assert records(got) == records(want)
    assert np.array_equal(got.image, want.image)
    assert np.array_equal(got_bands, calls[-1][0])


def test_explicit_target_recorded():
    probe = run_experiment(quick_spec(max_iters=200, rel_tol=1e-6), phantom(32))
    target = probe.results["salsa"].objective * 1.05
    report = run_experiment(quick_spec(target_objective=target, max_iters=200),
                            phantom(32))
    assert report.target_objective == pytest.approx(target)
    assert report.results["salsa"].reached_target is True


def test_divergence_recorded_not_raised():
    # with an "auto" target the probe that sets it diverges first; every
    # solver is then recorded as diverged with the probe's error, in the
    # spec's order also when SALSA is not first.  The observation lies
    # within float32's range (one outside it is rejected up front), but the
    # float32 solve overflows, so the objective is not finite.
    x = phantom(32) * 1e36
    for solvers in (("salsa", "fista"), ("fista", "salsa")):
        for target in (None, "auto"):
            spec = quick_spec(solvers=solvers, target_objective=target)
            y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
            assert np.isfinite(y.astype(np.float32)).all()
            with np.errstate(over="ignore", invalid="ignore"):
                report = run_experiment(spec, x)
            assert report.target_objective is None
            assert list(report.results) == list(spec.solvers)
            for r in report.results.values():
                assert r.diverged
                assert "iteration" in r.error
                assert ("probe" in r.error) == (target == "auto")
                assert r.image is None


def test_traced_isnr_equals_isnr_of_each_iterate(monkeypatch):
    # the trace's hook computes ||y - x||^2 once per solve; every record
    # must still equal isnr() on the iterate's image, to the bit
    spec = quick_spec(max_iters=12, rel_tol=0.0)
    x = phantom(32)
    y = degrade(x, spec.psf(), spec.noise_variance, spec.seed)
    images = []
    solve = bench_module.salsa_solve

    def wrapper(y, otf, frame, reg, cfg, isnr_fn=None):
        def hook(image):
            images.append(image.copy())
            return isnr_fn(image)
        return solve(y, otf, frame, reg, cfg, isnr_fn=hook)

    monkeypatch.setattr(bench_module, "salsa_solve", wrapper)
    trace = solve_observation(y, spec, x_true=x).results["salsa"].trace
    assert len(images) == len(trace.records) == 13
    assert [r.isnr_db for r in trace.records] == [isnr(x, y, image) for image in images]


def test_solve_observation_rejects_truth_of_another_shape():
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.25, 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_observation(y, quick_spec(), x_true=phantom(64))


@pytest.mark.parametrize("name", ["y", "x_true"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_observation_rejects_non_finite_images(name, bad, monkeypatch):
    # rejected up front, by name, instead of a divergence at iteration 0
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.25, 5)
    images = {"y": y, "x_true": phantom(32)}
    images[name][7, 3] = bad

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a non-finite observation")

    monkeypatch.setattr(bench_module, "salsa_solve", no_solve)
    with pytest.raises(ValueError, match=f"^{name} holds NaN or inf"):
        solve_observation(images["y"], quick_spec(), x_true=images["x_true"])


@pytest.mark.parametrize("name", ["y", "x_true"])
@pytest.mark.parametrize("shape", [(1024,), (2, 32, 32)], ids=["1-D", "3-D"])
def test_solve_observation_rejects_non_2d_images(name, shape, monkeypatch):
    # rejected up front, naming the shape, instead of failing to unpack it
    images = {"y": degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.25, 5),
              "x_true": phantom(32)}
    images[name] = np.ones(shape)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a non-2-D image")

    monkeypatch.setattr(bench_module, "salsa_solve", no_solve)
    want = re.escape(f"{name} must be a 2-D image, got shape {shape}")
    with pytest.raises(ValueError, match=want):
        solve_observation(images["y"], quick_spec(), x_true=images["x_true"])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_solve_observation_rejects_values_outside_float32(sign, monkeypatch):
    # finite in float64, but the cast to float32 would make it infinite
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.25, 5)
    y[7, 3] = sign * 1e300

    def no_solve(*args, **kwargs):
        raise AssertionError("solved an observation outside float32's range")

    monkeypatch.setattr(bench_module, "salsa_solve", no_solve)
    want = re.escape("y must lie within float32's range [-3.4028235e+38, 3.4028235e+38], "
                     "got a value of magnitude ")
    with pytest.raises(ValueError, match=f"^{want}1e\\+300$"):
        solve_observation(y, quick_spec(), x_true=phantom(32))
    with pytest.raises(ValueError, match=f"^{want}"):
        run_experiment(quick_spec(), phantom(32) * 1e300)


def test_solve_observation_without_truth_has_no_isnr():
    y = degrade(phantom(32), build_psf(BlurKind.UNIFORM9), 0.25, 5)
    report = solve_observation(y, quick_spec())
    rec = report.results["salsa"].trace.records[0]
    assert rec.isnr_db is None
    assert report.results["salsa"].isnr_db is None


def test_trace_equal_seeds_equal_objectives():
    spec = dataclasses.replace(DEFAULT_EXPERIMENTS["2B"], max_iters=15)
    a = run_experiment(spec, phantom(32))
    b = run_experiment(spec, phantom(32))
    assert ([r.objective for r in a.results["salsa"].trace.records]
            == [r.objective for r in b.results["salsa"].trace.records])

"""Tests for the benchmark's span tracer, calibrated clock and record of repeat counts."""

import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from spans import Tracer, array_bytes  # noqa: E402


@pytest.fixture
def fakepkg(monkeypatch):
    """``fakepkg.inner.leaf`` imported by name into ``fakepkg.outer``."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(a):
        return a * 2

    def run(a):
        return outer.leaf(a) + outer.leaf(a)

    def boom():
        raise RuntimeError("boom")

    inner.leaf = leaf
    outer.leaf = leaf
    outer.run = run
    outer.boom = boom
    for module in (pkg, inner, outer):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return types.SimpleNamespace(inner=inner, outer=outer, leaf=leaf, run=run, boom=boom)


def ticking(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children(fakepkg):
    # run: 0..10, leaf: 1..3 and 4..7 -> run self = 10 - (2 + 3)
    tracer = Tracer(clock=ticking([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    with tracer.patched("fakepkg", ["outer.run", "inner.leaf"]):
        assert fakepkg.outer.run(np.ones(3)).sum() == 12.0
    run, first, second = tracer.spans
    assert (first.parent, second.parent, run.parent) == (0, 0, None)
    assert run.duration == 10.0 and run.self_s == 5.0
    assert (first.self_s, second.self_s) == (2.0, 3.0)
    stats = tracer.stats()
    assert stats["inner.leaf"].calls == 2
    assert stats["inner.leaf"].self_s == 5.0
    assert stats["outer.run"].self_s == 5.0
    assert tracer.covered_s(0.0, 8.0) == 8.0


def test_every_importing_module_is_patched_then_restored(fakepkg):
    tracer = Tracer()
    with tracer.patched("fakepkg", ["inner.leaf", "inner.missing"]):
        assert fakepkg.inner.leaf is not fakepkg.leaf
        assert fakepkg.outer.leaf is fakepkg.inner.leaf
        fakepkg.outer.run(1.0)
    assert fakepkg.inner.leaf is fakepkg.leaf
    assert fakepkg.outer.leaf is fakepkg.leaf
    recorded = len(tracer.spans)
    assert recorded == 2
    fakepkg.outer.run(1.0)
    assert len(tracer.spans) == recorded


def test_exception_closes_span_and_restores(fakepkg):
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched("fakepkg", ["outer.boom"]):
            fakepkg.outer.boom()
    assert fakepkg.outer.boom is fakepkg.boom
    (span,) = tracer.spans
    assert span.end >= span.start
    assert tracer._stack == []


def test_kept_results_and_computed_bytes(fakepkg):
    tracer = Tracer()
    a = np.zeros((4, 5))
    keep = {"inner.leaf": lambda args, kwargs, result: (args[0], result)}
    with tracer.patched("fakepkg", ["inner.leaf"], keep=keep, count_bytes=("inner.leaf",)):
        fakepkg.outer.leaf(a)
    (kept,) = tracer.kept
    arg, result = kept.value
    assert arg is a and kept.span == 0
    assert tracer.spans[0].nbytes == 2 * a.nbytes == array_bytes((a,), result)


def test_package_wrappers_removed_after_traced_solve():
    from salsa_deconv import FrameSpec, Regularizer, SolverConfig, bench, solver
    from salsa_deconv.convolution import build_psf, psf_to_otf

    import run as benchmark

    modules = [m for n, m in sys.modules.items() if n.startswith("salsa_deconv")]
    before = [dict(vars(m)) for m in modules]
    y = bench.degrade(bench.phantom(32), build_psf("uniform9"), 1.0, 3)
    otf = psf_to_otf(build_psf("uniform9"), y.shape)
    cfg = SolverConfig(tau=0.1, max_iters=3)

    tracer = Tracer()
    targets = list(benchmark.LAYERS) + list(benchmark.SOLVERS.values())
    with tracer.patched("salsa_deconv", targets):
        assert solver.analysis_bands is not before[modules.index(solver)]["analysis_bands"]
        solver.salsa_solve(y, otf, FrameSpec(2), Regularizer(), cfg)
    stats = tracer.stats()
    assert stats["solver.salsa_solve"].calls == 1
    assert stats["prox.prox"].calls == 3
    assert stats["frame.synthesis_bands"].calls > 0
    for module, saved in zip(modules, before):
        for attr, value in saved.items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr} still wrapped"


def test_repeat_record_is_keyed_by_source(tmp_path, monkeypatch):
    import run as benchmark

    monkeypatch.setattr(benchmark, "OUT", tmp_path)
    workload = types.SimpleNamespace(name="w")

    def check(iterations, source):
        runner = benchmark.Runner(workload, seed=5)
        runner.check_repeat([{"iterations": iterations}], None, source)
        return runner.failures

    assert check([["salsa", 10]], "a") == []
    assert check([["salsa", 10]], "a") == []
    assert check([["salsa", 9]], "b") == []
    assert check([["salsa", 9]], "a") != []


@pytest.mark.parametrize("probe_s, scale", [(0.008, 1.0), (0.016, 0.5)])
def test_calibrated_clock_scales_by_probe_and_leaves_it_out(monkeypatch, probe_s, scale):
    monkeypatch.setattr(calibrate, "PROBE_REF_S", 0.008)
    monkeypatch.setattr(calibrate, "probe", lambda: time.sleep(probe_s))
    previous = signal.getsignal(signal.SIGALRM)
    clock = calibrate.CalibratedClock(interval=0.02)
    with clock.running():
        c0, t0, p0 = clock.now(), time.perf_counter(), clock.probe_s
        time.sleep(0.3)  # the alarms interrupt it; it sleeps until its deadline
        c1, t1, probes = clock.now(), time.perf_counter(), clock.probe_s - p0
    assert probes > 0.0
    assert c1 - c0 == pytest.approx((t1 - t0 - probes) * scale, rel=0.1)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

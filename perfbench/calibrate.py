"""A wall clock that runs at the machine's reference speed.

The benchmark shares a host whose speed drifts by tens of percent within
seconds; CPU time drifts with it, so neither clock can time a 30 s run to
a few percent.  :class:`CalibratedClock` interleaves the program with a
fixed probe: an alarm interrupts the program every ``interval`` seconds
and times :func:`probe`, a few milliseconds of the same kind of work the
package does (small 2-D FFTs, ``np.roll`` stencils and elementwise passes
over a 6 MB stack).  Each stretch of program time between two probes is
scaled by ``PROBE_REF_S / probe time``, with the probe time taken as the
median of the last three probes, and the probes' own time is left out.
So :meth:`CalibratedClock.now` counts seconds of program work as they
would read on a machine where the probe takes ``PROBE_REF_S``: a program
that gets slower reads slower, a host that gets slower does not.
"""

from __future__ import annotations

import contextlib
import signal
import time
from statistics import median

import numpy as np

# The probe's median wall time on a 2-core 2.1 GHz Xeon VM; it sets the scale only.
PROBE_REF_S = 0.008
PROBE_WINDOW = 3

_rng = np.random.default_rng(0)
# 240 is a size no workload uses, so the probe warms no FFT plan of the program.
_IMAGE = _rng.standard_normal((240, 240))
_GAIN = np.exp(-np.arange(240 * 121).reshape(240, 121) / 1e4)
_STACK = _rng.standard_normal((13, 240, 240))
_SCRATCH = np.empty_like(_STACK)


def probe() -> None:
    """A fixed amount of FFT, stencil and elementwise work on fixed inputs."""
    for _ in range(2):
        b = np.fft.irfft2(np.fft.rfft2(_IMAGE) * _GAIN, s=_IMAGE.shape)
        c = 0.5 * (b + np.roll(b, 1, 0))
        c = 0.5 * (c - np.roll(c, 2, 1))
    np.multiply(_STACK, 0.5, out=_SCRATCH)
    np.abs(_SCRATCH, out=_SCRATCH)
    np.subtract(_SCRATCH, 0.1, out=_SCRATCH)
    np.maximum(_SCRATCH, 0.0, out=_SCRATCH)


class CalibratedClock:
    """Seconds of program work at reference speed, while :meth:`running`.

    Single-threaded use only: the probes run in a SIGALRM handler on the
    main thread, between the program's bytecodes.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.probes: list[float] = []
        self.probe_s = 0.0
        self._state = (0.0, time.perf_counter(), 1.0)  # (seconds so far, since, scale)
        self._running = False

    def _probe(self) -> float:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.probe_s += t1 - t0
        return t1

    def _scale(self) -> float:
        return PROBE_REF_S / median(self.probes[-PROBE_WINDOW:])

    def _tick(self, signum=None, frame=None) -> None:
        acc, since, scale = self._state
        acc += (time.perf_counter() - since) * scale
        after = self._probe()
        self._state = (acc, after, self._scale())
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def now(self) -> float:
        """Calibrated seconds since the clock was created (probe time excluded)."""
        while True:
            state = self._state
            value = state[0] + (time.perf_counter() - state[1]) * state[2]
            if self._state is state:  # no probe ran in between
                return value

    @contextlib.contextmanager
    def running(self):
        """Probe every ``interval`` wall seconds until the ``with`` block exits."""
        for _ in range(PROBE_WINDOW):  # warm the probe and fill its window
            self._probe()
        self._state = (self.now(), time.perf_counter(), self._scale())
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield self
        finally:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

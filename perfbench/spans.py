"""In-memory span tracer that wraps package functions from the outside.

The package's modules import one another's functions by name
(``from .frame import analysis_bands``), so a function lives under several
module attributes.  :meth:`Tracer.patched` replaces every attribute of every
loaded module under the given package that *is* the target function object,
and puts the originals back on exit, so code outside the ``with`` block runs
unwrapped.

A span is one call: name, start, end and the index of the enclosing span.
Calls are strictly nested (single thread), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Kept:
    """What ``keep[name]`` extracted from one call's arguments and result."""

    name: str
    value: object
    span: int


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0


def array_bytes(args: tuple, result: object) -> int:
    """Bytes of every ndarray argument plus the ndarray result (computed, not measured)."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if isinstance(result, np.ndarray):
        arrays.append(result)
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.kept: list[Kept] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, keep, count_bytes: bool):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if count_bytes:
                span.nbytes = array_bytes(args, result)
            if keep is not None:
                self.kept.append(Kept(name, keep(args, kwargs, result), index))
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, package: str, targets: list[str], keep: dict | None = None,
                count_bytes: tuple[str, ...] = ()):
        """Wrap ``<package>.<module>.<function>`` for each ``module.function`` target.

        Targets the package does not define are skipped, so they report zero
        calls.  ``keep`` maps a target to ``extract(args, kwargs, result)``;
        what it returns is appended to :attr:`kept`, so a caller holds on to
        only what it asks for.  ``count_bytes`` names targets whose spans
        record :func:`array_bytes`.
        """
        keep = keep or {}
        originals = {}
        for target in targets:
            module_name, _, attr = target.rpartition(".")
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                originals[id(fn)] = (fn, self._wrap(target, fn, keep.get(target),
                                                    target in count_bytes))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        restore = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    pair = originals.get(id(value))
                    if pair is not None and pair[0] is value:
                        setattr(module, attr, pair[1])
                        restore.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)

    def stats(self) -> dict[str, Stat]:
        """Calls, inclusive and self seconds and computed bytes per span name."""
        out: dict[str, Stat] = {}
        for span in self.spans:
            stat = out.setdefault(span.name, Stat())
            stat.calls += 1
            stat.total_s += span.duration
            stat.self_s += span.self_s
            stat.nbytes += span.nbytes
        return out

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by root spans that begin inside it."""
        return sum(min(s.end, end) - s.start for s in self.spans
                   if s.parent is None and start <= s.start < end)

"""In-memory span tracer and span arithmetic.

A span is one call of a wrapped entry point: name, start, end, parent
span and run id, plus the work counters its wrapper computed.  Spans
stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the part of its interval that its
child spans cover (the union of the children's intervals, so children
that overlap in worker threads are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "covered", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)
    #: seconds the wrapper itself spent outside [start, end]
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables.

    ``run_id`` is stamped on every span recorded while it is set; the
    caller sets it once per request (here: per CLI call).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.run_id = ""
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind(self, fn, parent: int):
        """fn that, run in a thread with no open span, nests under parent."""
        def bound(*args, **kwargs):
            stack = self._stack()
            if stack:
                return fn(*args, **kwargs)
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return bound

    def wrap(self, fn, name: str, count=None, bind_arg: int | None = None):
        """Traced version of fn.

        count(args, kwargs, result) -> dict of counters for the span.
        bind_arg names a positional argument that is a callable the
        wrapped function may run in worker threads; it is bound so spans
        opened there nest under this one.
        """
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if bind_arg is not None and len(args) > bind_arg:
                args = (args[:bind_arg] + (self.bind(args[bind_arg], sid),)
                        + args[bind_arg + 1:])
            stack.append(sid)
            result = ok = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = count(args, kwargs, result) if ok and count else {}
                span = Span(sid, name, start, end, parent, self.run_id, attrs)
                span.overhead = (start - enter) + (clock() - end)
                self.spans.append(span)
        return traced


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, kids.get(s.id, ()))
            for s in spans}

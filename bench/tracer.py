"""In-memory spans around calls into the program's layers.

A Tracer replaces a function where its callers look it up (a module
attribute, or a method on its class) with a wrapper that records one span
per call: name, start, end, parent span and an optional measured amount
(samples rendered, audio seconds analysed, bytes read...).  Spans stay in
memory and are written out as JSON when the traced process ends, or from a
SIGTERM handler when it is stopped at its deadline; spans still open at that
moment are closed at the dump time, and the stack of open span names is
written beside them, so a failure names the layer it was stuck in.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time
from dataclasses import dataclass

EXIT_STOPPED = 124


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    amount: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Record a span per call of owner.attr; measure(args, result) gives
        the span's amount."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if measure is not None:
                span.amount = float(measure(args, result))
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def open_stack(self) -> list[str]:
        return [s.name for s in self._stack]

    def to_json(self) -> dict:
        now = self._clock()
        rows = [[s.id, s.parent, s.name, s.start, now if s.end is None else s.end, s.amount]
                for s in self.spans]
        return {"spans": rows, "open_stack": self.open_stack()}

    def dump(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
        os.replace(tmp, path)

    def dump_on_sigterm(self, path) -> None:
        """On SIGTERM, write the spans (open ones included) to path and exit
        with EXIT_STOPPED."""
        def stop(signum, frame):
            self.dump(path)
            os._exit(EXIT_STOPPED)

        signal.signal(signal.SIGTERM, stop)


def spans_from_json(payload: dict, id_offset: int = 0) -> list[Span]:
    """Spans of one dump; id_offset keeps ids unique across several dumps."""
    return [Span(id=i + id_offset, parent=None if p is None else p + id_offset, name=n,
                 start=a, end=b, amount=m)
            for i, p, n, a, b, m in payload["spans"]]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def top_level_time(spans) -> float:
    """Wall time covered by spans that have no parent span."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    if not roots:
        return 0.0
    return covered(roots, min(a for a, _ in roots), max(b for _, b in roots))

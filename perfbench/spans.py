"""In-memory span and counter recording for the traced benchmark run.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, so one traced process yields one tree
per root. Spans stay in memory and are written out once, when the run ends.
The recorder keeps a single open-span stack, so it assumes the traced code
calls the wrapped functions from one thread (the benchmark runs every
command with ``--threads 1``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans around wrapped calls, plus named integer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        Each call also bumps the counter ``name + ".calls"``; ``count``, if
        given, is called as ``count(counts, args, kwargs, result)`` after the
        wrapped call returns. ``owner`` is the module or class in which the
        caller looks the name up.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def to_json(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def spans_from_json(doc: dict) -> list[Span]:
    return [Span(*s) for s in doc["spans"]]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span.

    A span's self time is its duration minus the part of its own interval
    that the union of its direct children covers. Children may overlap each
    other or stick out of the parent; overlap is counted once and the part
    outside the parent is ignored.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                   for c in children.get(i, ())]
        out.append((s.end - s.start) - union_length(clipped))
    return out


def root_coverage(spans: list[Span]) -> float:
    """Time covered by at least one root span."""
    return union_length([(s.start, s.end) for s in spans if s.parent is None])

"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it began
(its parent, -1 at top level) and the id of the op it belongs to. Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Wraps functions so that each call records a span while an op is open.

    Outside an op (``op`` is None) a wrapped function runs untimed, so the
    benchmark's own checks between ops leave no spans. ``counts`` holds the
    per-layer work counters that the wrappers' ``on_return`` hooks add to.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self.op: int | None = None
        self._open: list = []

    def wrap(self, name, fn, on_return=None):
        """Return a traced version of ``fn``.

        ``name`` is the span name, or a function of the call's arguments that
        returns it. ``on_return(result, *args, **kwargs)`` runs after the span
        closes, so its cost falls in the parent's self time, not in the span;
        ``hook_s`` adds up that cost.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = Span(label, start, end, parent, self.op)
            if on_return is not None:
                start = self.clock()
                on_return(result, *args, **kwargs)
                self.hook_s += self.clock() - start
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", *Span._fields])
            for index, span in enumerate(self.spans):
                out.writerow([index, span.name, repr(span.start), repr(span.end),
                              span.parent, span.op])


def span_cost(calls: int = 20000) -> float:
    """Seconds that recording one span adds to a call, best of five timings."""
    tracer = Tracer()
    tracer.op = 0

    def plain():
        return None

    def best(fn):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(best(tracer.wrap("probe", plain)) - best(plain), 0.0) / calls


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded, so children of one span never overlap and the
    part of the parent's interval they cover is the sum of their durations.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def summarize(spans) -> dict:
    """Per span name: {"calls", "s" (inclusive), "self_s"}.

    A span nested in a span of the same name (recursion) is left out of the
    inclusive total, so that time is not counted twice.
    """
    own = self_times(spans)
    table: dict = {}
    for span, self_s in zip(spans, own):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        if not _inside(spans, span, lambda name: name == span.name):
            row["s"] += span.end - span.start
    return table


def group_seconds(spans, prefixes: tuple) -> float:
    """Wall time covered by spans whose name starts with one of ``prefixes``.

    Spans nested inside another span of the group are not added again.
    """
    def in_group(name):
        return name.startswith(prefixes)

    return sum(span.end - span.start for span in spans
               if in_group(span.name) and not _inside(spans, span, in_group))


def _inside(spans, span, match) -> bool:
    parent = span.parent
    while parent >= 0:
        if match(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False

"""In-memory span recorder for the traced benchmark run.

A span is one timed call made by the benchmark into a library layer: its
name, start, end, the span that was open when it began (its parent) and
the op it belongs to, plus optional work counts (nodes, bytes, ...).
Spans stay in memory and are written out once the run ends.  With tracing
off every `span()` returns one shared no-op context, so the untraced run
pays a single method call per layer boundary.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [id, name, op, parent, start, end, counts]
        self._stack = []
        self.op = None

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return self._record(name, counts)

    def add(self, **counts):
        """Add work counts to the innermost open span."""
        rec = self.spans[self._stack[-1]][6]
        for key, val in counts.items():
            rec[key] = rec.get(key, 0) + val

    @contextlib.contextmanager
    def _record(self, name, counts):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, self.op, parent, time.perf_counter(), None, counts]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()

    def dump(self, path) -> None:
        keys = ("id", "name", "op", "parent", "start", "end", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _union_length(intervals):
    total = 0.0
    hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            total += b - a
            hi = b
        elif b > hi:
            total += b - hi
            hi = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, _, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans, ops) -> dict:
    """Per span name: calls, summed self time and summed counts over `ops`."""
    selfs = self_times(spans)
    ops = set(ops)
    tot = defaultdict(lambda: defaultdict(float))
    for sid, name, op, _, _, _, counts in spans:
        if op not in ops:
            continue
        entry = tot[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        for key, val in counts.items():
            entry[key] += val
    return tot


def span_cost_s(n: int = 20000) -> float:
    """Seconds one empty span costs to record; the tracing overhead per span."""
    tr = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / n

"""Span recorder, self-time reduction and the tail-percentile rule.

The traced pass wraps public functions of the package from outside: each
call records a span (name, start, end, parent span, point id) and the
counts that belong to that boundary.  Spans stay in memory and are written
out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    point: int | None  # grid point or relaxation the span belongs to


class Recorder:
    """Collects spans and counts from wrapped calls in one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []  # indices of open spans
        self._starts: dict[int, tuple[str, float, int | None, int | None]] = {}
        self._closed: dict[int, Span] = {}
        self._next_id = 0
        self._point: int | None = None
        self._point_owner: int | None = None  # span whose close ends the point
        self._points = 0

    def wrap(self, name, fn, *, new_point=False, on_result=None, on_error=None):
        """Return fn wrapped in a span named `name`.

        `new_point` starts a new point id at this call; the id stays on
        every later span until the span enclosing this call closes (or this
        span, at top level).
        `on_result(recorder, result)` and `on_error(recorder, exc)` record
        counts at the same boundary.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_point:
                self._point = self._points
                self._points += 1
                self._point_owner = self._stack[-1] if self._stack else self._next_id
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self._close(span_id)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _open(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._starts[span_id] = (name, time.perf_counter(), parent, self._point)
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, parent, point = self._starts.pop(span_id)
        # Spans close innermost first; ids (open order) become list indices
        # in finish(), so `parent` can point at the enclosing span.
        self._closed[span_id] = Span(name, start, end, parent, point)
        if span_id == self._point_owner:
            self._point = None
            self._point_owner = None

    def finish(self) -> list[Span]:
        """All closed spans, indexed by id (so `parent` indexes this list)."""
        if self._stack:
            raise RuntimeError("spans still open")
        self.spans = [self._closed[i] for i in sorted(self._closed)]
        return self.spans

    def write(self, path) -> None:
        payload = {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping or out-of-range children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((span.end - span.start) - covered)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def calls_by_name(spans: list[Span]) -> Counter:
    return Counter(span.name for span in spans)


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with `beyond` samples above it.

    Returns (value, percentile, sample count).  With n samples sorted
    ascending this is the (n - beyond)-th smallest, the nearest-rank
    percentile 100 (n - beyond) / n.  With n <= beyond no sample has that
    many beyond it, so the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    k = n - beyond
    return ordered[k - 1], 100.0 * k / n, n

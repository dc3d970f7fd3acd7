"""Tests of the benchmark's own tooling: seeded inputs, spans, tail rule.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from spans import Recorder, Span, self_time_by_name, self_times, tail_percentile  # noqa: E402


def test_one_seed_gives_identical_inputs():
    assert inputs.spec_bytes(inputs.threshold_gate_spec(7)) == inputs.spec_bytes(
        inputs.threshold_gate_spec(7))
    assert inputs.points_bytes(inputs.relax_points(7)) == inputs.points_bytes(
        inputs.relax_points(7))


def test_seeds_differ_and_relax_points_fill_every_bin():
    assert inputs.threshold_gate_spec(1) != inputs.threshold_gate_spec(2)
    first, second = inputs.relax_points(1), inputs.relax_points(2)
    assert first != second
    bins = len(inputs.STEP_BIN_EDGES) - 1
    assert len(first) == 1 + bins * inputs.POINTS_PER_BIN
    assert first[0] == {}  # the fig9 point: the appendixC preset unchanged


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 1),
        Span("c", 6.0, 7.0, 2, 1),
        # Overlaps its sibling and runs past its parent: counted once, clipped.
        Span("d", 8.5, 12.0, 0, None),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 3.5])
    totals = self_time_by_name(spans)
    assert totals["root"] + totals["a"] + totals["b"] + totals["c"] == pytest.approx(9.0)


def test_recorder_nests_spans_and_tracks_points():
    rec = Recorder()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    errors = []
    leaf_t = rec.wrap("leaf", leaf, on_error=lambda r, e: errors.append(e))
    point_t = rec.wrap("point", lambda x: leaf_t(x), new_point=True)

    def outer(xs):
        for x in xs:
            point_t(x)
            leaf_t(abs(x))
        return len(xs)

    outer_t = rec.wrap("outer", outer,
                       on_result=lambda r, n: r.counts.update({"items": n}))
    assert outer_t([1, 2]) == 2
    with pytest.raises(ValueError):
        point_t(-1)
    spans = rec.finish()

    assert [s.name for s in spans] == [
        "outer", "point", "leaf", "leaf", "point", "leaf", "leaf", "point", "leaf"]
    assert [s.parent for s in spans] == [None, 0, 1, 0, 0, 4, 0, None, 7]
    # A point lasts until the span around its first call closes.
    assert [s.point for s in spans] == [None, 0, 0, 0, 1, 1, 1, 2, 2]
    assert rec.counts["items"] == 2 and len(errors) == 1
    assert all(s.start <= s.end for s in spans)


@pytest.mark.parametrize(
    "n, value, percentile",
    [(100, 90, 90.0), (25, 15, 60.0), (11, 1, 100 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got, pct, count = tail_percentile(samples)
    assert (got, count) == (value, n)
    assert pct == pytest.approx(percentile)
    if n > 10:
        assert sum(s > got for s in samples) == 10

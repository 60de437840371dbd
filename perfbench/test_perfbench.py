"""Tests of the benchmark's own arithmetic and tracing; no workload runs here."""

from __future__ import annotations

import json
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
from perfstats import compare, hypervolume, percentile, self_over_wall, self_times, spread, tail
from perftrace import Span, Tracer, load_trace
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, parent, None, 0, end=end)


# ------------------------------------------------------------------- tail
@pytest.mark.parametrize(
    ("samples", "expected_pct"),
    [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, expected_pct):
    values = list(range(samples))
    value, pct, count = tail(values)
    assert pct == expected_pct
    assert count == samples
    assert value == pytest.approx(percentile(values, pct))
    if samples >= 20:
        assert sum(1 for v in values if v > value) >= 10


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert percentile([7], 99) == 7


# -------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0.0, 10.0, name="root"),
        _span(2, 1.0, 4.0, parent=1, name="a"),
        _span(3, 2.0, 3.0, parent=2, name="b"),
        _span(4, 5.0, 6.0, parent=1, name="a"),
    ]
    times = self_times(spans)
    assert times["root"] == pytest.approx((6.0, 1))
    assert times["a"] == pytest.approx((3.0, 2))
    assert times["b"] == pytest.approx((1.0, 1))
    # Single-threaded nesting: the self times add up to the root's wall clock.
    assert sum(seconds for seconds, _ in times.values()) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0, name="wait"),
        _span(2, 1.0, 6.0, parent=1, name="task"),
        _span(3, 4.0, 8.0, parent=1, name="task"),
        _span(4, 9.0, 12.0, parent=1, name="task"),  # runs past its parent
    ]
    times = self_times(spans)
    assert times["wait"][0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert times["task"] == pytest.approx((12.0, 3))


def test_self_times_reconcile_with_the_root_wall_clock():
    serial = [
        _span(1, 0.0, 10.0, name="search"),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 20.0, 30.0, name="search"),
        _span(5, 21.0, 29.0, parent=4),
        _span(6, 40.0, 50.0, name="setup"),  # outside any search: not counted
    ]
    assert self_over_wall(serial, ("search",)) == pytest.approx(1.0)
    threaded = [
        _span(1, 0.0, 10.0, name="search"),
        _span(2, 0.0, 10.0, parent=1),
        _span(3, 0.0, 10.0, parent=1),
    ]
    assert self_over_wall(threaded, ("search",)) == pytest.approx(2.0)
    assert self_over_wall([], ("search",)) == 0.0


# ------------------------------------------------------------------ bounds
def test_spread_is_interquartile_range_over_median():
    values = [10, 11, 9, 10, 12, 8, 10, 10, 11, 9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert spread([5.0] * 10) == 0.0


@pytest.mark.parametrize(
    ("parent", "change", "better", "bound", "regressed"),
    [
        ([10.0] * 5, [11.9] * 5, "lower", 0.2, False),
        ([10.0] * 5, [12.1] * 5, "lower", 0.2, True),
        ([10.0] * 5, [8.1] * 5, "higher", 0.2, False),
        ([10.0] * 5, [7.9] * 5, "higher", 0.2, True),
        ([10.0] * 5, [5.0] * 5, "lower", 0.0, False),
        ([10.0] * 5, [20.0] * 5, "higher", 0.0, False),
    ],
)
def test_compare_flags_regressions_beyond_the_bound(parent, change, better, bound, regressed):
    assert compare(parent, change, bound, better)["regressed"] is regressed


def test_compare_uses_medians():
    result = compare([1.0, 10.0, 10.0, 10.0, 100.0], [1.0, 11.0, 11.0, 11.0, 1.0], 0.05, "lower")
    assert result["parent_median"] == 10.0
    assert result["change_median"] == 11.0
    assert result["worse_by"] == pytest.approx(0.1)
    assert result["regressed"]
    with pytest.raises(ValueError):
        compare([1.0], [1.0], 0.1, "faster")


def test_hypervolume_against_origin():
    assert hypervolume([]) == 0.0
    assert hypervolume([(0.5, 4.0)]) == pytest.approx(2.0)
    # (0.9, 2) and (0.5, 6) overlap in 0.5 x 2; the dominated (0.4, 1) adds nothing.
    assert hypervolume([(0.9, 2.0), (0.5, 6.0), (0.4, 1.0)]) == pytest.approx(1.8 + 0.5 * 4.0)


# ------------------------------------------------------------------ tracer
class _Layer:
    def work(self, value):
        return value * 2

    def outer(self, value):
        return self.work(value) + 1


class _Derived(_Layer):
    pass


def test_tracer_records_nested_spans_and_restores_the_originals():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer", trace_id=lambda args, kwargs: f"job-{args[1]}")
    tracer.wrap(_Layer, "work", "layer.work")
    tracer.wrap(_Derived, "work", "derived.work")
    assert _Derived().outer(3) == 7
    outer, derived, inner = tracer.spans
    assert (outer.name, derived.name, inner.name) == ("layer.outer", "derived.work", "layer.work")
    assert derived.parent == outer.span_id and inner.parent == derived.span_id
    assert {span.trace_id for span in tracer.spans} == {"job-3"}
    tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    assert "work" not in _Derived.__dict__


def test_thread_pool_work_is_a_child_of_the_submitting_span(tmp_path):
    tracer = Tracer()
    tracer.propagate_thread_pools()
    try:
        tracer.wrap(_Layer, "work", "layer.work")
        with ThreadPoolExecutor(max_workers=2) as pool:
            root = tracer.begin("root", trace_id="genome-key")
            results = list(pool.map(_Layer().work, range(4)))
            tracer.finish(root)
    finally:
        tracer.uninstall()
    assert results == [0, 2, 4, 6]
    children = [span for span in tracer.spans if span.name == "layer.work"]
    assert len(children) == 4
    assert all(span.parent == root.span_id for span in children)
    assert all(span.trace_id == "genome-key" for span in children)
    assert any(span.thread != threading.get_ident() for span in children)

    tracer.count("store.rows_written", 3)
    spans, counters = load_trace(tracer.dump(tmp_path / "spans.jsonl"))
    assert [span.to_dict() for span in spans] == [span.to_dict() for span in tracer.spans]
    assert counters == {"store.rows_written": 3}


# -------------------------------------------------------------- definition
def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    assert BENCHMARK["command"][:2] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        run.per_layer_metrics()
    )
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_per_layer_metric_names_its_target():
    for name, _unit, _better in run.per_layer_metrics():
        assert any(key in run.PER_LAYER_TARGETS for key in run._target_keys(name)), name

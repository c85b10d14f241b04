"""Tests for the benchmark's own math: percentiles, due-time latency, span
self time, the capacity-ladder rule, and agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from measure import (
    due_latencies,
    ladder_should_stop,
    max_ok_rate,
    median,
    peak_rss_mb,
    percentile,
    rung_passes,
    windowed_percentile,
)
from tracing import Span, Tracer, self_times, union_ns

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 99.0) == pytest.approx(3.97)
    assert percentile([7.0], 99.0) == 7.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    for size in (2, 5, 101, 1000):
        values = rng.exponential(size=size).tolist()
        for q in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_percentile_of_failed_requests_is_infinite():
    # A failed request is recorded as an infinite latency and must miss
    # any limit rather than turn the percentile into NaN.
    assert percentile([1.0, math.inf, math.inf], 99.0) == math.inf


def test_windowed_percentile_takes_median_over_windows():
    quiet = [1.0] * 99 + [2.0]
    noisy = [1.0] * 95 + [50.0] * 5
    values = quiet + noisy + quiet
    # Pooled, the one noisy window sets the tail; per window it is outvoted.
    assert percentile(values, 99.0) > 2.0
    assert windowed_percentile(values, 99.0, 100) == pytest.approx(
        percentile(quiet, 99.0)
    )
    # Fewer values than one window: the pooled percentile.
    assert windowed_percentile(values[:50], 99.0, 100) == percentile(values[:50], 99.0)


# ----------------------------------------------------------------------
# Due-time latency
# ----------------------------------------------------------------------
def test_latency_counts_from_due_time_not_send_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.5]  # the generator stalled before the second send
    done = [0.1, 1.6, 2.6]
    latencies = due_latencies(due, done)
    assert latencies == pytest.approx([0.1, 0.6, 0.6])
    assert due_latencies(sent, done) == pytest.approx([0.1, 0.1, 0.1])


def test_due_latencies_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        due_latencies([0.0], [0.1, 0.2])


# ----------------------------------------------------------------------
# Capacity ladder
# ----------------------------------------------------------------------
def _schedule(count: int, gap: float, latency: float):
    due = [index * gap for index in range(count)]
    return due, [start + latency for start in due]


def test_rung_passes_under_limit():
    due, done = _schedule(200, 0.001, 0.004)
    assert rung_passes(due, done, limit_ms=5.0)
    assert not rung_passes(due, done, limit_ms=3.0)


def test_rung_fails_on_growing_backlog():
    # Each request waits 0.1 ms longer than the one before: the final one
    # completes 20 ms after its due time, over the 10 ms limit, even though
    # most requests were fast.
    due = [index * 0.001 for index in range(200)]
    done = [start + 0.0001 * index for index, start in enumerate(due)]
    assert not rung_passes(due, done, limit_ms=10.0)


def test_rung_fails_when_requests_fail():
    due, done = _schedule(100, 0.001, 0.001)
    done[-3:] = [math.inf] * 3
    assert not rung_passes(due, done, limit_ms=50.0)


def test_ladder_stops_after_two_consecutive_failures():
    assert not ladder_should_stop([])
    assert not ladder_should_stop([False])
    assert not ladder_should_stop([True, False])
    assert not ladder_should_stop([False, True, False])
    assert ladder_should_stop([True, False, False])


def test_max_ok_rate_is_highest_passing_rung():
    rates = [1000.0, 1100.0, 1210.0, 1331.0, 1464.0]
    # One noisy failure below capacity does not cap the result.
    assert max_ok_rate(rates, [True, False, True, False, False]) == 1210.0
    assert max_ok_rate(rates, [False] * 5) == 0.0
    with pytest.raises(ValueError):
        max_ok_rate(rates, [True])


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_union_counts_overlap_once():
    assert union_ns([]) == 0
    assert union_ns([(10, 30), (20, 40), (50, 60)]) == 40
    assert union_ns([(0, 100), (10, 20)]) == 100


def test_self_time_subtracts_children_clipped_and_merged():
    spans = [
        Span("parent", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("b", 20, 40, 0),  # overlaps a (another thread)
        Span("c", 90, 120, 0),  # runs past the parent's end
        Span("grandchild", 12, 18, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx((100 - 30 - 10) * 1e-9)
    assert own[1] == pytest.approx((20 - 6) * 1e-9)
    assert own[4] == pytest.approx(6e-9)


def test_tracer_nests_wrapped_self_calls():
    class Engine:
        def run(self, n):
            return self.plan(n) + 1

        def plan(self, n):
            return n * 2

    engine = Engine()
    tracer = Tracer()
    tracer.wrap(engine, "run", "oram.run")
    tracer.wrap(engine, "plan", "core.plan")
    assert engine.run(3) == 7
    names = [span.name for span in tracer.spans]
    assert names == ["oram.run", "core.plan"]
    assert tracer.spans[1].parent == 0
    # Wrapping is per instance: the class and other instances are untouched.
    assert "run" not in vars(Engine()) and Engine.run is not engine.run
    assert tracer.self_total(("oram.run",)) <= tracer.total(("oram.run",))


def test_tracer_parents_are_per_thread():
    tracer = Tracer()

    def other_thread():
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    other = next(span for span in tracer.spans if span.name == "other")
    assert other.parent == -1


def test_peak_rss_is_positive():
    assert peak_rss_mb() > 0


# ----------------------------------------------------------------------
# Agreement with BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    from run import E2E_UNITS, LAYER_UNITS, WORKLOAD_NAMES

    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES


def test_layer_metrics_cover_every_per_layer_name():
    from run import LAYER_UNITS
    from workloads import WORKLOADS, Outcome, layer_metrics

    assert set(WORKLOADS) == {"xlmr-train", "dlrm-train", "kaggle-trace", "zipf-serve"}
    raw = {
        "logical_accesses": 10,
        "path_reads": 4,
        "dummy_reads": 1,
        "posmap_path_reads": 0,
        "posmap_bytes": 0,
        "stash_peak": 3,
        "stash_hits": 2,
    }
    outcome = Outcome({}, 1, [], (), measured_s=1.1, raw=raw)
    untraced = Outcome({}, 1, [], (), measured_s=1.0, raw=raw)
    values = layer_metrics(Tracer(), outcome, untraced)
    assert list(values) == list(LAYER_UNITS)
    assert values["oram.path_reads_per_access"] == 0.4
    assert values["trace.overhead_frac"] == pytest.approx(0.1)

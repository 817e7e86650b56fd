"""`LatencyTracker`: windowed percentiles with ceiling-rank selection.

The tracker backs every latency stat in the service and serving tiers
(batch latency, publish latency, first-match latency).  Percentiles
use the nearest-rank (ceiling) definition — ``p50`` of an even-sized
window is the lower median sample, never an interpolated value and
never subject to banker's rounding.  The sharded engine's modelled
critical path, which the e2e harness's ``service.critical_path_p50_ms``
reads, is checked here too.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.service.engine import ShardedFilterEngine
from repro.service.latency import LatencyTracker
from repro.xmlstream.dom import parse_forest


def test_empty_snapshot_is_all_zero():
    snapshot = LatencyTracker().snapshot()
    assert snapshot == {
        "count": 0,
        "p50_ms": 0.0,
        "p90_ms": 0.0,
        "p99_ms": 0.0,
        "max_ms": 0.0,
        "total_ms": 0.0,
    }


def test_single_sample_is_every_percentile():
    tracker = LatencyTracker()
    tracker.record(0.250)
    snapshot = tracker.snapshot()
    assert snapshot["count"] == 1
    assert snapshot["p50_ms"] == snapshot["p99_ms"] == snapshot["max_ms"] == 250.0


def test_ceiling_rank_selection():
    """Nearest-rank on n=10: p50 is the 5th ordered sample (index 4),
    p90 the 9th, p99 the 10th — no interpolation, no round-half-even."""
    tracker = LatencyTracker()
    for ms in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
        tracker.record(ms / 1000.0)
    snapshot = tracker.snapshot()
    assert snapshot["p50_ms"] == pytest.approx(50.0)
    assert snapshot["p90_ms"] == pytest.approx(90.0)
    assert snapshot["p99_ms"] == pytest.approx(100.0)
    assert snapshot["max_ms"] == pytest.approx(100.0)


def test_percentile_is_order_insensitive():
    ordered, shuffled = LatencyTracker(), LatencyTracker()
    samples = [0.005, 0.001, 0.009, 0.003, 0.007]
    for s in sorted(samples):
        ordered.record(s)
    for s in samples:
        shuffled.record(s)
    left, right = ordered.snapshot(), shuffled.snapshot()
    # total_ms sums floats in arrival order; compare it approximately.
    assert left.pop("total_ms") == pytest.approx(right.pop("total_ms"))
    assert left == right
    assert ordered.percentile(0.50) == pytest.approx(0.005)


def test_window_evicts_oldest_but_count_is_lifetime():
    tracker = LatencyTracker(window=4)
    for s in [1.0, 1.0, 1.0, 0.002, 0.004, 0.006, 0.008]:
        tracker.record(s)
    snapshot = tracker.snapshot()
    assert snapshot["count"] == 7
    assert snapshot["max_ms"] == pytest.approx(8.0)  # 1.0s samples evicted
    assert snapshot["p50_ms"] == pytest.approx(4.0)
    # total is lifetime too — evicted samples still count toward it.
    assert snapshot["total_ms"] == pytest.approx(3020.0)


def test_extreme_fractions_clamp_to_the_window():
    tracker = LatencyTracker()
    for s in [0.001, 0.002, 0.003]:
        tracker.record(s)
    assert tracker.percentile(0.0) == pytest.approx(0.001)
    assert tracker.percentile(1.0) == pytest.approx(0.003)


def test_inprocess_critical_path_is_the_slowest_shards_batch(monkeypatch):
    """In-process shards run one after another, so the critical path
    the harness reads is modelled: each sample is the ``batch_s`` of
    the one shard an item was dealt to (the slowest of its one) — not
    the wall time the item spent queued behind the other shards."""
    workload = {f"q{i}": f"//a[b = {i}]" for i in range(30)}
    engine = ShardedFilterEngine(workload, 3, parallel=False, batch_size=2)
    shares: dict[int, list[float]] = defaultdict(list)
    fold = engine._fold

    def spy(message, outstanding):
        if message[0] == "batch":
            shares[message[2]].append(message[4]["batch_s"])
        fold(message, outstanding)

    samples: list[float] = []
    walls: list[float] = []
    monkeypatch.setattr(engine, "_fold", spy)
    monkeypatch.setattr(engine.critical_path, "record", samples.append)
    monkeypatch.setattr(engine.latency, "record", walls.append)
    try:
        # filter_batch cuts six documents into three items, one a shard.
        engine.filter_batch(parse_forest("".join(f"<a><b>{i}</b></a>" for i in range(6))))
        loads = engine.stats()["shard_load"]
    finally:
        engine.close()
    per_item = [shares[batch_id] for batch_id in sorted(shares)]
    assert len(samples) == len(walls) == len(per_item) == 3
    assert loads == [2.0, 2.0, 2.0]
    for sample, wall, batch_s in zip(samples, walls, per_item):
        assert len(batch_s) == 1 and batch_s[0] > 0.0
        assert sample == batch_s[0] < wall

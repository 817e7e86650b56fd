"""The load gauges of CRC-32 placement: ``shard_load`` counts each
shard's filters, and ``imbalance`` is the hottest shard over the mean."""

from __future__ import annotations

import pytest

from repro.service import ShardedFilterEngine
from repro.service.engine import imbalance, shard_of_oid


def test_shard_loads_and_imbalance():
    assert imbalance([4.0, 1.0]) == pytest.approx(4.0 / 2.5)
    assert imbalance([]) == 1.0
    assert imbalance([0.0, 0.0]) == 1.0
    assert imbalance([2.0, 2.0]) == 1.0

    sources = {f"q{i}": "//a" for i in range(10)}
    counts = [0, 0, 0]
    for oid in sources:
        counts[shard_of_oid(oid, 3)] += 1
    with ShardedFilterEngine(sources, 3, parallel=False) as engine:
        stats = engine.stats()
        assert stats["shard_load"] == [float(count) for count in counts]
        assert [entry["filters"] for entry in stats["per_shard"]] == counts
        assert stats["imbalance"] == pytest.approx(max(counts) / (10 / 3))

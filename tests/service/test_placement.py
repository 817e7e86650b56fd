"""The load gauges of document dealing: ``shard_load`` counts the
documents each shard answered, and ``imbalance`` is the hottest shard
over the mean."""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, create_engine
from repro.service.engine import imbalance
from repro.xmlstream.dom import parse_forest


def test_shard_loads_and_imbalance():
    assert imbalance([4.0, 1.0]) == pytest.approx(4.0 / 2.5)
    assert imbalance([]) == 1.0
    assert imbalance([0.0, 0.0]) == 1.0
    assert imbalance([2.0, 2.0]) == 1.0

    sources = {f"q{i}": "//a" for i in range(10)}
    with create_engine(
        EngineConfig(engine="sharded", shards=3, parallel=False, batch_size=2), sources
    ) as engine:
        stats = engine.stats()
        assert stats["shard_load"] == [0.0, 0.0, 0.0] and stats["imbalance"] == 1.0
        # Seven documents in three contiguous runs, one per shard.
        engine.filter_stream("<a/>" * 7)
        stats = engine.stats()
        assert stats["shard_load"] == [2.0, 2.0, 3.0]
        assert stats["imbalance"] == pytest.approx(3 / (7 / 3))
        # Every replica holds every filter.
        assert [entry["filters"] for entry in stats["per_shard"]] == [10, 10, 10]
        # Two items of two: each to the least-loaded shard still free.
        engine.filter_batch(parse_forest("<a/>" * 4))
        stats = engine.stats()
        assert stats["shard_load"] == [4.0, 4.0, 3.0]
        assert stats["imbalance"] == pytest.approx(4 / (11 / 3))

"""The sharded engine merges its replicas' machine counters with the
function a layered engine merges its layers' with, and keeps the load
gauges the end-to-end harness reads."""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, create_engine
from repro.xpush.stats import MACHINE_KEYS, merged

SOURCES = ["//a[b = 1]", "//c", "/a[not(b)]", "//a//d", "//c[@x]", "//*[b = 2]"]
FILTERS = {f"q{i}": source for i, source in enumerate(SOURCES)}
STREAM = "<a><b>1</b></a><c x='1'/><a><d/></a><a><b>2</b></a>" * 3


@pytest.mark.parametrize("parallel", [False, True], ids=["in-process", "workers"])
def test_sharded_top_level_is_the_merge_of_its_shards(parallel):
    """Each worker is a replica of its own, so the top level sums them;
    in-process shards all are the parent's one engine, counted once."""
    config = EngineConfig(engine="sharded", shards=2, parallel=parallel)
    with create_engine(config, FILTERS) as engine:
        engine.filter_stream(STREAM)
        engine.filter_stream(STREAM)
        stats = engine.stats()
        replicas = stats["per_shard"] if engine.parallel else [engine._engine.stats()]
    per_shard = stats["per_shard"]
    assert len(per_shard) == stats["shards"] == 2
    assert stats["xpush_states"] == sum(e["xpush_states"] for e in replicas) > 0
    assert stats["resident_bytes"] == sum(e["resident_bytes"] for e in replicas) > 0
    hits = sum(e["hits"] for e in replicas)
    lookups = sum(e["lookups"] for e in replicas)
    assert lookups > 0
    assert stats["hit_ratio"] == hits / lookups > 0
    assert {key: stats[key] for key in (*MACHINE_KEYS, "hit_ratio")} == merged(replicas)
    # The harness's gauges: each shard's busy seconds, the documents it
    # answered, their imbalance and the per-item critical path.
    assert all(entry["busy_s"] > 0 for entry in per_shard)
    assert stats["shard_load"] == [12.0, 12.0] and stats["documents"] == 24
    assert stats["imbalance"] == 1.0
    assert stats["critical_path_latency"]["count"] == stats["batches"] == 4

"""The sharded engine merges its shards' machine counters with the
function a layered engine merges its layers' with."""

from __future__ import annotations

import pytest

from repro.service import ShardedFilterEngine
from repro.xpush.stats import MACHINE_KEYS, merged

SOURCES = ["//a[b = 1]", "//c", "/a[not(b)]", "//a//d", "//c[@x]", "//*[b = 2]"]
FILTERS = {f"q{i}": source for i, source in enumerate(SOURCES)}
STREAM = "<a><b>1</b></a><c x='1'/><a><d/></a><a><b>2</b></a>" * 3


@pytest.mark.parametrize("parallel", [False, True], ids=["in-process", "workers"])
def test_sharded_top_level_is_the_merge_of_its_shards(parallel):
    with ShardedFilterEngine(FILTERS, 2, parallel=parallel) as engine:
        engine.filter_stream(STREAM)
        engine.filter_stream(STREAM)
        stats = engine.stats()
    per_shard = stats["per_shard"]
    assert len(per_shard) == 2
    assert stats["xpush_states"] == sum(e["xpush_states"] for e in per_shard) > 0
    assert stats["resident_bytes"] == sum(e["resident_bytes"] for e in per_shard) > 0
    hits = sum(e["hits"] for e in per_shard)
    lookups = sum(e["lookups"] for e in per_shard)
    assert lookups > 0
    assert stats["hit_ratio"] == hits / lookups
    assert {key: stats[key] for key in (*MACHINE_KEYS, "hit_ratio")} == merged(per_shard)

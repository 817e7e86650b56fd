"""Property tests for the boot partition of ``ShardedFilterEngine``.

A filter's shard is ``shard_of_oid``: the CRC-32 of its oid modulo the
shard count, and nothing else.  The invariants: every filter sits on
exactly one shard (no loss, no duplication), original relative order
is kept within a shard, and the partition ignores insertion order —
the property the broker's rebuild path relies on (a resubscribed
workload lands on the same shards whatever the subscription order).

The golden tables were written by the retired ``partition_filters(...,
"hash")`` before that module was deleted, so the per-shard workloads
recorded by older snapshots stay the ones the engine rebuilds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ShardedFilterEngine
from repro.service.engine import shard_of_oid
from repro.xpath.parser import parse_xpath
from tests.conftest import make_workload

oids = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    unique=True,
    max_size=20,
)
shard_counts = st.integers(min_value=1, max_value=6)

SOURCES = ["//a", "/a[b]", "//a[b/text()=1]", "//c[@d>2 and e]"]


def _filters(names):
    return [parse_xpath(SOURCES[i % len(SOURCES)], oid) for i, oid in enumerate(names)]


def _place(filters, shards):
    """Each shard's oids, in projection order, as the engine boots them."""
    with ShardedFilterEngine(filters, shards, parallel=False) as engine:
        return [list(engine._projection(shard_id)) for shard_id in range(shards)]


@settings(max_examples=30, deadline=None)
@given(names=oids, shards=shard_counts)
def test_partition_is_an_exact_cover(names, shards):
    filters = _filters(names)
    parts = _place(filters, shards)
    assert len(parts) == shards
    placed = [oid for part in parts for oid in part]
    assert sorted(placed) == sorted(names)  # nothing lost, nothing doubled
    position = {oid: index for index, oid in enumerate(names)}
    for part in parts:  # original relative order within every shard
        assert [position[oid] for oid in part] == sorted(position[oid] for oid in part)
    assert _place(filters, shards) == parts


@settings(max_examples=30, deadline=None)
@given(names=oids, shards=shard_counts)
def test_hash_placement_ignores_insertion_order(names, shards):
    filters = _filters(names)
    forward = _place(filters, shards)
    backward = _place(list(reversed(filters)), shards)
    for shard in range(shards):
        assert set(forward[shard]) == set(backward[shard])
        assert all(shard_of_oid(oid, shards) == shard for oid in forward[shard])


#: shards → the shard of each of the 60 filters of
#: ``make_workload(protein, 60, seed=17)``, in workload order, as the
#: deleted ``partition_filters(..., "hash")`` placed them.
GOLDEN = {
    2: "000011110011110000110000111100111100001100001111001111000011",
    3: "110211201101002121200020222122000020101122001112111120120001",
    5: "124311120230441144240204433400212242100042314340442043343210",
}


@pytest.mark.parametrize("shards", sorted(GOLDEN), ids=lambda shards: f"hash-{shards}")
def test_policies_reproduce_the_retired_strategies(protein, shards):
    filters = make_workload(protein, 60, seed=17)
    parts = _place(filters, shards)
    where = {oid: shard for shard, part in enumerate(parts) for oid in part}
    assert "".join(str(where[f.oid]) for f in filters) == GOLDEN[shards]
    # ... which is CRC-32 routing, oid by oid
    assert all(where[f.oid] == shard_of_oid(f.oid, shards) for f in filters)

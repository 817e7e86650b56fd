"""Property tests for the boot partition (``placement.place_filters``).

The invariants both placement policies must uphold: exactly *shards*
output lists, every filter placed exactly once (no loss, no
duplication), original relative order kept within a shard, and
deterministic placement.  The ``hash`` policy additionally promises
*insertion-order independence* — the property the broker's rebuild
path relies on (a resubscribed workload lands on the same shards no
matter the subscription order).

The golden tables pin the merge of the old ``strategy=`` knob into
``placement=``: they were written by ``partition_filters(...,
"size_balanced")`` and ``partition_filters(..., "hash")`` before that
module was deleted, so routing tables persisted by older snapshots
stay valid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.placement import (
    PLACEMENT_POLICIES,
    CostModel,
    place_filters,
    shard_of_oid,
)
from repro.xpath.parser import parse_xpath
from tests.conftest import make_workload

oids = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    unique=True,
    max_size=20,
)
shard_counts = st.integers(min_value=1, max_value=6)
policies = st.sampled_from(PLACEMENT_POLICIES)

SOURCES = ["//a", "/a[b]", "//a[b/text()=1]", "//c[@d>2 and e]"]


def _filters(names):
    return [parse_xpath(SOURCES[i % len(SOURCES)], oid) for i, oid in enumerate(names)]


def _place(filters, shards, policy):
    """``place_filters`` as the engine boots it: an unseeded model."""
    model = CostModel()
    for f in filters:
        model.add(f)
    return place_filters(filters, shards, model, policy)


@settings(max_examples=30, deadline=None)
@given(names=oids, shards=shard_counts, policy=policies)
def test_partition_is_an_exact_cover(names, shards, policy):
    filters = _filters(names)
    parts = _place(filters, shards, policy)
    assert len(parts) == shards
    placed = [f.oid for part in parts for f in part]
    assert sorted(placed) == sorted(names)  # nothing lost, nothing doubled
    position = {oid: index for index, oid in enumerate(names)}
    for part in parts:  # original relative order within every shard
        assert [position[f.oid] for f in part] == sorted(position[f.oid] for f in part)
    again = _place(filters, shards, policy)
    assert [[f.oid for f in part] for part in parts] == [
        [f.oid for f in part] for part in again
    ]


@settings(max_examples=30, deadline=None)
@given(names=oids, shards=shard_counts)
def test_hash_placement_ignores_insertion_order(names, shards):
    filters = _filters(names)
    forward = _place(filters, shards, "hash")
    backward = _place(list(reversed(filters)), shards, "hash")
    for shard in range(shards):
        assert {f.oid for f in forward[shard]} == {f.oid for f in backward[shard]}
    for f in filters:
        assert shard_of_oid(f.oid, shards) < shards


def test_size_balanced_spreads_weight():
    # ``cost`` with an unseeded model is LPT over AFA state counts.  One
    # deliberately heavy filter plus many trivial ones: it must not
    # stack extra filters onto the heavy shard when lighter bins exist.
    heavy = parse_xpath("//a[b/text()=1 and .//a[@c>2] and d[e and not(f)]]", "heavy")
    light = [parse_xpath("//a", f"l{i}") for i in range(6)]
    parts = _place([heavy] + light, 3, "cost")
    heavy_shard = next(i for i, part in enumerate(parts) if any(f.oid == "heavy" for f in part))
    other = [len(parts[i]) for i in range(3) if i != heavy_shard]
    assert len(parts[heavy_shard]) <= min(other) + 1


#: (policy, shards) → the shard of each of the 60 filters of
#: ``make_workload(protein, 60, seed=17)``, in workload order, as the
#: deleted ``partition_filters`` placed them (``size_balanced`` → cost).
GOLDEN = {
    ("cost", 2): "010010101001001001110000100110111011111100001010110101110001",
    ("cost", 3): "021101122010101220010102201220211201101000121001212120222220",
    ("cost", 5): "120412243301240324342103301034214224201343410033411402010231",
    ("hash", 2): "000011110011110000110000111100111100001100001111001111000011",
    ("hash", 3): "110211201101002121200020222122000020101122001112111120120001",
    ("hash", 5): "124311120230441144240204433400212242100042314340442043343210",
}


@pytest.mark.parametrize("policy,shards", sorted(GOLDEN))
def test_policies_reproduce_the_retired_strategies(protein, policy, shards):
    filters = make_workload(protein, 60, seed=17)
    parts = _place(filters, shards, policy)
    where = {f.oid: shard for shard, part in enumerate(parts) for f in part}
    assert "".join(str(where[f.oid]) for f in filters) == GOLDEN[policy, shards]
    if policy == "hash":  # ... which is CRC-32 routing, oid by oid
        assert all(where[f.oid] == shard_of_oid(f.oid, shards) for f in filters)

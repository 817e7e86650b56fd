"""Unit wall for the placement layer (`repro.service.placement`).

Pure-function coverage: the cost model's σ̂ blending, the LPT boot
placement, lightest-shard routing, load/imbalance gauges and the
rebalance/drain planners — plus the memoization of
``afa_state_count``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.service.placement import (
    _STATE_COUNT_CACHE,
    CostModel,
    Move,
    afa_state_count,
    filter_selectivities,
    imbalance,
    place_filters,
    plan_drain,
    plan_rebalance,
    route_new,
    shard_loads,
    shard_of_oid,
)
from repro.xmlstream.dom import parse_document
from repro.xpath.parser import parse_xpath

FILTERS = [
    parse_xpath("/a/b", "f0"),
    parse_xpath("/a/c[@x = '1']", "f1"),
    parse_xpath("//d", "f2"),
    parse_xpath("/a//e[text() = 'v']", "f3"),
]

DOCS = [
    parse_document("<a><b/><c x='1'/></a>"),
    parse_document("<a><e>v</e></a>"),
    parse_document("<a><c x='2'/><d/></a>"),
    parse_document("<a><e>w</e></a>"),
]


# -- afa_state_count memoization (satellite) ---------------------------


def test_afa_state_count_memoized_per_structure():
    _STATE_COUNT_CACHE.clear()
    first = afa_state_count(parse_xpath("/a/b[c = 1]", "x0"))
    assert list(_STATE_COUNT_CACHE.values()) == [first]
    # A different oid over the same structure hits the cache, which we
    # can observe directly: poison the cached value and watch it leak.
    key = next(iter(_STATE_COUNT_CACHE))
    _STATE_COUNT_CACHE[key] = 999
    assert afa_state_count(parse_xpath("/a/b[c = 1]", "x1")) == 999
    _STATE_COUNT_CACHE.clear()
    assert afa_state_count(parse_xpath("/a/b[c = 1]", "x2")) == first


# -- cost model --------------------------------------------------------


def test_filter_selectivities_mean_over_atoms():
    sigmas = filter_selectivities(FILTERS, DOCS)
    assert set(sigmas) == {f.oid for f in FILTERS}
    # Predicate-free filters carry no σ term.
    assert sigmas["f0"] == 0.0
    assert sigmas["f2"] == 0.0
    # @x='1' holds in 1 of 4 documents; text()='v' in 1 of 4.
    assert sigmas["f1"] == pytest.approx(0.25)
    assert sigmas["f3"] == pytest.approx(0.25)


def test_cost_model_seed_and_observe_blend_as_pseudocounts():
    model = CostModel(selectivity_weight=4.0)
    for f in FILTERS:
        model.add(f)
    assert model.selectivity("f1") == 0.0  # no evidence yet
    model.seed(FILTERS, DOCS)
    assert model.documents == 4.0
    assert model.selectivity("f1") == pytest.approx(0.25)
    # Four live documents in which f1 always matches: σ̂ moves toward
    # the observed rate, (1 + 4) / (4 + 4).
    model.observe([{"f1"}, {"f1"}, {"f1"}, {"f1", "f2"}])
    assert model.documents == 8.0
    assert model.selectivity("f1") == pytest.approx(5.0 / 8.0)
    # f2 (predicate-free) earns selectivity only from observation.
    assert model.selectivity("f2") == pytest.approx(1.0 / 8.0)
    # cost = states × (1 + κσ̂), with κ = 4.
    assert model.cost("f1") == pytest.approx(model.states("f1") * (1 + 4 * 5.0 / 8.0))


def test_cost_model_drop_and_unknown_oids():
    model = CostModel()
    model.add(FILTERS[0])
    model.observe([{"f0", "ghost"}])  # ghost is not a live filter
    assert model.selectivity("ghost") == 0.0
    model.drop("f0")
    assert "f0" not in model.costs()
    assert model.states("f0") == 1  # floor for unmodelled oids
    assert model.cost("f0") == 1.0


class _LoopCostModel:
    """σ̂ bookkeeping as ``CostModel`` did it before ``observe`` became
    one counter update: every oid of every answer walked in Python,
    the "is it costed" question asked at write time."""

    def __init__(self):
        self.costed: set[str] = set()
        self.matches: dict[str, float] = {}
        self.documents = 0.0

    def add(self, oid):
        self.costed.add(oid)

    def drop(self, oid):
        self.costed.discard(oid)
        self.matches.pop(oid, None)

    def seed(self, sigmas, n):
        for oid, sigma in sigmas.items():
            self.matches[oid] = self.matches.get(oid, 0.0) + sigma * n
        self.documents += float(n)

    def observe(self, matched):
        for oids in matched:
            self.documents += 1.0
            for oid in oids:
                if oid in self.costed:
                    self.matches[oid] = self.matches.get(oid, 0.0) + 1.0

    def selectivity(self, oid):
        if self.documents <= 0.0:
            return 0.0
        return min(1.0, self.matches.get(oid, 0.0) / self.documents)


_OIDS = [f.oid for f in FILTERS]
_SCHEDULE_STEP = st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(_OIDS)),
    st.tuples(st.just("unsubscribe"), st.sampled_from(_OIDS)),
    st.tuples(
        st.just("observe"),
        st.lists(st.frozensets(st.sampled_from(_OIDS + ["ghost"])), max_size=5),
    ),
)


@given(schedule=st.lists(_SCHEDULE_STEP, max_size=40), seeded=st.booleans())
@settings(max_examples=200, deadline=None)
def test_counter_observe_is_value_identical_to_the_per_oid_loop(schedule, seeded):
    by_oid = {f.oid: f for f in FILTERS}
    model, reference = CostModel(), _LoopCostModel()
    for oid in _OIDS[:2]:
        model.add(by_oid[oid])
        reference.add(oid)
    if seeded:  # fractional pseudo-counts under the integer observations
        model.seed(FILTERS[:2], DOCS[:3])
        reference.seed(filter_selectivities(FILTERS[:2], DOCS[:3]), 3)
    for verb, argument in schedule:
        if verb == "subscribe":
            model.add(by_oid[argument])
            reference.add(argument)
        elif verb == "unsubscribe":
            model.drop(argument)
            reference.drop(argument)
        else:
            model.observe(argument)
            reference.observe(argument)
        assert model.documents == reference.documents
        for oid in _OIDS + ["ghost"]:
            # Exact equality, not approx: same additions in the same order.
            assert model.selectivity(oid) == reference.selectivity(oid), (verb, oid)


def test_cost_model_table_sorted_most_expensive_first():
    model = CostModel()
    for f in FILTERS:
        model.add(f)
    model.seed(FILTERS, DOCS)
    rows = model.table()
    assert [r.oid for r in rows] == sorted(
        (f.oid for f in FILTERS), key=lambda o: (-model.cost(o), o)
    )
    assert all(r.cost >= 1.0 and 0.0 <= r.selectivity <= 1.0 for r in rows)


def test_add_source_matches_add():
    direct, via_source = CostModel(), CostModel()
    direct.add(FILTERS[1])
    via_source.add_source("f1", "/a/c[@x = '1']")
    assert direct.states("f1") == via_source.states("f1")


# -- gauges ------------------------------------------------------------


def test_shard_loads_and_imbalance():
    routing = {"a": 0, "b": 0, "c": 1, "ghost": 5}
    costs = {"a": 3.0, "b": 1.0}  # c unmodelled -> 1.0 floor
    loads = shard_loads(routing, costs, 2)
    assert loads == [4.0, 1.0]
    assert imbalance(loads) == pytest.approx(4.0 / 2.5)
    assert imbalance([]) == 1.0
    assert imbalance([0.0, 0.0]) == 1.0
    assert imbalance([2.0, 2.0]) == 1.0


# -- boot placement and routing ----------------------------------------


def test_place_filters_shape_contract():
    model = CostModel()
    for f in FILTERS:
        model.add(f)
    placed = place_filters(FILTERS, 3, model)
    assert len(placed) == 3
    flat = [f.oid for shard in placed for f in shard]
    assert sorted(flat) == sorted(f.oid for f in FILTERS)
    with pytest.raises(WorkloadError):
        place_filters(FILTERS, 0, model)
    # One shard short-circuits to the identity partition.
    assert [f.oid for f in place_filters(FILTERS, 1, model)[0]] == [
        f.oid for f in FILTERS
    ]


def test_place_filters_balances_skewed_costs():
    model = CostModel()
    for f in FILTERS:
        model.add(f)
    model.seed(FILTERS, DOCS)
    placed = place_filters(FILTERS, 2, model)
    routing = {f.oid: s for s, shard in enumerate(placed) for f in shard}
    loads = shard_loads(routing, model.costs(), 2)
    # LPT guarantee on this small instance: within one max-cost item.
    assert max(loads) - min(loads) <= max(model.costs().values())


def test_route_new_policies():
    assert route_new("x", [], "hash", shards=4) == shard_of_oid("x", 4)
    assert route_new("x", [3.0, 1.0, 2.0], "cost") == 1
    assert route_new("x", [1.0, 1.0], "cost") == 0  # lowest index on ties
    with pytest.raises(WorkloadError):
        route_new("x", [], "cost")
    with pytest.raises(WorkloadError):
        route_new("x", [1.0], "nope")


# -- planners ----------------------------------------------------------


def test_plan_rebalance_balanced_is_noop():
    routing = {"a": 0, "b": 1}
    costs = {"a": 2.0, "b": 2.0}
    assert plan_rebalance(routing, costs, 2, 1.5) == []


def test_plan_rebalance_moves_reduce_imbalance():
    routing = {f"h{i}": 0 for i in range(6)} | {"c0": 1}
    costs = {oid: 2.0 for oid in routing}
    before = imbalance(shard_loads(routing, costs, 2))
    moves = plan_rebalance(routing, costs, 2, 1.15)
    assert moves, "skewed routing must produce moves"
    after_routing = dict(routing)
    for move in moves:
        assert after_routing[move.oid] == move.source
        after_routing[move.oid] = move.target
    after = imbalance(shard_loads(after_routing, costs, 2))
    assert after < before
    # 7 equal items split at best 8/6 -> 8/7; the planner reaches it.
    assert after == pytest.approx(8.0 / 7.0)
    # Deterministic: same inputs, same plan.
    assert plan_rebalance(routing, costs, 2, 1.15) == moves


def test_plan_rebalance_indivisible_filter_stops():
    # One huge filter dominates shard 0; moving it would just swap the
    # hot shard, so the planner must stop instead of oscillating.
    routing = {"big": 0, "s0": 1}
    costs = {"big": 100.0, "s0": 1.0}
    assert plan_rebalance(routing, costs, 2, 1.0) == []
    with pytest.raises(WorkloadError):
        plan_rebalance(routing, costs, 2, 0.5)


def test_plan_drain_empties_victim():
    routing = {"a": 2, "b": 2, "c": 0, "d": 1}
    costs = {"a": 5.0, "b": 1.0, "c": 2.0, "d": 2.0}
    moves = plan_drain(2, routing, costs, 3)
    assert {m.oid for m in moves} == {"a", "b"}
    assert all(m.source == 2 and m.target in (0, 1) for m in moves)
    with pytest.raises(WorkloadError):
        plan_drain(0, routing, costs, 1)
    with pytest.raises(WorkloadError):
        plan_drain(7, routing, costs, 3)


@settings(max_examples=60, deadline=None)
@given(
    costs=st.dictionaries(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4),
        st.floats(min_value=0.5, max_value=50.0),
        min_size=1,
        max_size=20,
    ),
    shards=st.integers(min_value=2, max_value=5),
    threshold=st.floats(min_value=1.0, max_value=3.0),
    data=st.data(),
)
def test_plan_rebalance_never_worsens(costs, shards, threshold, data):
    routing = {
        oid: data.draw(st.integers(min_value=0, max_value=shards - 1), label=oid)
        for oid in costs
    }
    before = imbalance(shard_loads(routing, costs, shards))
    moves = plan_rebalance(routing, costs, shards, threshold)
    after_routing = dict(routing)
    seen: set[str] = set()
    for move in moves:
        assert isinstance(move, Move)
        assert move.oid not in seen, "multi-hop moves must be collapsed"
        seen.add(move.oid)
        assert after_routing[move.oid] == move.source
        assert move.source != move.target
        after_routing[move.oid] = move.target
    after = imbalance(shard_loads(after_routing, costs, shards))
    assert after <= before + 1e-9

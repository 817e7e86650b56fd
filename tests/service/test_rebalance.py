"""Differential wall for the placement control plane.

The ISSUE's acceptance bar, extended from the update-plane wall:
under interleaved subscribe/unsubscribe/split/merge/rebalance
schedules, the sharded engine's answers equal the serial XPush engine
and a brute-force rebuild at every epoch — in the serial fallback and
with real worker processes, including a worker crash *during* a
rebalance epoch.  Migrations ride the same epoch-stamped control
messages as updates: the routing table moves first, so a crashed
worker restarts into the already-migrated workload.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
from hypothesis import strategies as st

from repro.engine import EngineConfig, create_engine
from repro.service import Move, ShardedFilterEngine
from repro.xmlstream.dom import parse_forest
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.options import XPushOptions

TD = XPushOptions(top_down=True, precompute_values=False)

FILTER_POOL = [
    "//a",
    "//a[b = 1]",
    "/a/b",
    "//b[text() = 2]",
    "/a[not(b = 1)]",
    "//a[b = 1 or b = 2]",
    "//*[@k = 'x']",
]

DOC_POOL = [
    "<a><b>1</b></a>",
    "<a><b>2</b></a>",
    "<a><c/></a>",
    "<b>2</b>",
    "<a k='x'><b>1</b><a><b>2</b></a></a>",
    "<r><a><b>3</b></a></r>",
]

SEED = {"q0": "//a[b = 1]", "q1": "/a/b", "q2": "//*[@k = 'x']", "q3": "//a"}


def brute_truth(live: dict[str, str], xml: str) -> list[frozenset[str]]:
    filters = [parse_xpath(source, oid) for oid, source in live.items()]
    return [matching_oids(filters, doc) for doc in parse_forest(xml)]


#: Interleaved schedules; ("filter",) points compare every engine.
SCHEDULES = [
    # rebalance interleaved with live updates
    [
        ("sub", "u0", "//a"),
        ("sub", "u1", "//a[b = 1]"),
        ("sub", "u2", "//b[text() = 2]"),
        ("filter",),
        ("rebalance",),
        ("filter",),
        ("unsub", "u1"),
        ("rebalance",),
        ("filter",),
    ],
    # grow the fleet, then shrink it back past where it started
    [
        ("filter",),
        ("split",),
        ("filter",),
        ("sub", "u0", "/a[not(b = 1)]"),
        ("split",),
        ("filter",),
        ("merge",),
        ("filter",),
        ("merge",),
        ("merge",),
        ("filter",),
    ],
    # churn: every verb in one schedule
    [
        ("split",),
        ("sub", "u0", "//a[b = 1 or b = 2]"),
        ("rebalance",),
        ("filter",),
        ("unsub", "q0"),
        ("merge",),
        ("filter",),
        ("sub", "u1", "//*[@k = 'x']"),
        ("rebalance",),
        ("split",),
        ("filter",),
    ],
]


def _drive(schedule, engine, live):
    """Apply *schedule*, checking the engine against the brute-force
    rebuild and a fresh serial XPush machine at every filter point."""
    stream = "".join(DOC_POOL)
    for op in schedule:
        if op[0] == "sub":
            live[op[1]] = op[2]
            engine.subscribe(op[1], op[2])
        elif op[0] == "unsub":
            del live[op[1]]
            engine.unsubscribe(op[1])
        elif op[0] == "rebalance":
            engine.rebalance()
        elif op[0] == "split":
            engine.split()
        elif op[0] == "merge":
            if engine.shards > 1:
                engine.merge()
        else:
            expected = brute_truth(live, stream)
            serial = create_engine(EngineConfig(engine="xpush"), dict(live))
            assert serial.filter_stream(stream) == expected
            assert engine.filter_stream(stream) == expected, op
            # A filter_stream call is one work item; filter_batch still
            # cuts the documents into batch_size items.
            assert engine.filter_batch(parse_forest(stream)) == expected, op
            assert engine.filter_count == len(live)
            _check_routing_invariants(engine)


def _check_routing_invariants(engine):
    """The routing table is the single source of truth: every live oid
    routed to a real shard, loads gauge consistent with it."""
    routing = engine.routing
    assert len(routing) == engine.filter_count
    assert all(0 <= shard < engine.shards for shard in routing.values())
    stats = engine.stats()
    assert len(stats["shard_load"]) == engine.shards
    assert stats["imbalance"] >= 1.0
    assert sum(e["filters"] for e in stats["per_shard"]) == engine.filter_count
    # Each shard's derived boot filters partition the routing table.
    booted = [set(engine._projection(shard_id)) for shard_id in range(engine.shards)]
    assert sum(len(oids) for oids in booted) == len(routing)
    for shard_id, oids in enumerate(booted):
        assert oids == {oid for oid, shard in routing.items() if shard == shard_id}


@pytest.mark.parametrize("placement", ["hash", "cost"])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=["rebalance", "resize", "churn"])
def test_serial_placement_schedules_match_rebuild(schedule, placement):
    engine = ShardedFilterEngine(
        dict(SEED), 3, options=TD, parallel=False, batch_size=2, placement=placement
    )
    try:
        _drive(schedule, engine, dict(SEED))
    finally:
        engine.close()


@pytest.mark.parametrize("schedule", SCHEDULES, ids=["rebalance", "resize", "churn"])
def test_worker_placement_schedules_match_rebuild(schedule):
    engine = ShardedFilterEngine(
        dict(SEED),
        2,
        options=TD,
        batch_size=2,
        result_timeout=30.0,
        placement="cost",
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    try:
        _drive(schedule, engine, dict(SEED))
        stats = engine.stats()
        for entry in stats["per_shard"]:
            assert entry["applied_epoch"] <= stats["epoch"]
    finally:
        engine.close()


def test_cost_routing_sends_new_subscribes_to_lightest_shard():
    engine = ShardedFilterEngine(
        dict(SEED), 3, options=TD, parallel=False, placement="cost"
    )
    try:
        loads = engine.shard_load()
        lightest = min(range(3), key=lambda s: (loads[s], s))
        engine.subscribe("fresh", "//a")
        assert engine.routing["fresh"] == lightest
    finally:
        engine.close()


def test_hash_routing_still_hashes_post_boot():
    from repro.service.placement import shard_of_oid

    engine = ShardedFilterEngine(
        dict(SEED), 3, options=TD, parallel=False, placement="hash"
    )
    try:
        engine.subscribe("fresh", "//a")
        assert engine.routing["fresh"] == shard_of_oid("fresh", 3)
    finally:
        engine.close()


def _skew_everything_onto_shard_zero(engine) -> None:
    """Pile every filter onto shard 0 through the real migration path,
    so the routing table and the per-shard engines stay in sync."""
    moves = [
        Move(oid, shard, 0)
        for oid, shard in sorted(engine.routing.items())
        if shard != 0
    ]
    if moves:
        engine._apply_moves(moves)


def test_rebalance_fixes_skew_and_is_idempotent():
    oids = [f"h{i}" for i in range(9)]
    engine = ShardedFilterEngine(
        {oid: "//a[b = 1]" for oid in oids}, 3, options=TD, parallel=False
    )
    try:
        _skew_everything_onto_shard_zero(engine)
        before = engine.imbalance()
        assert before > engine.rebalance_threshold
        moves = engine.rebalance()
        assert moves and engine.imbalance() < before
        assert engine.rebalance() == []  # already balanced: no-op
        assert engine.stats()["rebalances"] == 1
    finally:
        engine.close()


def test_maybe_rebalance_respects_threshold():
    engine = ShardedFilterEngine(
        dict(SEED), 2, options=TD, parallel=False, placement="cost"
    )
    try:
        assert engine.maybe_rebalance() is False  # LPT boot is balanced
    finally:
        engine.close()


def test_auto_rebalance_interval_triggers_from_filter_batch():
    config = EngineConfig(
        engine="sharded",
        shards=2,
        parallel=False,
        placement="cost",
        rebalance_threshold=1.05,
        rebalance_interval=1,
        batch_size=2,
        options=TD,
    )
    engine = ShardedFilterEngine({f"h{i}": "//a[b = 1]" for i in range(6)}, config=config)
    try:
        _skew_everything_onto_shard_zero(engine)
        docs = parse_forest("".join(DOC_POOL))
        engine.filter_batch(docs)
        assert engine.stats()["rebalances"] >= 1
        assert engine.imbalance() <= 1.5
    finally:
        engine.close()


def test_seed_placement_seeds_the_live_workload():
    """σ̂ is seeded for the filters live *now*, not the boot-time list:
    a late subscriber gets its rate, a dropped filter dilutes nothing."""
    engine = ShardedFilterEngine({"q0": "//a", "gone": "//b"}, 2, parallel=False)
    try:
        engine.subscribe("late", "//b[c = 1]")
        engine.unsubscribe("gone")
        engine.seed_placement(parse_forest("<b><c>1</c></b>" * 4))
        assert engine._cost.selectivity("late") == 1.0
        assert engine._cost.selectivity("q0") == 0.0
        assert engine._cost.documents == 4
    finally:
        engine.close()


def test_seed_placement_on_a_restored_engine_seeds_its_filters():
    engine = ShardedFilterEngine({"q0": "//a", "p": "//b[c = 1]"}, 2, parallel=False)
    snapshot = engine.snapshot()
    engine.close()
    restored = create_engine(
        EngineConfig(engine="sharded", parallel=False), snapshot=snapshot
    )
    try:
        restored.seed_placement(parse_forest("<b><c>1</c></b>" * 4))
        assert restored._cost.selectivity("p") == 1.0
        assert restored._cost.documents == 4
    finally:
        restored.close()


def test_crash_during_rebalance_recovers_migrated_workload():
    """Kill every worker right after a rebalance epoch: the respawned
    workers must boot the *migrated* workload and answer identically."""
    oids = {f"h{i}": FILTER_POOL[i % len(FILTER_POOL)] for i in range(8)}
    engine = ShardedFilterEngine(
        oids, 2, options=TD, batch_size=2, result_timeout=30.0
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    stream = "".join(DOC_POOL)
    try:
        expected = brute_truth(oids, stream)
        assert engine.filter_stream(stream) == expected
        # Engineer a skew, then rebalance — and crash before the
        # workers ever serve a batch under the new placement.
        _skew_everything_onto_shard_zero(engine)
        moves = engine.rebalance()
        assert moves
        for victim in list(engine._workers):
            engine.inject_crash(victim)
        assert engine.filter_stream(stream) == expected
        stats = engine.stats()
        assert stats["worker_restarts"] == len(stats["per_shard"])
        _check_routing_invariants(engine)
        # The control plane stays live after the recovery.
        engine.subscribe("post", "//a")
        assert engine.filter_stream(stream) == brute_truth(
            {**oids, "post": "//a"}, stream
        )
    finally:
        engine.close()


def test_snapshot_restore_round_trips_placement():
    engine = ShardedFilterEngine(
        dict(SEED), 2, options=TD, parallel=False, placement="cost"
    )
    engine.subscribe("u0", "//a[b = 1 or b = 2]")
    engine.rebalance()
    snapshot = engine.snapshot()
    stream = "".join(DOC_POOL)
    expected = engine.filter_stream(stream)
    routing = dict(engine.routing)
    engine.close()

    assert snapshot["placement"] == "cost"
    assert snapshot["routing"] == routing
    restored = create_engine(
        EngineConfig(engine="sharded", shards=2, parallel=False), snapshot=snapshot
    )
    try:
        assert restored.filter_stream(stream) == expected
        assert restored.routing == routing
        assert restored.placement == "cost"
    finally:
        restored.close()


class PlacementMachine(RuleBasedStateMachine):
    """Random interleavings of updates and placement verbs,
    differentially checked against the semantic reference."""

    def __init__(self):
        super().__init__()
        self.live: dict[str, str] = {}
        self.counter = 0
        self.engine = ShardedFilterEngine(
            [], 2, options=TD, parallel=False, batch_size=2, placement="cost"
        )

    @initialize()
    def seed(self):
        self.do_subscribe(FILTER_POOL[0])

    @rule(source=st.sampled_from(FILTER_POOL))
    def do_subscribe(self, source):
        oid = f"h{self.counter}"
        self.counter += 1
        self.live[oid] = source
        self.engine.subscribe(oid, source)

    @rule(data=st.data())
    def do_unsubscribe(self, data):
        if not self.live:
            return
        oid = data.draw(st.sampled_from(sorted(self.live)))
        del self.live[oid]
        self.engine.unsubscribe(oid)

    @rule()
    def do_rebalance(self):
        self.engine.rebalance()

    @rule()
    def do_split(self):
        if self.engine.shards < 4:
            self.engine.split()

    @rule()
    def do_merge(self):
        if self.engine.shards > 1:
            self.engine.merge()

    @rule(xml=st.sampled_from(DOC_POOL))
    def do_filter(self, xml):
        assert self.engine.filter_stream(xml) == brute_truth(self.live, xml)

    @invariant()
    def routing_is_consistent(self):
        assert self.engine.filter_count == len(self.live)
        routing = self.engine.routing
        assert sorted(routing) == sorted(self.live)
        assert all(0 <= s < self.engine.shards for s in routing.values())

    def teardown(self):
        self.engine.close()


def test_placement_stateful():
    run_state_machine_as_test(
        PlacementMachine,
        settings=settings(max_examples=25, stateful_step_count=18, deadline=None),
    )

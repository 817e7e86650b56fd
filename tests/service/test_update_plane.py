"""Differential wall for the dynamic-update control plane.

The ISSUE's acceptance bar: the sharded engine must accept
subscribe/unsubscribe **while serving**, with answers at every epoch
identical to (a) a serial :class:`LayeredFilterEngine` fed the same
update schedule and (b) a brute-force engine freshly rebuilt from the
live filter set — and insertions must never flush a shard's warmed
base tables.  Updates ride the worker task queues as epoch-stamped
control messages after the parent's engine is updated, so a crashed
worker — forked again from it — resumes the *updated* workload.  Every
shard holds every filter, at boot, after a live subscribe and after a
restore, whatever a capture recorded.
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
from repro.service import ShardedFilterEngine
from repro.xmlstream.dom import parse_forest
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.options import XPushOptions
from tests.conftest import make_workload

TD = XPushOptions(top_down=True)

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


def brute_truth(live: dict[str, str], xml: str) -> list[frozenset[str]]:
    """Per-document ground truth from the semantic reference."""
    filters = [parse_xpath(source, oid) for oid, source in live.items()]
    return [matching_oids(filters, doc) for doc in parse_forest(xml)]


#: Interleaved schedules; ("filter",) points are where all engines are
#: compared.  Each exercises a distinct control-plane wrinkle.
SCHEDULES = [
    # insert-heavy, never compacted: deltas and tombstones accumulate
    [
        ("filter",),
        ("sub", "u0", "//a[b = 1]"),
        ("filter",),
        ("sub", "u1", "//b[text() = 2]"),
        ("sub", "u2", "//*[@k = 'x']"),
        ("filter",),
        ("unsub", "u1"),
        ("filter",),
    ],
    # re-subscribe a removed oid with a DIFFERENT filter: the delta
    # definition must shadow the tombstoned base one (satellite 1's bug)
    [
        ("sub", "u0", "//a"),
        ("filter",),
        ("unsub", "u0"),
        ("filter",),
        ("sub", "u0", "/a[not(b = 1)]"),
        ("filter",),
        ("compact",),
        ("filter",),
    ],
    # drain to empty and grow back
    [
        ("unsub", "q0"),
        ("unsub", "q1"),
        ("unsub", "q2"),
        ("filter",),
        ("sub", "n0", "//a[b = 1 or b = 2]"),
        ("filter",),
        ("compact",),
        ("sub", "n1", "/a/b"),
        ("filter",),
    ],
]

SEED = {"q0": "//a[b = 1]", "q1": "/a/b", "q2": "//*[@k = 'x']"}


def _drive(schedule, engines, live):
    """Apply *schedule* to every engine in lock-step, checking answers
    against the brute-force rebuild at every filter point."""
    stream = "".join(DOC_POOL)
    for op in schedule:
        if op[0] == "sub":
            live[op[1]] = op[2]
            for engine in engines:
                engine.subscribe(op[1], op[2])
        elif op[0] == "unsub":
            del live[op[1]]
            for engine in engines:
                engine.unsubscribe(op[1])
        elif op[0] == "compact":
            for engine in engines:
                compact = getattr(engine, "compact", None)
                if compact is not None:
                    compact()
        else:
            expected = brute_truth(live, stream)
            rebuilt = create_engine(EngineConfig(engine="xpush"), dict(live))
            assert rebuilt.filter_stream(stream) == expected
            for engine in engines:
                assert engine.filter_stream(stream) == expected, op
                assert engine.filter_count == len(live)
            # A filter_stream call is one work item; filter_batch still
            # cuts the documents into batch_size items.
            assert engines[0].filter_batch(parse_forest(stream)) == expected, op


@pytest.mark.parametrize("schedule", SCHEDULES, ids=["inserts", "reinsert", "drain"])
@pytest.mark.parametrize("shards", [1, 3])
def test_serial_sharded_matches_layered_and_rebuild(schedule, shards):
    sharded = ShardedFilterEngine(
        dict(SEED), shards, options=TD, parallel=False, batch_size=2
    )
    layered = LayeredFilterEngine(
        [parse_xpath(source, oid) for oid, source in SEED.items()], options=TD
    )
    try:
        _drive(schedule, [sharded, layered], dict(SEED))
    finally:
        sharded.close()


@pytest.mark.parametrize("schedule", SCHEDULES, ids=["inserts", "reinsert", "drain"])
def test_worker_processes_match_rebuild_at_each_epoch(schedule):
    engine = ShardedFilterEngine(
        dict(SEED), 2, options=TD, batch_size=2, result_timeout=30.0
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    try:
        _drive(schedule, [engine], dict(SEED))
        # Answers are epoch-attributed: each shard reports the epoch of
        # the last control message routed to it (which its handle
        # remembers), never something newer than the engine's epoch.
        stats = engine.stats()
        assert stats["epoch"] > 0
        for entry in stats["per_shard"]:
            assert entry["applied_epoch"] <= stats["epoch"]
            assert entry["applied_epoch"] == engine._shards[entry["shard"]].epoch
        assert stats["worker_restarts"] == 0  # updates are not restarts
        # compact() broadcasts to every shard, so afterwards all of
        # them answer at the current epoch (a document dealt to each).
        engine.compact()
        engine.filter_stream("<a/><a/>")
        stats = engine.stats()
        assert all(
            entry["applied_epoch"] == stats["epoch"]
            for entry in stats["per_shard"]
        )
    finally:
        engine.close()


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "workers"])
def test_insertions_never_flush_the_base(parallel):
    """The Sec. 8 core claim, asserted on state counts: after an
    insertion the warmed base layer's states survive — only the small
    delta machine is (re)built."""
    engine = ShardedFilterEngine(
        dict(SEED), 2, options=TD, parallel=parallel, batch_size=2
    )
    if parallel and not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    stream = "".join(DOC_POOL)
    try:
        engine.filter_stream(stream)  # grow the lazy base tables
        before = {e["shard"]: e for e in engine.stats()["per_shard"]}
        assert sum(e["base_states"] for e in before.values()) > 0

        engine.subscribe("new0", "//b[text() = 2]")
        engine.subscribe("new1", "//a[b = 1 or b = 2]")
        assert engine.filter_stream(stream) == brute_truth(
            {**SEED, "new0": "//b[text() = 2]", "new1": "//a[b = 1 or b = 2]"},
            stream,
        )
        after = {e["shard"]: e for e in engine.stats()["per_shard"]}
        for shard_id, entry in after.items():
            # Lazy tables only ever grow between epochs — a flush would
            # reset them to the initial handful of states.
            assert entry["base_states"] >= before[shard_id]["base_states"]
        assert sum(e["delta_states"] for e in after.values()) > 0
    finally:
        engine.close()


def test_crash_with_uncompacted_deltas_recovers_updated_workload(protein, protein_docs):
    """A worker dying with deltas and tombstones that were never
    compacted must come back serving the *updated* workload: the parent
    updates its sources before it sends a control message."""
    filters = make_workload(protein, 8, seed=13)
    extra = make_workload(protein, 12, seed=77)[8:]
    docs = protein_docs[:6]
    engine = ShardedFilterEngine(
        filters, 2, options=TD, batch_size=2, result_timeout=30.0
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    try:
        engine.filter_batch(docs)  # warm the workers on the seed epoch
        live = {f.oid: f.source for f in filters}
        for f in extra:  # uncompacted deltas on both shards
            engine.subscribe(f.oid, f.source)
            live[f.oid] = f.source
        dropped = filters[0].oid
        engine.unsubscribe(dropped)  # an uncompacted tombstone
        del live[dropped]

        expected = [
            matching_oids(
                [parse_xpath(s, oid) for oid, s in live.items()], doc
            )
            for doc in docs
        ]
        assert engine.filter_batch(docs) == expected

        for victim in list(engine._workers):
            engine.inject_crash(victim)
        assert engine.filter_batch(docs) == expected
        stats = engine.stats()
        assert stats["worker_restarts"] == len(stats["per_shard"])
        # The respawned workers were forked from the updated engine: each
        # answers at the epoch of the last update routed to it without
        # replaying any control message (the stale queue died with the
        # old process).
        for entry in stats["per_shard"]:
            assert entry["applied_epoch"] == engine._shards[entry["shard"]].epoch
        assert max(e["applied_epoch"] for e in stats["per_shard"]) > 0
        # ... and keep accepting updates afterwards.
        engine.unsubscribe(extra[0].oid)
        del live[extra[0].oid]
        expected = [
            matching_oids(
                [parse_xpath(s, oid) for oid, s in live.items()], doc
            )
            for doc in docs
        ]
        assert engine.filter_batch(docs) == expected
    finally:
        engine.close()


def test_snapshot_restore_preserves_epoch_and_routing():
    engine = ShardedFilterEngine(dict(SEED), 2, options=TD, parallel=False)
    engine.subscribe("u0", "//a")
    engine.unsubscribe("q1")
    snapshot = engine.snapshot()
    stream = "".join(DOC_POOL)
    expected = engine.filter_stream(stream)
    engine.close()

    restored = create_engine(
        EngineConfig(engine="sharded", shards=2, parallel=False), snapshot=snapshot
    )
    try:
        assert restored.filter_stream(stream) == expected
        assert restored.stats()["epoch"] == snapshot["epoch"]
        # Updates continue from the restored epoch, not from zero.
        restored.subscribe("u1", "/a/b")
        assert restored.stats()["epoch"] == snapshot["epoch"] + 1
    finally:
        restored.close()


#: A version-1 capture, as the engine wrote them while it still kept
#: one inner-engine snapshot per shard: shard 0 is layered with a base,
#: an uncompacted delta (``u0`` re-defines a tombstoned base oid) and a
#: tombstone; shard 1 is in the sources format of the other engines.
VERSION_1_SNAPSHOT = {
    "format": "repro-sharded-engine",
    "version": 1,
    "shards": 2,
    "inner": "layered",
    "strategy": "hash",
    "placement": "hash",
    "epoch": 9,
    "routing": {"q0": 0, "u0": 0, "u1": 0, "q2": 1},
    "shard_snapshots": [
        {
            "format": "repro-layered-engine",
            "version": 1,
            "base": {
                "afas": [
                    {"oid": "q0", "source": "//a[b = 1]"},
                    {"oid": "q1", "source": "/a/b"},
                    {"oid": "u0", "source": "//a"},
                ]
            },
            "delta": {"u0": "/a[not(b = 1)]", "u1": "//b[text() = 2]"},
            "tombstones": ["q1"],
        },
        {
            "format": "repro-engine-workload",
            "version": 1,
            "engine": "xpush",
            "filters": {"q2": "//*[@k = 'x']"},
        },
    ],
}


def test_version_1_snapshot_restores_the_live_workload():
    live = {
        "q0": "//a[b = 1]",
        "u0": "/a[not(b = 1)]",
        "u1": "//b[text() = 2]",
        "q2": "//*[@k = 'x']",
    }
    stream = "".join(DOC_POOL)
    restored = create_engine(
        EngineConfig(engine="sharded", parallel=False), snapshot=VERSION_1_SNAPSHOT
    )
    try:
        assert restored.filter_stream(stream) == brute_truth(live, stream)
        _assert_on_every_replica(restored, live)
        assert restored.stats()["epoch"] == 9
        again = restored.snapshot()  # re-saved in the current format
        assert again["version"] == 3 and again["filters"] == live
        for key in ("shard_snapshots", "strategy", "placement", "routing"):
            assert key not in again
    finally:
        restored.close()


def _assert_on_every_replica(engine, live):
    """Each shard holds — and reports — every live oid."""
    stats = engine.stats()
    for shard_id in range(engine.shards):
        assert engine._shards[shard_id].info()["filters"] == len(live)
        assert stats["per_shard"][shard_id]["filters"] == len(live)


def test_a_version_2_routing_table_is_not_read():
    """A version-2 capture carried a routing table, and ``placement=
    "cost"`` could route a filter anywhere.  The table is accepted and
    ignored: every filter comes back on every shard, with the same
    answers."""
    live = dict(SEED)
    stream = "".join(DOC_POOL)
    capture = {
        "format": "repro-sharded-engine",
        "version": 2,
        "shards": 2,
        "inner": "layered",
        "placement": "cost",
        "epoch": 4,
        # Every oid on shard 1 alone.
        "routing": {oid: 1 for oid in live},
        "filters": live,
    }
    restored = create_engine(
        EngineConfig(engine="sharded", parallel=False), snapshot=capture
    )
    try:
        assert restored.filter_stream(stream) == brute_truth(live, stream)
        _assert_on_every_replica(restored, live)
        assert restored.stats()["epoch"] == 4
    finally:
        restored.close()


def test_a_live_subscribe_reaches_every_replica():
    """Broadcast, not routed: after a live subscribe each worker
    reports the new filter and answers it on the documents dealt to it."""
    engine = ShardedFilterEngine(dict(SEED), 3, options=TD, result_timeout=30.0)
    try:
        engine.subscribe("fresh", "//a")
        live = {**SEED, "fresh": "//a"}
        stream = "<a/>" * 3
        assert engine.filter_stream(stream) == brute_truth(live, stream)
        assert engine.stats()["shard_load"] == [1.0, 1.0, 1.0]
        _assert_on_every_replica(engine, live)
    finally:
        engine.close()


class UpdatePlaneMachine(RuleBasedStateMachine):
    """Random interleavings of the control plane, differentially
    checked: sharded-serial == layered == semantic reference."""

    def __init__(self):
        super().__init__()
        self.live: dict[str, str] = {}
        self.counter = 0
        self.sharded = ShardedFilterEngine(
            [], 2, options=TD, parallel=False, batch_size=2
        )
        self.layered = LayeredFilterEngine([], options=TD, compact_threshold=3)

    @initialize()
    def seed(self):
        self.do_subscribe(FILTER_POOL[0])

    @rule(source=st.sampled_from(FILTER_POOL))
    def do_subscribe(self, source):
        oid = f"h{self.counter}"
        self.counter += 1
        self.live[oid] = source
        self.sharded.subscribe(oid, source)
        self.layered.subscribe(oid, source)

    @rule(data=st.data())
    def do_unsubscribe(self, data):
        if not self.live:
            return
        oid = data.draw(st.sampled_from(sorted(self.live)))
        del self.live[oid]
        self.sharded.unsubscribe(oid)
        self.layered.unsubscribe(oid)

    @rule()
    def do_compact(self):
        self.sharded.compact()
        self.layered.compact()

    @rule(xml=st.sampled_from(DOC_POOL))
    def do_filter(self, xml):
        expected = brute_truth(self.live, xml)
        assert self.sharded.filter_stream(xml) == expected
        assert self.layered.filter_stream(xml) == expected

    @invariant()
    def counts_agree(self):
        assert self.sharded.filter_count == len(self.live)
        assert self.layered.filter_count == len(self.live)

    def teardown(self):
        self.sharded.close()


def test_update_plane_stateful():
    run_state_machine_as_test(
        UpdatePlaneMachine,
        settings=settings(max_examples=30, stateful_step_count=20, deadline=None),
    )

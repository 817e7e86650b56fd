"""``kill -9`` at every control-message boundary.

For each control verb and each inner engine kind, the workers — every
verb is broadcast to every replica — are crashed at each side of its
control messages:

- ``before`` — the worker is already dead when the message is sent (the
  send itself respawns it);
- ``lost`` — the message is enqueued to a worker that dies before
  reading it (held stopped, with the crash ahead of it in the queue);
- ``after`` — the worker applies the message, then dies.

Every time the next answers must equal the semantic reference over the
live workload, every crashed worker must have restarted exactly once,
and it must answer at the epoch of the last update and report every
live filter — an update applied twice (the worker rejects a duplicate
oid) or not at all (a wrong answer) cannot hide.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine import EngineConfig, create_engine
from repro.xmlstream.dom import parse_forest
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids

SEED = {
    "q0": "//a[b = 1]",
    "q1": "/a/b",
    "q2": "//*[@k = 'x']",
    "q3": "//a",
    "q4": "//b[text() = 2]",
    "q5": "/a[not(b = 1)]",
}
STREAM = (
    "<a><b>1</b></a><a><b>2</b></a><a><c/></a><b>2</b>"
    "<a k='x'><b>1</b><a><b>2</b></a></a><r><a><b>3</b></a></r>"
)
SHARDS = 3


def _truth(live):
    filters = [parse_xpath(source, oid) for oid, source in live.items()]
    return [matching_oids(filters, doc) for doc in parse_forest(STREAM)]


def _subscribe(engine, live):
    live["new"] = "//a[b = 1 or b = 2]"
    return lambda: engine.subscribe("new", live["new"])


def _unsubscribe(engine, live):
    del live["q2"]
    return lambda: engine.unsubscribe("q2")


def _compact(engine, live):
    return engine.compact


VERBS = {
    "subscribe": _subscribe,
    "unsubscribe": _unsubscribe,
    "compact": _compact,
}


@pytest.mark.parametrize("when", ["before", "lost", "after"])
@pytest.mark.parametrize("inner", ["layered", "xpush"])
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_crash_at_the_control_message_boundary(verb, inner, when):
    live = dict(SEED)
    engine = create_engine(
        EngineConfig(
            engine="sharded", shards=SHARDS, inner=inner, batch_size=2, result_timeout=30.0
        ),
        dict(SEED),
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    try:
        assert engine.filter_stream(STREAM) == _truth(live)
        touched = list(range(SHARDS))
        act = VERBS[verb](engine, live)
        processes = [engine._shards[shard_id].process for shard_id in touched]
        if when == "lost":
            for process in processes:
                os.kill(process.pid, signal.SIGSTOP)
        if when != "after":
            for shard_id in touched:
                engine.inject_crash(shard_id)
        if when == "before":
            for process in processes:
                process.join(10.0)
                assert process.exitcode is not None
        act()
        if when == "lost":
            for process in processes:
                os.kill(process.pid, signal.SIGCONT)
        if when == "after":
            for shard_id in touched:
                engine.inject_crash(shard_id)
        assert engine.filter_stream(STREAM) == _truth(live)
        stats = engine.stats()
        assert stats["worker_restarts"] == len(touched)
        assert stats["filters"] == len(live) == engine.filter_count
        for shard_id in touched:
            entry = stats["per_shard"][shard_id]
            assert engine._shards[shard_id].restarts == 1
            # Booted at — not replayed up to — its last update, and
            # a replica of the whole live workload.
            assert entry["applied_epoch"] == engine._shards[shard_id].epoch
            worker_view = engine._shards[shard_id].info()["filters"]
            assert worker_view == entry["filters"] == engine.filter_count
        # One epoch, broadcast to every shard.
        assert all(engine._shards[s].epoch == engine.epoch for s in touched)
        # The control plane stays live, and nothing is applied twice.
        engine.subscribe("post", "//r")
        live["post"] = "//r"
        assert engine.filter_stream(STREAM) == _truth(live)
        assert engine.stats()["worker_restarts"] == len(touched)
    finally:
        engine.close()

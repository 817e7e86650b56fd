"""The shard seam: ``LocalShard`` and ``WorkerShard`` are interchangeable.

Both are driven here without an orchestrator — the test plays that
part: it owns the workload (``live``), hands each shard a ``boot``
callable that projects it, and keeps the one invariant the seam asks
for (update ``live`` *before* calling a control verb).  One update
schedule through both kinds must give the same answers and the same
``info()``; a killed worker must come back from ``boot`` and re-answer
exactly the batches it still owed.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine import EngineConfig
from repro.service.engine import _mp_context
from repro.service.shard import LocalShard, WorkerShard
from repro.service.worker import build_payload
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xmlstream.dom import parse_document

DOCS = [
    "<a><b>1</b></a>",
    "<a><b>2</b></a>",
    "<b>2</b>",
    "<a k='x'><b>1</b><a><b>2</b></a></a>",
]

SEED = {"q0": "//a[b = 1]", "q1": "/a/b"}

#: subscribe, re-subscribe of a removed oid (with a different filter),
#: unsubscribe and compact, with an answer check after every step.
SCHEDULE = [
    ("sub", "u0", "//a"),
    ("unsub", "u0"),
    ("sub", "u0", "//b[text() = 2]"),
    ("sub", "u1", "//*[@k = 'x']"),
    ("unsub", "q1"),
    ("compact",),
    ("sub", "u2", "/a/b"),
]


def _make(kind, inner, live):
    config = EngineConfig(engine=inner)

    def boot(epoch):
        return build_payload(config, live, epoch=epoch, warm=False)

    if kind == "local":
        return LocalShard(0, boot)
    ctx = _mp_context()
    if ctx is None:
        pytest.skip("multiprocessing unavailable on this platform")
    return WorkerShard(0, boot, ctx, queue_depth=4, result_timeout=30.0)


def _replies(shard, count):
    """The next *count* batch replies of a worker shard, by batch id."""
    replies = {}
    while len(replies) < count:
        assert shard.results.poll(30.0), "worker never answered"
        message = shard.results.recv()
        if message[0] == "ready":
            continue
        assert message[0] == "batch", message
        _, _, batch_id, answers, info = message
        assert batch_id not in replies, "a batch was answered twice"
        replies[batch_id] = answers
        shard.pending.pop(batch_id)
        shard.last_info = info
    return replies


def _answers(shard, batch_id, texts):
    if isinstance(shard, LocalShard):
        return [matched for text in texts for matched in shard.engine.filter_stream(text)]
    shard.submit(batch_id, texts, False)
    return _replies(shard, 1)[batch_id]


def _truth(live):
    filters = [parse_xpath(source, oid) for oid, source in live.items()]
    return [matching_oids(filters, parse_document(text)) for text in DOCS]


@pytest.mark.parametrize("inner", ["layered", "xpush"])
def test_one_schedule_through_both_kinds_of_shard(inner):
    lives = {"local": dict(SEED), "worker": dict(SEED)}
    shards = {kind: _make(kind, inner, live) for kind, live in lives.items()}
    try:
        for epoch, op in enumerate(SCHEDULE, start=1):
            for kind, shard in shards.items():
                live = lives[kind]
                if op[0] == "sub":
                    live[op[1]] = op[2]
                    shard.subscribe(op[1], op[2], epoch)
                elif op[0] == "unsub":
                    del live[op[1]]
                    shard.unsubscribe(op[1], epoch)
                else:
                    shard.compact(epoch)
            expected = _truth(lives["local"])
            local = _answers(shards["local"], epoch, DOCS)
            worker = _answers(shards["worker"], epoch, DOCS)
            assert local == worker == expected, op
            local_info, worker_info = shards["local"].info(), shards["worker"].info()
            assert local_info["filters"] == worker_info["filters"] == len(lives["local"])
            assert local_info["applied_epoch"] == worker_info["applied_epoch"] == epoch
        assert shards["worker"].restarts == 0
    finally:
        for shard in shards.values():
            shard.stop()


def test_killed_worker_reanswers_exactly_its_pending_batches_once():
    live = dict(SEED)
    shard = _make("worker", "xpush", live)
    try:
        expected = _truth(live)
        assert _answers(shard, 1, DOCS) == expected  # answered: owes nothing
        # An update the worker never applies: it dies first (held
        # stopped while its queue fills, so the order is certain).  The
        # workload moved before the verb, so the respawn boots it.
        os.kill(shard.process.pid, signal.SIGSTOP)
        shard.inject_crash()
        live["late"] = "//a"
        shard.subscribe("late", "//a", 7)
        shard.submit(2, DOCS[:2], False)
        shard.submit(3, DOCS[2:], False)
        os.kill(shard.process.pid, signal.SIGCONT)
        shard.process.join(10.0)
        assert shard.dead and sorted(shard.pending) == [2, 3]
        shard.restart()
        replies = _replies(shard, 2)
        expected = _truth(live)
        assert replies == {2: expected[:2], 3: expected[2:]}
        assert not shard.results.poll(0.3)  # nothing else: batch 1 stays answered
        assert shard.restarts == 1 and not shard.pending
        assert shard.info()["applied_epoch"] == 7 and shard.info()["filters"] == 3
    finally:
        shard.stop()

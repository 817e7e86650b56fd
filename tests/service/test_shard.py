"""The shard seam: ``LocalShard`` and ``WorkerShard`` are interchangeable.

Both are driven here without an orchestrator — the test plays that
part: it owns the workload (``live``), hands each shard a ``boot``
callable that projects it, and keeps the one invariant the seam asks
for (update ``live`` *before* calling a control verb).  Both kinds
answer a ``submit`` in the worker protocol's messages, so one update
schedule through both must give the same reply sequences — ``match``
messages ahead of the ``batch`` reply, the same ``applied_epoch`` —
and the same ``info()``; a killed worker must come back from ``boot``
and re-answer exactly the batches it still owed.
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


def _next(shard):
    """A shard's next reply: queued by a local shard inside ``submit``,
    read off a worker's result pipe (folded as the orchestrator does)."""
    if isinstance(shard, LocalShard):
        return shard.replies.popleft()
    assert shard.results.poll(30.0), "worker never answered"
    message = shard.results.recv()
    if message[0] == "batch":
        shard.pending.pop(message[2])
        shard.last_info = message[4]
    return message


def _replies(shard, count):
    """The next *count* batch replies, by batch id; the ``info`` of
    each cut down to ``applied_epoch``, its ``match`` messages kept."""
    replies: dict = {}
    matches: list = []
    while len(replies) < count:
        message = _next(shard)
        if message[0] == "ready":
            continue
        if message[0] == "match":
            matches.append(message)
            continue
        assert message[0] == "batch", message
        kind, shard_id, batch_id, answers, info = message
        assert batch_id not in replies, "a batch was answered twice"
        assert info["batch_s"] > 0.0
        epoch = {"applied_epoch": info["applied_epoch"]}
        replies[batch_id] = [*matches, (kind, shard_id, batch_id, answers, epoch)]
        matches = []
    return replies


def _submit(shard, batch_id, texts, emit=False):
    """Submit one batch; its reply sequence, the batch reply last."""
    shard.submit(batch_id, texts, emit)
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
            local = _submit(shards["local"], epoch, DOCS, emit=True)
            worker = _submit(shards["worker"], epoch, DOCS, emit=True)
            assert local == worker, op
            *matches, (_, _, _, answers, info) = local
            assert answers == _truth(lives["local"]), op
            assert info == {"applied_epoch": epoch}
            # Every match streams ahead of the reply, once, and names
            # a document whose answer holds it.
            assert sorted((m[3], m[4]) for m in matches) == sorted(
                (doc, oid) for doc, oids in enumerate(answers) for oid in oids
            )
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
        assert _submit(shard, 1, DOCS)[-1][3] == expected  # answered: owes nothing
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
        assert {bid: reply[-1][3] for bid, reply in replies.items()} == {
            2: expected[:2],
            3: expected[2:],
        }
        assert not shard.results.poll(0.3)  # nothing else: batch 1 stays answered
        assert shard.restarts == 1 and not shard.pending
        assert shard.info()["applied_epoch"] == 7 and shard.info()["filters"] == 3
    finally:
        shard.stop()

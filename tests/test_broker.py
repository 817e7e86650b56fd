"""Tests for the message broker application."""

import random

import pytest

from repro.broker import MessageBroker
from repro.engine import EngineConfig
from repro.errors import ReproError, WorkloadError
from repro.xmlstream.dom import parse_document


def test_subscribe_publish_deliver():
    broker = MessageBroker()
    inbox = []
    broker.on_deliver = lambda who, doc: inbox.append((who, doc.root.label))
    broker.subscribe("alice", "//a[b/text() = 1]")
    broker.subscribe("bob", "//c")
    assert broker.publish_text("<a><b>1</b></a>") == 1
    assert broker.publish_text("<c/>") == 1
    assert broker.publish_text("<d/>") == 0
    assert inbox == [("alice", "a"), ("bob", "c")]
    stats = broker.stats()
    assert stats["published"] == 3
    assert stats["delivered"] == 2
    assert stats["subscriptions"] == 2


def test_multiple_matches_single_packet():
    broker = MessageBroker()
    seen = []
    broker.on_deliver = lambda who, doc: seen.append(who)
    broker.subscribe("x", "//a")
    broker.subscribe("y", "/a[b]")
    broker.publish(parse_document("<a><b/></a>"))
    assert sorted(seen) == ["x", "y"]


def test_unsubscribe():
    broker = MessageBroker()
    seen = []
    broker.on_deliver = lambda who, doc: seen.append(who)
    oid = broker.subscribe("x", "//a")
    broker.publish(parse_document("<a/>"))
    broker.unsubscribe(oid)
    broker.publish(parse_document("<a/>"))
    assert seen == ["x"]
    with pytest.raises(WorkloadError):
        broker.unsubscribe(oid)


def test_invalid_subscription_rejected_eagerly():
    broker = MessageBroker()
    with pytest.raises(ReproError):
        broker.subscribe("x", "not a filter [")
    assert broker.subscription_count == 0


def test_machine_rebuilt_after_subscription_change():
    broker = MessageBroker()
    seen = []
    broker.on_deliver = lambda who, doc: seen.append(who)
    broker.subscribe("x", "//a")
    broker.publish(parse_document("<a/>"))
    broker.subscribe("y", "//a")  # lands in a delta layer beside x's machine
    broker.publish(parse_document("<a/>"))
    assert seen == ["x", "x", "y"]


def test_publish_with_no_subscribers():
    broker = MessageBroker()
    assert broker.publish(parse_document("<a/>")) == 0
    assert broker.stats()["published"] == 1


def test_incremental_broker_equals_rebuilding_broker():
    """The default engine's layers against the Sec. 8 brute-force path:
    closing a broker after each subscription change makes its next
    publish rebuild the engine from the live subscriptions."""
    plain = MessageBroker()
    layered = MessageBroker()
    log_plain, log_layered = [], []
    plain.on_deliver = lambda who, doc: log_plain.append(who)
    layered.on_deliver = lambda who, doc: log_layered.append(who)
    for broker in (plain, layered):
        broker.subscribe("x", "//a")
        broker.subscribe("y", "/a[b = 1]")
    docs = [parse_document(x) for x in ("<a><b>1</b></a>", "<a/>", "<c/>")]
    for doc in docs:
        plain.publish(doc)
        layered.publish(doc)
    # Mid-stream subscription change on both.
    oid_p = plain.subscribe("z", "//c")
    plain.close()
    oid_l = layered.subscribe("z", "//c")
    for doc in docs:
        plain.publish(doc)
        layered.publish(doc)
    plain.unsubscribe(oid_p)
    plain.close()
    layered.unsubscribe(oid_l)
    for doc in docs:
        plain.publish(doc)
        layered.publish(doc)
    assert log_plain == log_layered
    assert layered.stats()["engine"]["insertions"] == 3
    assert plain.stats()["engine"]["insertions"] == 0


# ----------------------------------------------------------------------
# Sharded mode (docs/scaling.md) and batch publishing
# ----------------------------------------------------------------------

#: A small document pool with structures the filter pool below can hit.
DOC_POOL = [
    "<a><b>1</b></a>",
    '<a c="3"><b>1</b></a>',
    "<a><b>2</b></a>",
    "<c><d/></c>",
    "<d/>",
    "<a><a><b>1</b></a></a>",
]

FILTER_POOL = [
    "//a",
    "/a[b]",
    "//a[b/text() = 1]",
    "//a[@c > 2]",
    "//c[d]",
    "//d",
    "//b[text() = 2]",
    "/a[b = 1 and not(c)]",
]


def _make_modes():
    """The broker modes the delivery-equivalence property covers."""
    return {
        "default": MessageBroker(),
        "sharded": MessageBroker(EngineConfig(engine="sharded", shards=2, parallel=False)),
    }


def test_publish_batch_counts_and_delivery():
    broker = MessageBroker()
    inbox = []
    broker.on_deliver = lambda who, doc: inbox.append((who, doc.root.label))
    broker.subscribe("alice", "//a")
    broker.subscribe("bob", "//c[d]")
    docs = [parse_document(text) for text in DOC_POOL]
    assert broker.publish_batch(docs) == 5
    assert broker.stats()["published"] == len(docs)
    assert inbox.count(("bob", "c")) == 1
    assert broker.publish_batch([]) == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_broker_modes_agree_on_random_interleavings(seed):
    """Subscribe/unsubscribe/publish interleavings deliver identically
    in default and sharded modes, and an unsubscribed oid is never
    delivered after its removal."""
    rng = random.Random(seed)
    docs = [parse_document(text) for text in DOC_POOL]
    modes = _make_modes()
    logs = {name: [] for name in modes}
    removed: set[str] = set()  # subscribers unsubscribed in every mode
    for name, broker in modes.items():
        broker.on_deliver = lambda who, doc, log=logs[name]: log.append(who)
    active: list[tuple[dict[str, str], str]] = []  # (oid per mode, subscriber)
    counter = 0
    for _ in range(40):
        action = rng.random()
        if action < 0.35 or not active:
            xpath = rng.choice(FILTER_POOL)
            subscriber = f"sub-{counter}"
            counter += 1
            oids = {
                name: broker.subscribe(subscriber, xpath)
                for name, broker in modes.items()
            }
            active.append((oids, subscriber))
        elif action < 0.5:
            index = rng.randrange(len(active))
            oids, subscriber = active.pop(index)
            for name, broker in modes.items():
                broker.unsubscribe(oids[name])
            removed.add(subscriber)
        else:
            doc = rng.choice(docs)
            counts = {name: broker.publish(doc) for name, broker in modes.items()}
            assert len(set(counts.values())) == 1, counts
            for name in modes:
                delivered_now = logs[name][-counts[name]:] if counts[name] else []
                assert not (set(delivered_now) & removed), (
                    f"{name}: delivery to unsubscribed {set(delivered_now) & removed}"
                )
    assert logs["sharded"] == logs["default"]
    for broker in modes.values():
        broker.close()


def test_sharded_broker_with_worker_processes():
    plain = MessageBroker()
    with MessageBroker(EngineConfig(engine="sharded", shards=2, batch_size=2)) as sharded:
        log_plain, log_sharded = [], []
        plain.on_deliver = lambda who, doc: log_plain.append(who)
        sharded.on_deliver = lambda who, doc: log_sharded.append(who)
        for broker in (plain, sharded):
            broker.subscribe("alice", "//a[b/text() = 1]")
            broker.subscribe("bob", "//c[d]")
            broker.subscribe("carol", "//a")
        docs = [parse_document(text) for text in DOC_POOL]
        assert plain.publish_batch(docs) == sharded.publish_batch(docs)
        assert log_plain == log_sharded
        stats = sharded.stats()["engine"]
        assert stats["worker_restarts"] == 0
        assert stats["shards"] == 2
        assert stats["xpush_states"] > 0
        if not stats["serial_fallback"]:
            assert stats["batches"] >= 3  # batched fan-out happened


def test_sharded_broker_reports_its_shards_hit_ratio():
    """The broker nests the engine's stats, whose top level merges the
    shards' counters: the hit ratio is theirs, not a missing key's 0."""
    with MessageBroker(EngineConfig(engine="sharded", shards=2, parallel=False)) as broker:
        broker.subscribe("alice", "//a[b/text() = 1]")
        for _ in range(5):
            broker.publish(parse_document("<a><b>1</b></a>"))
        stats = broker.stats()["engine"]
        per_shard = stats["per_shard"]
        assert stats["hit_ratio"] > 0
        assert stats["hit_ratio"] == sum(e["hits"] for e in per_shard) / sum(
            e["lookups"] for e in per_shard
        )


def test_broker_serve_bridges_to_network_tier():
    from repro.serving import ServerThread, ServingClient

    with MessageBroker() as broker:
        inbox = []
        broker.on_deliver = lambda who, doc: inbox.append(who)
        broker.subscribe("alice", "//a[b/text() = 1]")
        with ServerThread(broker.serve()) as handle:
            with ServingClient(*handle.address) as client:
                # the wire sees the broker's live workload
                assert client.publish("<a><b>1</b></a>") == [frozenset({"sub0"})]
                # wire-side subscriptions land in the shared engine
                client.subscribe("net0", "//c", consumer="remote")
                assert client.publish("<c/>") == [frozenset({"net0"})]
                events = client.drain("remote", timeout=1.0)
                assert [e["oids"] for e in events] == [["net0"]]
        # stopping the server left the broker's engine alive
        assert broker.publish_text("<a><b>1</b></a>") == 1
        assert inbox == ["alice"]

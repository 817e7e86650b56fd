"""The Sec. 1 broker on ``create_engine``: one engine filters each
packet once, and a local oid -> subscriber dict routes its answer set,
as ``examples/message_broker.py`` does."""

import random

import pytest

from repro.engine import EngineConfig, create_engine
from repro.errors import ReproError
from repro.xmlstream.dom import parse_document

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


class Routes:
    """One engine and the oid -> subscriber dict that routes its answers."""

    def __init__(self, config=None):
        self.engine = create_engine(config or EngineConfig())
        self.routes: dict[str, str] = {}
        self.log: list[str] = []
        self._counter = 0

    def subscribe(self, subscriber, xpath):
        oid = f"sub{self._counter}"
        self._counter += 1
        self.engine.subscribe(oid, xpath)
        self.routes[oid] = subscriber
        return oid

    def unsubscribe(self, oid):
        self.engine.unsubscribe(oid)
        del self.routes[oid]

    def route(self, matched):
        """Deliver one answer set in oid order; returns the deliveries."""
        delivered = [self.routes[oid] for oid in sorted(matched)]
        self.log.extend(delivered)
        return len(delivered)

    def publish(self, document):
        return self.route(self.engine.filter_document(document))


def test_invalid_subscription_rejected_eagerly():
    broker = Routes()
    try:
        with pytest.raises(ReproError):
            broker.subscribe("x", "not a filter [")
        assert broker.engine.filter_count == 0
    finally:
        broker.engine.close()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_broker_modes_agree_on_random_interleavings(seed):
    """Subscribe/unsubscribe/publish interleavings deliver identically
    over the default and the sharded engine, and an unsubscribed oid is
    never delivered after its removal."""
    rng = random.Random(seed)
    docs = [parse_document(text) for text in DOC_POOL]
    modes = {
        "default": Routes(),
        "sharded": Routes(EngineConfig(engine="sharded", shards=2, parallel=False)),
    }
    removed: set[str] = set()  # subscribers unsubscribed in every mode
    active: list[tuple[dict[str, str], str]] = []  # (oid per mode, subscriber)
    counter = 0
    for _ in range(40):
        action = rng.random()
        if action < 0.35 or not active:
            xpath = rng.choice(FILTER_POOL)
            subscriber = f"sub-{counter}"
            counter += 1
            oids = {name: broker.subscribe(subscriber, xpath) for name, broker in modes.items()}
            active.append((oids, subscriber))
        elif action < 0.5:
            oids, subscriber = active.pop(rng.randrange(len(active)))
            for name, broker in modes.items():
                broker.unsubscribe(oids[name])
            removed.add(subscriber)
        else:
            doc = rng.choice(docs)
            counts = {name: broker.publish(doc) for name, broker in modes.items()}
            assert len(set(counts.values())) == 1, counts
            for name, broker in modes.items():
                delivered_now = broker.log[-counts[name]:] if counts[name] else []
                assert not (set(delivered_now) & removed), (
                    f"{name}: delivery to unsubscribed {set(delivered_now) & removed}"
                )
    assert modes["sharded"].log == modes["default"].log
    for broker in modes.values():
        broker.engine.close()


def test_sharded_broker_with_worker_processes():
    plain = Routes()
    sharded = Routes(EngineConfig(engine="sharded", shards=2, batch_size=2))
    try:
        for broker in (plain, sharded):
            broker.subscribe("alice", "//a[b/text() = 1]")
            broker.subscribe("bob", "//c[d]")
            broker.subscribe("carol", "//a")
        docs = [parse_document(text) for text in DOC_POOL]
        delivered_plain = sum(plain.publish(doc) for doc in docs)
        # the whole batch dealt out to the shard workers in one call
        delivered_sharded = sum(sharded.route(m) for m in sharded.engine.filter_batch(docs))
        assert delivered_plain == delivered_sharded
        assert plain.log == sharded.log
        stats = sharded.engine.stats()
        assert stats["worker_restarts"] == 0
        assert stats["shards"] == 2
        assert stats["xpush_states"] > 0
        if not stats["serial_fallback"]:
            assert stats["batches"] >= 3  # batched fan-out happened
    finally:
        plain.engine.close()
        sharded.engine.close()


def test_sharded_broker_reports_its_shards_hit_ratio():
    """The sharded engine's top-level stats merge the shards' counters:
    the hit ratio is theirs, not a missing key's 0."""
    broker = Routes(EngineConfig(engine="sharded", shards=2, parallel=False))
    try:
        broker.subscribe("alice", "//a[b/text() = 1]")
        for _ in range(5):
            assert broker.publish(parse_document("<a><b>1</b></a>")) == 1
        stats = broker.engine.stats()
        per_shard = stats["per_shard"]
        assert stats["hit_ratio"] > 0
        assert stats["hit_ratio"] == sum(e["hits"] for e in per_shard) / sum(
            e["lookups"] for e in per_shard
        )
    finally:
        broker.engine.close()


def test_broker_serve_bridges_to_network_tier():
    from repro.serving import FilterServer, ServerThread, ServingClient

    broker = Routes()
    try:
        broker.subscribe("alice", "//a[b/text() = 1]")
        with ServerThread(FilterServer(broker.engine)) as handle:
            with ServingClient(*handle.address) as client:
                # the wire sees the broker's live workload
                assert client.publish("<a><b>1</b></a>") == [frozenset({"sub0"})]
                # wire-side subscriptions land in the shared engine
                client.subscribe("net0", "//c", consumer="remote")
                assert client.publish("<c/>") == [frozenset({"net0"})]
                events = client.drain("remote", timeout=1.0)
                assert [e["oids"] for e in events] == [["net0"]]
        # stopping the server left the broker's engine alive
        assert broker.publish(parse_document("<a><b>1</b></a>")) == 1
        assert broker.log == ["alice"]
    finally:
        broker.engine.close()

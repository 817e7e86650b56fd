"""End-to-end differential wall: the live server == the serial machine.

N concurrent publishers push document streams through a real loopback
socket while M subscribers drain per-consumer queues; every publish ack
must carry exactly the oid-sets the serial :class:`XPushMachine`
computes for the same documents, for every engine kind behind the
server (serial xpush, layered, sharded — in-process and with worker
processes).  Deliveries are checked against the acks: each consumer
receives one event per (document, owned matched oids) pair, no more,
no fewer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import EngineConfig
from repro.serving import ServingClient
from repro.xpush.machine import XPushMachine

from tests.serving.conftest import DOC_POOL, FILTER_POOL

#: consumer name -> the oids it owns (3 subscribers over 8 filters).
CONSUMER_OIDS = {
    "alice": ["q0", "q1", "q2"],
    "bob": ["q3", "q4", "q5"],
    "carol": ["q6", "q7"],
}

ENGINE_CONFIGS = {
    "xpush": EngineConfig(engine="xpush"),
    "layered": EngineConfig(engine="layered", compact_threshold=4),
    "sharded-serial": EngineConfig(engine="sharded", shards=3, parallel=False),
}


def ground_truth() -> dict[str, list[frozenset[str]]]:
    """Per-publish-text expected answers from the serial machine."""
    machine = XPushMachine.from_xpath(dict(FILTER_POOL))
    return {text: machine.filter_stream(text) for text in DOC_POOL}


def _publisher(host, port, texts, acks, errors):
    try:
        with ServingClient(host, port) as client:
            for text in texts:
                acks.append((text, client.publish_detail(text)))
    except Exception as error:  # noqa: BLE001 - reported to the main thread
        errors.append(error)


def run_wall(serve, config, publishers=4, rounds=3):
    handle = serve(config, dict(FILTER_POOL))
    host, port = handle.address
    with ServingClient(host, port) as control:
        # Route each seed oid to its consumer: unsubscribe the unrouted
        # seed definition and re-subscribe it bound to the consumer
        # (routing rides the subscribe verb).
        for name, oids in CONSUMER_OIDS.items():
            control.create_consumer(name, policy="block", high_watermark=512)
            for oid in oids:
                control.unsubscribe(oid)
                control.subscribe(oid, FILTER_POOL[oid], consumer=name)

        expected = ground_truth()
        threads, acks, errors = [], [], []
        for p in range(publishers):
            # each publisher rotates the pool from its own offset
            texts = [
                DOC_POOL[(p + i) % len(DOC_POOL)]
                for i in range(rounds * len(DOC_POOL))
            ]
            thread = threading.Thread(
                target=_publisher, args=(host, port, texts, acks, errors)
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        assert len(acks) == publishers * rounds * len(DOC_POOL)

        # -- answers: byte-identical to the serial machine ------------
        seqs = set()
        for text, ack in acks:
            got = [frozenset(matched) for matched in ack["results"]]
            assert got == expected[text], text
            seqs.update(range(ack["seq"], ack["seq"] + len(got)))
        total_docs = sum(len(expected[text]) for text, _ in acks)
        assert len(seqs) == total_docs  # seq ranges never overlap

        # -- deliveries: exactly the acked matches, per consumer ------
        want = {name: set() for name in CONSUMER_OIDS}
        owner = {
            oid: name for name, oids in CONSUMER_OIDS.items() for oid in oids
        }
        for text, ack in acks:
            for index, matched in enumerate(ack["results"]):
                per = {}
                for oid in matched:
                    per.setdefault(owner[oid], []).append(oid)
                for name, oids in per.items():
                    want[name].add((ack["seq"] + index, tuple(sorted(oids))))
        for name in CONSUMER_OIDS:
            events = control.drain(name, timeout=1.0)
            got = {(e["seq"], tuple(e["oids"])) for e in events}
            assert got == want[name], name

        stats = control.stats()
        assert stats["published_docs"] == total_docs
        assert stats["publish_errors"] == 0
        assert stats["partial_frames"] == 0
        for name, entry in stats["consumers"].items():
            assert entry["dropped"] == 0 and not entry["evicted"], name
    handle.stop()


@pytest.mark.parametrize("kind", sorted(ENGINE_CONFIGS), ids=sorted(ENGINE_CONFIGS))
def test_concurrent_publishers_match_serial_machine(serve, kind):
    run_wall(serve, ENGINE_CONFIGS[kind])


def test_sharded_worker_processes_match_serial_machine(serve):
    config = EngineConfig(engine="sharded", shards=2, batch_size=4)
    handle = serve(config, dict(FILTER_POOL))
    if not handle.server.engine.parallel:  # type: ignore[attr-defined]
        pytest.skip("multiprocessing unavailable on this platform")
    expected = ground_truth()
    host, port = handle.address
    with ServingClient(host, port) as client:
        for text in DOC_POOL:
            assert client.publish(text) == expected[text]
    handle.stop()


def test_http_and_frame_publishers_agree(serve):
    """The two ingestion transports are one verb: identical answers."""
    import json
    import urllib.request

    handle = serve(EngineConfig(engine="layered"), dict(FILTER_POOL))
    host, port = handle.address
    expected = ground_truth()
    with ServingClient(host, port) as client:
        for text in DOC_POOL:
            framed = client.publish(text)
            request = urllib.request.Request(
                f"http://{host}:{port}/publish",
                data=text.encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                over_http = [
                    frozenset(m) for m in json.loads(response.read())["results"]
                ]
            assert framed == over_http == expected[text]


@pytest.mark.parametrize("early", [False, True], ids=["late", "early"])
def test_a_workload_loaded_by_subscribes_idles_to_one_layer(serve, early):
    """A server loaded only through ``subscribe`` ends with a partial
    delta (9 filters against a threshold of 4); ``compact_threshold``
    single-document publishes later, the next publish folds it.  Every
    answer equals an engine built from the same sources, on both sides
    of the fold, and each matched (seq, oid) reaches its consumer once."""
    from repro.engine import create_engine
    from repro.xpush.options import XPushOptions

    threshold = 4
    sources = {**FILTER_POOL, "q8": "/r"}
    config = EngineConfig(
        compact_threshold=threshold,
        options=XPushOptions(top_down=True, early=early, precompute_values=False),
    )
    direct = create_engine(config, sources)
    handle = serve(config, early=early)
    singles = [text for text in DOC_POOL if len(direct.filter_stream(text)) == 1]
    texts = [singles[i % len(singles)] for i in range(threshold + 1)] + DOC_POOL
    host, port = handle.address
    try:
        with ServingClient(host, port) as client:
            client.create_consumer("all", policy="block", high_watermark=512)
            for oid, xpath in sources.items():
                client.subscribe(oid, xpath, consumer="all")
            assert client.stats()["engine"]["delta_filters"] == 1
            matched = set()
            for i, text in enumerate(texts):
                ack = client.publish_detail(text)
                answers = [frozenset(oids) for oids in ack["results"]]
                assert answers == direct.filter_stream(text), (i, text)
                matched.update(
                    (ack["seq"] + index, oid) for index, oids in enumerate(answers) for oid in oids
                )
                delta = client.stats()["engine"]["delta_filters"]
                assert delta == (1 if i < threshold else 0), i
            events = client.drain("all", timeout=1.0)
            delivered = [(event["seq"], oid) for event in events for oid in event["oids"]]
            assert sorted(delivered) == sorted(matched)
            assert any(event.get("early") for event in events) == early
    finally:
        direct.close()


def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def test_control_replies_count_the_filters_of_their_own_epoch():
    """Two connections subscribe concurrently, and the first reply is
    composed on the event loop only after the second subscribe has been
    applied on the engine thread.  Each reply's ``filters`` is still the
    live count at that reply's ``epoch``."""
    from repro.serving import FilterServer, ServerThread
    from repro.xpush.layered import LayeredFilterEngine

    second_applied = threading.Event()

    class Interleaving(LayeredFilterEngine):
        """Holds the first subscribe's job until the second is queued
        behind it, then stalls the event loop until the second has been
        applied."""

        def subscribe(self, oid, xpath):
            super().subscribe(oid, xpath)
            if oid == "second":
                second_applied.set()
                return
            _until(lambda: server._inflight == 2)
            stalled = threading.Event()

            def stall():
                stalled.set()
                second_applied.wait(10)

            server._loop.call_soon_threadsafe(stall)
            assert stalled.wait(10)

    engine = Interleaving([])
    server = FilterServer(engine)
    handle = ServerThread(server).start()
    host, port = handle.address
    replies = {}

    def subscribe(oid):
        with ServingClient(host, port) as client:
            replies[oid] = client.request({"op": "subscribe", "oid": oid, "xpath": "//a"})

    try:
        first = threading.Thread(target=subscribe, args=("first",))
        first.start()
        _until(lambda: server._inflight == 1)
        second = threading.Thread(target=subscribe, args=("second",))
        second.start()
        for thread in (first, second):
            thread.join(30)
            assert not thread.is_alive()
    finally:
        handle.stop()
        engine.close()
    assert (replies["first"]["epoch"], replies["first"]["filters"]) == (1, 1)
    assert (replies["second"]["epoch"], replies["second"]["filters"]) == (2, 2)

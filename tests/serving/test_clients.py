"""Clients, push-mode delivery, graceful shutdown, server construction."""

from __future__ import annotations

import threading

import pytest

from repro.engine import EngineConfig, create_engine
from repro.errors import ServingError
from repro.serving import FilterServer, ServerThread, ServingClient

from tests.scanner_oracle import scanning
from tests.serving.test_faults import RawConnection


def test_borrowed_engine_survives_server_stop():
    engine = create_engine(EngineConfig(engine="layered"), {"q0": "//a"})
    try:
        with ServerThread(FilterServer(engine)) as handle:
            with ServingClient(*handle.address) as client:
                assert client.publish("<a/>") == [frozenset({"q0"})]
        # the server stopped; the borrowed engine still answers
        assert engine.filter_stream("<a/>") == [frozenset({"q0"})]
    finally:
        engine.close()


def test_push_mode_attach_over_raw_frames(serve):
    """Push delivery as the e2e harness's tap drives it: an ``attach``
    frame on a raw connection, after whose reply the connection carries
    delivery frames only — the event queued before the attach first,
    then every match in publish order."""
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as control, RawConnection(handle.address) as receiver:
        control.create_consumer("pushy", policy="block", high_watermark=64)
        control.subscribe("p0", "//a[b = 1]", consumer="pushy")
        assert control.publish("<a><b>1</b></a>") == [frozenset({"p0"})]
        assert receiver.request({"op": "attach", "consumer": "pushy"})["consumer"] == "pushy"
        control.publish("<a><b>1</b></a><a><c/></a>")
        control.publish("<a><b>1</b></a>")
        events = [receiver.reply() for _ in range(3)]
        assert "pushy" in control.stats()["attached"]
    assert [e["oids"] for e in events] == [["p0"], ["p0"], ["p0"]]
    assert [e["seq"] for e in events] == [0, 1, 3]  # doc 2 did not match


def test_payload_delivery_carries_the_document(serve):
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as client:
        client.create_consumer("content", payload=True)
        client.subscribe("c0", "//a[b = 1]", consumer="content")
        client.publish("<a><b>1</b></a><a><c/></a><a><b>1</b></a>")
        events = client.drain("content", timeout=1.0)
        assert len(events) == 2
        for event in events:
            assert "<b>" in event["xml"] and event["oids"] == ["c0"]
        assert events[0]["seq"] == 0 and events[1]["seq"] == 2


@pytest.mark.parametrize("backend", ["expat", "python"])
def test_payload_is_the_publishers_own_bytes(serve, backend):
    """No second parse and no re-serialisation: each payload is the
    slice of the publish that held the document, references, CDATA,
    quoting and multi-byte text exactly as they were sent — also when
    the engine parses with the oracle scanner (``"python"``)."""
    first = "<a k='é'><b>&#49;</b></a>"
    second = "<a><b><![CDATA[1]]></b><c>x&amp;y</c></a>"
    handle = serve(EngineConfig(engine="layered"))
    with scanning(backend), ServingClient(*handle.address) as client:
        client.create_consumer("content", payload=True)
        client.subscribe("c0", "//a[b = 1]", consumer="content")
        client.publish(first + "<a><c/></a>" + second)
        events = client.drain("content", timeout=1.0)
        assert [event["seq"] for event in events] == [0, 2]
        assert [event["xml"].strip() for event in events] == [first, second]


def test_graceful_shutdown_closes_consumers_and_rejects_publishes():
    engine = create_engine(EngineConfig(engine="layered"), {"q0": "//a"})
    server = FilterServer(engine)
    handle = ServerThread(server).start()
    host, port = handle.address
    client = ServingClient(host, port)
    client.create_consumer("bystander")
    client.subscribe("b0", "//a", consumer="bystander")
    client.publish("<a/>")

    # a poller parked in a long poll when the shutdown lands
    outcome: list[dict] = []

    def parked_poll() -> None:
        with ServingClient(host, port) as poller:
            poller.drain("bystander", timeout=0.1)  # take the pending event
            outcome.append(poller.poll("bystander", timeout=20.0))

    thread = threading.Thread(target=parked_poll)
    thread.start()
    try:
        import time

        time.sleep(0.3)
        handle.run_coroutine(server.stop(drain=True))
        thread.join(10)
        assert not thread.is_alive()
        # the parked poll observed the closure instead of hanging
        assert outcome and outcome[0]["closed"]
        assert outcome[0]["reason"] == "shutdown"
    finally:
        handle.stop()
        client.close()
        engine.close()


def test_draining_server_rejects_new_publishes(serve):
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    with ServingClient(*handle.address) as client:
        assert client.publish("<a/>") == [frozenset({"q0"})]
        handle.server._draining = True  # what stop() flips first
        with pytest.raises(ServingError, match="draining"):
            client.publish("<a/>")
        reply = client.ping()
        assert reply["draining"] is True


def test_unknown_verbs_and_bad_fields_answer_errors_in_band(serve):
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as client:
        reply = client.request({"op": "warp"}, check=False)
        assert reply["ok"] is False and "unknown op" in reply["error"]
        reply = client.request({"op": "publish"}, check=False)
        assert reply["ok"] is False and "xml" in reply["error"]
        reply = client.request({"op": "poll", "consumer": "ghost"}, check=False)
        assert reply["ok"] is False and reply["kind"] == "ServingError"
        reply = client.request({"no": "op"}, check=False)
        assert reply["ok"] is False
        # request ids are echoed for callers that pipeline
        reply = client.request({"op": "ping", "id": 41}, check=False)
        assert reply["id"] == 41
        # after all that abuse, the connection still serves
        assert client.ping()["ok"]


def test_epochs_are_monotonic_across_verbs(serve):
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as client:
        epochs = [
            client.subscribe("a0", "//a"),
            client.subscribe("a1", "//b"),
            client.unsubscribe("a0"),
            client.compact(),
        ]
        assert epochs == [1, 2, 3, 4]
        assert client.publish_detail("<a/>")["epoch"] == 4

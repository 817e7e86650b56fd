"""Event-time early delivery through the live server.

With ``early=True`` a routed ``payload=False`` consumer receives its
first ``match`` frame the moment the deciding event is processed —
*before* the publish ack — and the server's ``first_match_latency``
tracker records the receipt-to-first-delivery gap.  With the default
``early=False`` nothing changes: delivery stays the grouped
per-document fan-out after filtering (the end-to-end wall pins that
down), so these tests only exercise the opt-in path.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import EngineConfig
from repro.serving import ServingClient
from repro.xpush.options import XPushOptions

#: A document that decides ``q0`` within its first handful of events
#: and then streams tens of thousands more: the gap between the
#: deciding event and the ack is what early delivery closes.
TRAILER_ELEMENTS = 30_000
BIG_DOC = "<r><a><b>1</b></a>" + "<x/>" * TRAILER_ELEMENTS + "</r>"

EARLY_CONFIG = EngineConfig(
    engine="xpush",
    options=XPushOptions(top_down=True, early=True),
)


def _early_server(serve):
    handle = serve(EARLY_CONFIG, None, early=True)
    return handle.address


def test_first_match_frame_beats_the_publish_ack(serve):
    host, port = _early_server(serve)
    acked = threading.Event()
    ack_holder: list = []

    with ServingClient(host, port) as control:
        control.create_consumer("watcher", policy="block", high_watermark=64)
        control.subscribe("q0", "//a[b = 1]", consumer="watcher")

        def _publish() -> None:
            with ServingClient(host, port) as publisher:
                ack_holder.append(publisher.publish_detail(BIG_DOC))
            acked.set()

        thread = threading.Thread(target=_publish)
        thread.start()
        try:
            reply = control.poll("watcher", timeout=30.0)
            frames = reply["events"]
            assert frames, "no early frame arrived"
            # The deciding event sits thousands of events before the
            # document ends: the frame must precede the ack.
            assert not acked.is_set(), "match frame arrived after the ack"
        finally:
            thread.join(timeout=60.0)
        assert acked.is_set()

        frame = frames[0]
        assert frame["early"] is True
        assert frame["oid"] == "q0"
        assert frame["oids"] == ["q0"]
        assert frame["seq"] == ack_holder[0]["seq"]
        assert isinstance(frame["event_index"], int) and frame["event_index"] >= 1
        assert frame["event_index"] < 2 * TRAILER_ELEMENTS, (
            "q0 decides near the top of the document"
        )
        assert ack_holder[0]["results"] == [["q0"]]

        # No duplicate delivery from the final fan-out.
        assert control.drain("watcher") == []

        stats = control.stats()
        assert stats["early_deliveries"] == 1
        latency = stats["first_match_latency"]
        assert latency["count"] == 1
        for key in ("p50_ms", "p90_ms", "p99_ms"):
            assert latency[key] >= 0.0


def test_early_frames_carry_per_document_seqs(serve):
    host, port = _early_server(serve)
    with ServingClient(host, port) as client:
        client.create_consumer("c", policy="block", high_watermark=64)
        client.subscribe("q0", "//a[b = 1]", consumer="c")
        ack = client.publish_detail("<a><b>1</b></a><x/><a><b>1</b></a>")
        assert ack["results"] == [["q0"], [], ["q0"]]
        frames = client.drain("c")
        assert [f.get("early") for f in frames] == [True, True]
        assert [f["seq"] for f in frames] == [ack["seq"], ack["seq"] + 2]
        stats = client.stats()
        assert stats["early_deliveries"] == 2
        assert stats["first_match_latency"]["count"] == 1  # one publish


def test_unrouted_and_payload_consumers_fall_back_to_fan_out(serve):
    """Early frames only go to routed payload=False consumers; a
    payload consumer still gets the grouped post-filter event with the
    document attached."""
    host, port = _early_server(serve)
    with ServingClient(host, port) as client:
        client.create_consumer("p", policy="block", high_watermark=64, payload=True)
        client.subscribe("q0", "//a[b = 1]", consumer="p")
        ack = client.publish_detail("<a><b>1</b></a>")
        assert ack["results"] == [["q0"]]
        frames = client.drain("p")
        assert len(frames) == 1
        assert frames[0].get("early") is None
        assert frames[0]["oids"] == ["q0"]
        assert "xml" in frames[0]
        assert client.stats()["early_deliveries"] == 0


def test_early_off_by_default(serve):
    handle = serve(EARLY_CONFIG, None)  # server-side early delivery off
    with ServingClient(*handle.address) as client:
        client.create_consumer("c", policy="block", high_watermark=64)
        client.subscribe("q0", "//a[b = 1]", consumer="c")
        client.publish_detail("<a><b>1</b></a>")
        frames = client.drain("c")
        assert len(frames) == 1
        assert frames[0].get("early") is None
        stats = client.stats()
        assert stats["early_deliveries"] == 0
        assert stats["first_match_latency"]["count"] == 0

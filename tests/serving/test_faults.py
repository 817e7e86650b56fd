"""Fault injection against the live server.

The three scenarios of the acceptance bar, each run over a real
loopback socket and each required to be *contained*: the failure hurts
at most the faulty party, never the server or the other clients.

1. **Slow consumer** — a subscriber that stops reading.  Its queue hits
   the high watermark and its policy (drop-oldest / evict / block)
   fires; every other consumer receives its full delivery stream.
2. **Publisher disconnect mid-frame** — the partial document is
   discarded with the connection, nothing reaches the engine, the
   server keeps serving.
3. **Update-while-serving** — concurrent subscribe/unsubscribe during
   active publishing; every publish ack's answers must equal the
   brute-force rebuild of the workload at the ack's epoch (the
   ``test_update_plane.py`` schedule pattern, pushed over the wire).
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.engine import EngineConfig, create_engine
from repro.serving import MAX_FRAME, FrameDecoder, ServingClient, encode_frame

from tests.engine.test_protocol import TOO_DEEP
from tests.serving.conftest import DOC_POOL, FILTER_POOL

MATCH_ALL_DOC = "<a><b>1</b></a>"  # matches q0, q1, q5, q6


class RawConnection:
    """One framed connection that can also write bytes no client verb
    would send; replies are read back with the public decoder."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.decoder = FrameDecoder(MAX_FRAME)
        self.frames = []

    def reply(self):
        while not self.frames:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.frames.extend(self.decoder.feed(chunk))
        return self.frames.pop(0)

    def request(self, frame):
        self.sock.sendall(encode_frame(frame))
        return self.reply()

    def publish(self, xml):
        return [frozenset(m) for m in self.request({"op": "publish", "xml": xml})["results"]]

    def stats(self):
        return self.request({"op": "stats"})["stats"]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


# ----------------------------------------------------------------------
# 1. slow consumers
# ----------------------------------------------------------------------


def test_slow_consumer_drop_oldest_spares_other_consumers(serve):
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as client:
        client.create_consumer("snail", policy="drop_oldest", high_watermark=4)
        client.create_consumer("hare", policy="block", high_watermark=512)
        client.subscribe("s0", "//a[b = 1]", consumer="snail")
        client.subscribe("h0", "//a", consumer="hare")

        for _ in range(20):
            assert client.publish(MATCH_ALL_DOC) == [frozenset({"s0", "h0"})]

        # the snail never polled: its queue is capped, overflow dropped
        stats = client.stats()
        snail = stats["consumers"]["snail"]
        assert snail["depth"] <= 4
        assert snail["dropped"] >= 16
        assert not snail["evicted"]
        # the hare is unaffected: all 20 deliveries, none dropped
        hare_events = client.drain("hare")
        assert len(hare_events) == 20
        assert stats["consumers"]["hare"]["dropped"] == 0
        # the snail's survivors are the *newest* events, contiguous
        snail_events = client.drain("snail")
        assert len(snail_events) <= 4
        seqs = [event["seq"] for event in snail_events]
        assert seqs == sorted(seqs) and seqs[-1] == 19


def test_slow_consumer_eviction_fires_and_spares_other_consumers(serve):
    handle = serve(EngineConfig(engine="layered"))
    with ServingClient(*handle.address) as client:
        client.create_consumer("doomed", policy="evict", high_watermark=3)
        client.create_consumer("steady", policy="block", high_watermark=512)
        client.subscribe("d0", "//a[b = 1]", consumer="doomed")
        client.subscribe("k0", "//a", consumer="steady")

        for _ in range(10):
            client.publish(MATCH_ALL_DOC)

        stats = client.stats()
        doomed = stats["consumers"]["doomed"]
        assert doomed["evicted"] and doomed["closed"]
        assert doomed["close_reason"] == "slow_consumer"
        assert stats["evictions"] == 1
        # pending events are still handed out, then the closure reported
        reply = client.poll("doomed", timeout=0.2)
        drained = list(reply["events"])
        while not reply.get("closed"):
            reply = client.poll("doomed", timeout=0.2)
            drained.extend(reply["events"])
        assert reply["closed"] and reply["reason"] == "slow_consumer"
        assert len(drained) == 3  # watermark's worth, nothing more
        # the steady consumer saw every single document
        assert len(client.drain("steady")) == 10
        # ... and the server keeps accepting publishes afterwards
        assert client.publish("<a><c/></a>") == [frozenset({"k0"})]


def test_block_policy_backpressures_the_publisher_not_the_peers(serve):
    handle = serve(EngineConfig(engine="layered"))
    host, port = handle.address
    with ServingClient(host, port) as control:
        control.create_consumer("tight", policy="block", high_watermark=2)
        control.create_consumer("wide", policy="block", high_watermark=512)
        control.subscribe("t0", "//a[b = 1]", consumer="tight")
        control.subscribe("w0", "//a", consumer="wide")

        done = threading.Event()

        def publish_five():
            with ServingClient(host, port, timeout=60.0) as publisher:
                for _ in range(5):
                    publisher.publish(MATCH_ALL_DOC)
            done.set()

        thread = threading.Thread(target=publish_five)
        thread.start()
        # the publisher wedges once 'tight' is full (watermark 2)
        assert not done.wait(0.5)
        # the wide consumer received everything published so far (>= 2)
        flowed = len(control.drain("wide"))
        assert flowed >= 2
        # draining the tight queue unblocks the publisher
        drained = len(control.drain("tight", timeout=1.0))
        while not done.wait(0.1):
            drained += len(control.drain("tight", timeout=1.0))
        thread.join(10)
        drained += len(control.drain("tight"))
        assert drained == 5
        assert flowed + len(control.drain("wide", timeout=1.0)) == 5
        stats = control.stats()
        assert stats["consumers"]["tight"]["dropped"] == 0
        assert stats["delivery_drops"] == 0


# ----------------------------------------------------------------------
# 2. publisher disconnect mid-frame
# ----------------------------------------------------------------------


def test_publisher_disconnect_mid_frame_discards_partial_document(serve):
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    host, port = handle.address

    frame = encode_frame({"op": "publish", "xml": "<a/>" * 100})
    with socket.create_connection((host, port)) as sock:
        sock.sendall(frame[: len(frame) // 2])  # half a frame, then vanish
    time.sleep(0.2)

    with ServingClient(host, port) as client:
        stats = client.stats()
        assert stats["partial_frames"] == 1
        assert stats["published_docs"] == 0  # nothing reached the engine
        assert stats["publishes"] == 0
        # the fault was connection-scoped: the server still serves
        assert client.publish("<a/>") == [frozenset({"q0"})]


def test_publisher_disconnect_between_frames_is_clean(serve):
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    host, port = handle.address
    with socket.create_connection((host, port)) as sock:
        sock.sendall(encode_frame({"op": "publish", "xml": "<a/>"}))
        # read the ack, then drop the connection without a goodbye
        sock.recv(65536)
    time.sleep(0.2)
    with ServingClient(host, port) as client:
        stats = client.stats()
        assert stats["partial_frames"] == 0
        assert stats["published_docs"] == 1


def test_malformed_frame_keeps_the_connection(serve):
    """A well-delimited frame with a broken body answers with an error
    frame on the same connection; the next verb works."""
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    with RawConnection(handle.address) as client:
        bad_body = b"this is not json {"
        client.sock.sendall(struct.pack("!I", len(bad_body)) + bad_body)
        error_reply = client.reply()
        assert error_reply["ok"] is False
        assert error_reply["kind"] == "ProtocolError"
        assert error_reply["fatal"] is False
        # same connection, next frame: business as usual
        assert client.publish("<a/>") == [frozenset({"q0"})]
        assert client.stats()["protocol_errors"] == 1


#: JSON bodies whose strings hold an unpaired surrogate escape.  Had
#: the subscribe been accepted, every ack naming its oid would fail to
#: encode and cut the publisher's connection off; the publish would
#: fail to encode its own document.
LONE_SURROGATE_FRAMES = {
    "subscribe-oid": b'{"op":"subscribe","oid":"bad\\ud800","xpath":"//a"}',
    "publish-xml": b'{"op":"publish","xml":"<a>x\\udfff</a>"}',
}


@pytest.mark.parametrize(
    "body", LONE_SURROGATE_FRAMES.values(), ids=list(LONE_SURROGATE_FRAMES)
)
def test_a_lone_surrogate_escape_is_refused_in_band(serve, body):
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    with RawConnection(handle.address) as client, ServingClient(
        *handle.address
    ) as other:
        client.sock.sendall(struct.pack("!I", len(body)) + body)
        reply = client.reply()
        assert reply["ok"] is False and reply["fatal"] is False
        assert reply["kind"] == "ProtocolError" and "surrogate" in reply["error"]
        # The same connection publishes on, and so does everybody else.
        assert client.publish("<a/>") == [frozenset({"q0"})]
        assert other.publish("<a/>") == [frozenset({"q0"})]
        stats = other.stats()
        assert (stats["protocol_errors"], stats["publish_errors"]) == (1, 0)
        assert stats["engine"]["filters"] == 1


@pytest.mark.parametrize(
    "shape, kind", [("steps", "WorkloadError"), ("predicates", "XPathSyntaxError")]
)
def test_a_filter_too_deep_to_compile_gets_an_error_reply(serve, shape, kind):
    """``dispatch`` answers only :class:`ReproError`: the interpreter's
    own ``RecursionError`` would kill the subscriber's connection
    handler.  The refusal is a typed reply on a connection that lives."""
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    with RawConnection(handle.address) as client:
        reply = client.request({"op": "subscribe", "oid": "deep", "xpath": TOO_DEEP[shape]})
        assert reply["ok"] is False
        assert reply["kind"] == kind
        assert "too deep" in reply["error"]
        assert client.publish("<a/>") == [frozenset({"q0"})]
        assert client.stats()["engine"]["filters"] == 1


def test_oversized_frame_closes_only_that_connection(serve):
    handle = serve(EngineConfig(engine="layered"), {"q0": "//a"})
    host, port = handle.address
    with RawConnection((host, port)) as victim:
        victim.sock.sendall(struct.pack("!I", 0xFFFFFFFF))  # 4-GiB declared length
        reply = victim.reply()
        assert reply["ok"] is False and reply["fatal"] is True
        with pytest.raises(Exception):
            victim.publish("<a/>")  # the connection died with the frame
    with ServingClient(host, port) as client:  # the server did not
        assert client.publish("<a/>") == [frozenset({"q0"})]


# ----------------------------------------------------------------------
# 3. update-while-serving: epoch-differential against the rebuild
# ----------------------------------------------------------------------

#: Control schedules in the `test_update_plane.py` style; applied over
#: the wire while publisher threads are mid-flight.
SCHEDULES = [
    [
        ("sub", "u0", "//a[b = 1]"),
        ("sub", "u1", "//b[text() = 2]"),
        ("unsub", "u0"),
        ("sub", "u2", "//*[@k = 'x']"),
        ("compact",),
        ("unsub", "q1"),
        ("sub", "u0", "/a[not(b = 1)]"),  # re-subscribe, different filter
    ],
    [
        ("unsub", "q0"),
        ("unsub", "q1"),
        ("unsub", "q2"),
        ("sub", "n0", "//a[b = 1 or b = 2]"),
        ("compact",),
        ("sub", "n1", "/a/b"),
    ],
]

SEED = {"q0": "//a[b = 1]", "q1": "/a/b", "q2": "//*[@k = 'x']"}


def _epoch_truth(live: dict[str, str], text: str) -> list[frozenset[str]]:
    rebuilt = create_engine(EngineConfig(engine="xpush"), dict(live))
    return rebuilt.filter_stream(text)


@pytest.mark.parametrize(
    "engine",
    [
        EngineConfig(engine="layered", compact_threshold=100),
        EngineConfig(engine="sharded", shards=2, parallel=False),
    ],
    ids=["layered", "sharded-serial"],
)
@pytest.mark.parametrize("schedule", [0, 1], ids=["churn", "drain"])
def test_updates_during_publishing_match_rebuild_at_every_epoch(
    serve, engine, schedule
):
    handle = serve(engine, dict(SEED))
    host, port = handle.address
    stop = threading.Event()
    acks: list[tuple[str, dict]] = []
    errors: list[Exception] = []

    def publish_loop(offset: int) -> None:
        try:
            with ServingClient(host, port) as publisher:
                i = 0
                while not stop.is_set():
                    text = DOC_POOL[(offset + i) % len(DOC_POOL)]
                    acks.append((text, publisher.publish_detail(text)))
                    i += 1
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=publish_loop, args=(p,)) for p in range(3)
    ]
    for thread in threads:
        thread.start()

    # Apply the control schedule over the wire while documents flow,
    # recording the exact workload at every epoch the server mints.
    live = dict(SEED)
    epoch_to_live = {0: dict(live)}
    with ServingClient(host, port) as control:
        for op in SCHEDULES[schedule]:
            time.sleep(0.05)  # let publishes interleave between updates
            if op[0] == "sub":
                live[op[1]] = op[2]
                epoch = control.subscribe(op[1], op[2])
            elif op[0] == "unsub":
                del live[op[1]]
                epoch = control.unsubscribe(op[1])
            else:
                epoch = control.compact()
            epoch_to_live[epoch] = dict(live)
        time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join(30)
        assert not errors, errors
        assert len(acks) > len(SCHEDULES[schedule])  # publishing really overlapped

        # Every ack is attributable: its answers equal the brute-force
        # rebuild of the workload version its epoch names.  Epochs with
        # no surviving map entry cannot exist: every epoch was minted by
        # exactly one control ack above.
        truth_cache: dict[tuple[int, str], list[frozenset[str]]] = {}
        observed_epochs = set()
        for text, ack in acks:
            epoch = ack["epoch"]
            observed_epochs.add(epoch)
            assert epoch in epoch_to_live, epoch
            key = (epoch, text)
            if key not in truth_cache:
                truth_cache[key] = _epoch_truth(epoch_to_live[epoch], text)
            assert [frozenset(m) for m in ack["results"]] == truth_cache[key], (
                epoch,
                text,
            )
        # the schedule really was concurrent: acks span several epochs
        assert len(observed_epochs) >= 2

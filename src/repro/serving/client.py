"""The serving tier's client.

:class:`ServingClient` speaks the framed TCP protocol
(:mod:`repro.serving.protocol`) and exposes the verbs the server
dispatches; replies arrive strictly in request order on a connection,
so no correlation ids are needed.  It is the blocking client used by
the benchmarks and (from worker threads) the test wall.  Push-mode
``attach`` is a raw-frame verb: after its reply the connection carries
only delivery frames (see ``docs/serving.md``).
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from repro.errors import ServingError
from repro.serving.protocol import (
    MAX_FRAME,
    Frame,
    FrameDecoder,
    encode_frame,
)

_READ_CHUNK = 65536


def _check(reply: Frame) -> Frame:
    if not reply.get("ok", False):
        raise ServingError(
            f"server error ({reply.get('kind', 'ServingError')}): "
            f"{reply.get('error', 'unknown')}"
        )
    return reply


def _result_sets(reply: Frame) -> list[frozenset[str]]:
    return [frozenset(matched) for matched in reply.get("results", [])]


class ServingClient:
    """Blocking client over one framed TCP connection (thread-safe:
    requests are serialized by an internal lock)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder(MAX_FRAME)
        self._pending: list[Frame] = []
        self._lock = threading.Lock()

    # -- plumbing ------------------------------------------------------

    def _read_frame(self, timeout: float | None = None) -> Frame:
        self._sock.settimeout(timeout if timeout is not None else self.timeout)
        while not self._pending:
            try:
                chunk = self._sock.recv(_READ_CHUNK)
            except socket.timeout:
                raise ServingError("timed out waiting for a server reply") from None
            if not chunk:
                raise ServingError("server closed the connection")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    def request(
        self, frame: Frame, *, timeout: float | None = None, check: bool = True
    ) -> Frame:
        """Send one verb frame, wait for its reply."""
        with self._lock:
            self._sock.sendall(encode_frame(frame))
            reply = self._read_frame(timeout)
        return _check(reply) if check else reply

    # -- verbs ---------------------------------------------------------

    def publish(self, xml: str) -> list[frozenset[str]]:
        """Filter *xml* on the server; one oid-set per document."""
        return _result_sets(self.publish_detail(xml))

    def publish_detail(self, xml: str) -> Frame:
        """The full publish ack: ``results``, ``epoch``, ``seq``."""
        return self.request({"op": "publish", "xml": xml})

    def subscribe(
        self,
        oid: str,
        xpath: str,
        consumer: str | None = None,
        **consumer_opts: Any,
    ) -> int:
        """Add a filter (optionally routed to *consumer*); returns the
        new workload epoch."""
        frame: Frame = {"op": "subscribe", "oid": oid, "xpath": xpath}
        if consumer is not None:
            frame["consumer"] = consumer
            frame.update(consumer_opts)
        return int(self.request(frame)["epoch"])

    def unsubscribe(self, oid: str) -> int:
        return int(self.request({"op": "unsubscribe", "oid": oid})["epoch"])

    def compact(self) -> int:
        return int(self.request({"op": "compact"})["epoch"])

    def create_consumer(
        self,
        name: str,
        policy: str | None = None,
        high_watermark: int | None = None,
        payload: bool = False,
    ) -> Frame:
        frame: Frame = {"op": "consume", "consumer": name, "payload": payload}
        if policy is not None:
            frame["policy"] = policy
        if high_watermark is not None:
            frame["high_watermark"] = high_watermark
        return self.request(frame)

    def poll(
        self, consumer: str, max_events: int = 64, timeout: float = 0.0
    ) -> Frame:
        """One long-poll round: ``{"events": [...], "closed": bool}``.
        The request timeout stretches to cover the server-side wait."""
        return self.request(
            {"op": "poll", "consumer": consumer, "max": max_events, "timeout": timeout},
            timeout=self.timeout + timeout,
        )

    def drain(self, consumer: str, timeout: float = 0.0) -> list[Frame]:
        """Every currently pending delivery for *consumer* (repeated
        polls until one comes back empty or closed)."""
        events: list[Frame] = []
        while True:
            reply = self.poll(consumer, timeout=timeout)
            events.extend(reply["events"])
            if reply.get("closed") or not reply["events"]:
                return events
            timeout = 0.0

    def stats(self) -> dict[str, Any]:
        return dict(self.request({"op": "stats"})["stats"])

    def ping(self) -> Frame:
        return self.request({"op": "ping"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

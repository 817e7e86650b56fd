"""Clients for the serving tier: one sync, one asyncio.

Both speak the framed TCP protocol (:mod:`repro.serving.protocol`) and
expose the same verbs the server dispatches; replies arrive strictly in
request order on a connection, so no correlation ids are needed.
:class:`ServingClient` is the blocking client used by the CLI, the
benchmarks and (from worker threads) the test wall;
:class:`AsyncServingClient` adds push-mode ``attach`` delivery for code
already living on an event loop.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any, AsyncIterator

from repro.errors import ProtocolError, ServingError
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


class AsyncServingClient:
    """Asyncio client; same verbs, plus push-mode :meth:`attach`."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._decoder = FrameDecoder(MAX_FRAME)
        self._pending: list[Frame] = []
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServingClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        return client

    async def _read_frame(self) -> Frame:
        assert self._reader is not None
        while not self._pending:
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                raise ServingError("server closed the connection")
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    async def request(self, frame: Frame, *, check: bool = True) -> Frame:
        assert self._writer is not None
        async with self._lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
            reply = await self._read_frame()
        return _check(reply) if check else reply

    async def publish(self, xml: str) -> list[frozenset[str]]:
        return _result_sets(await self.publish_detail(xml))

    async def publish_detail(self, xml: str) -> Frame:
        return await self.request({"op": "publish", "xml": xml})

    async def subscribe(
        self,
        oid: str,
        xpath: str,
        consumer: str | None = None,
        **consumer_opts: Any,
    ) -> int:
        frame: Frame = {"op": "subscribe", "oid": oid, "xpath": xpath}
        if consumer is not None:
            frame["consumer"] = consumer
            frame.update(consumer_opts)
        return int((await self.request(frame))["epoch"])

    async def unsubscribe(self, oid: str) -> int:
        return int((await self.request({"op": "unsubscribe", "oid": oid}))["epoch"])

    async def compact(self) -> int:
        return int((await self.request({"op": "compact"}))["epoch"])

    async def create_consumer(
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
        return await self.request(frame)

    async def poll(
        self, consumer: str, max_events: int = 64, timeout: float = 0.0
    ) -> Frame:
        return await self.request(
            {"op": "poll", "consumer": consumer, "max": max_events, "timeout": timeout}
        )

    async def stats(self) -> dict[str, Any]:
        return dict((await self.request({"op": "stats"}))["stats"])

    async def attach(self, consumer: str, **consumer_opts: Any) -> AsyncIterator[Frame]:
        """Switch this connection to push delivery for *consumer* and
        yield events until the server sends the close frame.  The
        connection carries deliveries only from here on — use a second
        client for verbs."""
        await self.request({"op": "attach", "consumer": consumer, **consumer_opts})
        while True:
            try:
                event = await self._read_frame()
            except (ServingError, ProtocolError):
                return
            if event.get("event") == "closed":
                return
            yield event

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

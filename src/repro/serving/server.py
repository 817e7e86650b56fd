"""`FilterServer` — the asyncio front door over any `FilterEngine`.

The paper's setting is "a large number of clients" subscribing to one
shared stream; everything below this module (layered engine, sharded
service) filters in-process.  `FilterServer` puts a
network boundary around one engine:

- **many concurrent publishers** connect over TCP and send documents as
  length-prefixed JSON frames (:mod:`repro.serving.protocol`) or as
  plain HTTP ``POST /publish`` requests (:mod:`repro.serving.http`) —
  both arrive at the same verb dispatch;
- **engine calls never block the event loop**: every call into the
  engine (filtering *and* control verbs) is dispatched to a dedicated
  single-thread executor.  One thread means engine calls are serialized
  in submission order, which is what makes answers attributable: each
  publish is filtered against exactly one workload epoch;
- **the update control plane stays live**: ``subscribe`` /
  ``unsubscribe`` / ``compact`` are verbs, so workloads change while
  documents flow.  Every control verb bumps the server ``epoch``; every
  publish ack carries the epoch it was filtered at;
- **per-consumer delivery**: matched oids fan out to per-subscriber
  :class:`~repro.serving.consumers.Consumer` queues with a configurable
  high watermark and slow-consumer policy, drained by long-poll
  (``poll`` verb, any transport) or by push over an attached TCP
  connection;
- **graceful shutdown** (:meth:`FilterServer.stop`): stop accepting,
  drain in-flight publishes, hand pending deliveries to pollers, send
  close frames to attached consumers, then release the engine.

The server is transport-sniffing: frames and HTTP share one port (a
frame's first prefix byte can never be an ASCII letter below the 64-MiB
cap, an HTTP method always starts with one).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Coroutine, TypeVar

from repro.engine.config import EngineConfig
from repro.engine.factory import WorkloadSpec, create_engine
from repro.engine.protocol import FilterEngine
from repro.errors import ProtocolError, ReproError, ServingError, WorkloadError
from repro.service.latency import LatencyTracker
from repro.serving.consumers import Consumer, ConsumerClosed
from repro.serving.protocol import MAX_FRAME, Frame, FrameDecoder, encode_frame
from repro.xmlstream.split import split_documents

T = TypeVar("T")

_READ_CHUNK = 65536
#: Cap on one long-poll wait, seconds (clients re-poll).
MAX_POLL_WAIT = 60.0


class _Connection:
    """Per-connection bookkeeping shared by the frame and HTTP paths."""

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.writer = writer
        self.published = 0
        self.attached: str | None = None  # consumer name in push mode


class FilterServer:
    """Serve one :class:`FilterEngine` to the network.

    Exactly one workload source: pass a live *engine* (borrowed — the
    caller keeps ownership) or a *config* plus optional *filters* (the
    server builds the engine through :func:`create_engine` and closes
    it on :meth:`stop`).
    """

    def __init__(
        self,
        engine: FilterEngine | None = None,
        *,
        config: EngineConfig | None = None,
        filters: WorkloadSpec = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_policy: str = "block",
        high_watermark: int = 256,
        max_frame: int = MAX_FRAME,
        early: bool = False,
    ):
        if engine is not None and (config is not None or filters is not None):
            raise WorkloadError("pass either a live engine or config/filters, not both")
        self._owns_engine = engine is None
        if engine is None:
            engine = create_engine(config or EngineConfig(), filters)
        self.engine: FilterEngine = engine
        self.host = host
        self.port = port
        self.default_policy = default_policy
        self.high_watermark = high_watermark
        self.max_frame = max_frame
        #: Event-time earliest answering: when on, each publish wires
        #: the engine's ``on_match`` hook and routed ``payload=False``
        #: consumers receive per-match frames the moment the deciding
        #: event is processed — before the publish ack.  Off by default:
        #: delivery then stays the historical grouped per-document
        #: fan-out after filtering completes.
        self.early = early

        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._stopped = False
        self._epoch = 0
        self._seq = 0
        self._conn_counter = 0
        self._connections: dict[int, _Connection] = {}
        self._consumers: dict[str, Consumer] = {}
        self._attachments: dict[str, tuple[asyncio.Task[None], asyncio.StreamWriter]] = {}
        self._routes: dict[str, str] = {}  # oid -> consumer name
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._latency = LatencyTracker()
        #: Publish receipt → first delivered match frame (early mode).
        self._first_latency = LatencyTracker()
        self._counters: dict[str, int] = {
            "published_docs": 0,
            "publishes": 0,
            "publish_errors": 0,
            "protocol_errors": 0,
            "partial_frames": 0,
            "http_requests": 0,
            "deliveries": 0,
            "early_deliveries": 0,
            "delivery_drops": 0,
            "evictions": 0,
            "connections_total": 0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port."""
        if self._server is not None:
            raise ServingError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving-engine"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight publishes,
        close consumers (pollers observe the closure, attached
        connections get a close frame), release the engine."""
        if self._stopped:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        self._stopped = True
        for name in list(self._attachments):
            self._close_attachment(name, "shutdown")
        for consumer in self._consumers.values():
            consumer.close("shutdown")
        # Let woken long-polls write their closed replies before the
        # transports go away (their handlers run when we yield here).
        await asyncio.sleep(0.1)
        for conn in list(self._connections.values()):
            conn.writer.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_engine:
            self.engine.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI ``serve`` verb's main loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            raise

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- engine dispatch -----------------------------------------------

    async def _run_engine(self, fn: Callable[[], T]) -> T:
        """Run *fn* on the single engine thread.  FIFO submission order
        is the serving tier's consistency model: a publish submitted
        after a control verb is filtered by the updated workload."""
        assert self._loop is not None and self._executor is not None
        self._inflight += 1
        self._idle.clear()
        try:
            return await self._loop.run_in_executor(self._executor, fn)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _publish_job(
        self, xml: str, want_payload: bool, start: float
    ) -> tuple[
        int, int, list[frozenset[str]], list[str], list[Any], dict[int, set[str]]
    ]:
        """Executor-side publish: filter under one epoch, assign seqs.

        Runs on the engine thread; ``self._epoch``/``self._seq`` are
        only touched there, so the (epoch, answers) pairing is exact.
        In early mode the engine's ``on_match`` hook is wired for the
        duration of the call: each decided match schedules an
        event-time delivery coroutine on the event loop *while the
        document is still being filtered*.  The returned futures are
        awaited by ``_op_publish`` before the final fan-out, and
        ``delivered`` records what the early path handed out so the
        final fan-out does not duplicate it.
        """
        epoch = self._epoch
        # Read before filtering: early frames carry their document's
        # final seq, assigned below in the same engine-thread job.
        base_seq = self._seq
        early_futures: list[Any] = []
        delivered: dict[int, set[str]] = {}
        if self.early:
            loop = self._loop
            assert loop is not None
            pending_first = [True]

            def _on_match(oid: str, doc_index: int, event_index: int) -> None:
                early_futures.append(
                    asyncio.run_coroutine_threadsafe(
                        self._deliver_early(
                            oid,
                            base_seq + doc_index,
                            epoch,
                            event_index,
                            doc_index,
                            delivered,
                            pending_first,
                            start,
                        ),
                        loop,
                    )
                )

            self.engine.on_match = _on_match
        try:
            results = self.engine.filter_stream(xml)
        finally:
            if self.early:
                self.engine.on_match = None
        self._seq += len(results)
        payloads: list[str] = []
        if want_payload and results:
            # A payload is the publisher's own bytes for that document.
            payloads = [text.decode("utf-8") for text in split_documents(xml)]
        return epoch, base_seq, results, payloads, early_futures, delivered

    async def _deliver_early(
        self,
        oid: str,
        seq: int,
        epoch: int,
        event_index: int,
        doc_index: int,
        delivered: dict[int, set[str]],
        pending_first: list[bool],
        start: float,
    ) -> None:
        """Deliver one event-time match to its routed consumer.

        Runs on the event loop (scheduled from the engine thread), so
        route/consumer lookups and the ``delivered`` bookkeeping are
        loop-serialized.  Only ``payload=False`` consumers are eligible
        — the document payload does not exist until filtering finishes —
        and an offered frame wakes any parked long-poll immediately,
        before the publish ack."""
        name = self._routes.get(oid)
        if name is None:
            return
        consumer = self._consumers.get(name)
        if consumer is None or consumer.payload:
            return
        delivered.setdefault(doc_index, set()).add(oid)
        event: Frame = {
            "event": "match",
            "seq": seq,
            "epoch": epoch,
            "oid": oid,
            "oids": [oid],
            "event_index": event_index,
            "early": True,
        }
        if await self._offer(name, consumer, event):
            if pending_first[0]:
                pending_first[0] = False
                self._first_latency.record(time.perf_counter() - start)
            self._counters["early_deliveries"] += 1

    async def _offer(self, name: str, consumer: Consumer, event: Frame) -> bool:
        """Offer one match frame under the consumer's own policy and
        count the outcome; a consumer the offer evicts loses its push
        attachment.  True when the frame was queued."""
        was_open = not consumer.closed
        if await consumer.offer(event):
            self._counters["deliveries"] += 1
            return True
        self._counters["delivery_drops"] += 1
        if was_open and consumer.evicted:
            self._counters["evictions"] += 1
            self._close_attachment(name, "slow_consumer")
        return False

    def _control_job(self, fn: Callable[[], None]) -> tuple[int, int]:
        """Executor-side control verb: apply, then bump the epoch.
        Returns the new epoch and the filter count read at it, in the
        same engine-thread job: read later on the event loop, the count
        could belong to another verb's epoch."""
        fn()
        self._epoch += 1
        return self._epoch, self.engine.filter_count

    # -- verb dispatch (shared by frames and HTTP) ---------------------

    async def dispatch(self, frame: Frame, conn: _Connection | None = None) -> Frame:
        """Execute one verb; always returns a reply payload."""
        op = frame.get("op")
        reply_id = frame.get("id")
        try:
            handler = self._VERBS.get(op if isinstance(op, str) else "")
            if handler is None:
                raise ServingError(f"unknown op {op!r}")
            reply = await handler(self, frame, conn)
        except ReproError as error:
            reply = {"ok": False, "error": str(error), "kind": type(error).__name__}
        if reply_id is not None:
            reply.setdefault("id", reply_id)
        return reply

    @staticmethod
    def _field(frame: Frame, key: str) -> str:
        value = frame.get(key)
        if not isinstance(value, str) or not value:
            raise ServingError(f"op {frame.get('op')!r} needs a string {key!r} field")
        return value

    async def _op_publish(self, frame: Frame, conn: _Connection | None) -> Frame:
        if self._draining:
            raise ServingError("server is draining; publish rejected")
        xml = self._field(frame, "xml")
        want_payload = any(c.payload for c in self._consumers.values())
        start = time.perf_counter()
        self._counters["publishes"] += 1
        try:
            epoch, base_seq, results, payloads, early_futures, delivered = (
                await self._run_engine(
                    lambda: self._publish_job(xml, want_payload, start)
                )
            )
        except ReproError:
            self._counters["publish_errors"] += 1
            raise
        self._latency.record(time.perf_counter() - start)
        self._counters["published_docs"] += len(results)
        if conn is not None:
            conn.published += len(results)
        if early_futures:
            # Early deliveries ran (or are running) on this loop already;
            # settle them so `delivered` is complete before the final
            # fan-out, and so block-policy backpressure still gates the ack.
            await asyncio.gather(
                *(asyncio.wrap_future(f) for f in early_futures)
            )
        await self._fan_out(base_seq, epoch, results, payloads, delivered)
        return {
            "ok": True,
            "epoch": epoch,
            "seq": base_seq,
            "results": [sorted(matched) for matched in results],
        }

    async def _fan_out(
        self,
        base_seq: int,
        epoch: int,
        results: list[frozenset[str]],
        payloads: list[str],
        delivered: dict[int, set[str]] | None = None,
    ) -> None:
        """Deliver matched oids to the owning consumers, one event per
        (document, consumer).  Each offer applies that consumer's own
        policy, so one slow consumer never stalls the others (only a
        ``block``-policy consumer delays this publisher's ack).

        *delivered* maps document index → oids the early path already
        handed out for this publish; those are skipped here so a match
        reaches each consumer exactly once."""
        for index, matched in enumerate(results):
            already = delivered.get(index, set()) if delivered else set()
            per_consumer: dict[str, list[str]] = {}
            for oid in matched:
                if oid in already:
                    continue
                name = self._routes.get(oid)
                if name is not None and name in self._consumers:
                    per_consumer.setdefault(name, []).append(oid)
            for name, oids in per_consumer.items():
                consumer = self._consumers[name]
                event: Frame = {
                    "event": "match",
                    "seq": base_seq + index,
                    "epoch": epoch,
                    "oids": sorted(oids),
                }
                if consumer.payload and index < len(payloads):
                    event["xml"] = payloads[index]
                await self._offer(name, consumer, event)

    async def _op_subscribe(self, frame: Frame, conn: _Connection | None) -> Frame:
        oid = self._field(frame, "oid")
        xpath = self._field(frame, "xpath")
        consumer = frame.get("consumer")
        if consumer is not None:
            if not isinstance(consumer, str):
                raise ServingError("'consumer' must be a string")
            self._ensure_consumer(consumer, frame)
        epoch, filters = await self._run_engine(
            lambda: self._control_job(lambda: self.engine.subscribe(oid, xpath))
        )
        if consumer is not None:
            self._routes[oid] = consumer
        return {"ok": True, "epoch": epoch, "filters": filters}

    async def _op_unsubscribe(self, frame: Frame, conn: _Connection | None) -> Frame:
        oid = self._field(frame, "oid")
        epoch, filters = await self._run_engine(
            lambda: self._control_job(lambda: self.engine.unsubscribe(oid))
        )
        self._routes.pop(oid, None)
        return {"ok": True, "epoch": epoch, "filters": filters}

    async def _op_compact(self, frame: Frame, conn: _Connection | None) -> Frame:
        compact = getattr(self.engine, "compact", None)
        if compact is None:
            raise ServingError(
                f"engine {self.engine.stats()['engine']!r} has no compact verb"
            )
        epoch, _ = await self._run_engine(lambda: self._control_job(compact))
        return {"ok": True, "epoch": epoch}

    def _ensure_consumer(self, name: str, frame: Frame) -> Consumer:
        existing = self._consumers.get(name)
        if existing is not None:
            return existing
        policy = frame.get("policy", self.default_policy)
        watermark = frame.get("high_watermark", self.high_watermark)
        if not isinstance(policy, str):
            raise ServingError("'policy' must be a string")
        if not isinstance(watermark, int) or isinstance(watermark, bool):
            raise ServingError("'high_watermark' must be an integer")
        consumer = Consumer(
            name,
            policy=policy,
            high_watermark=watermark,
            payload=bool(frame.get("payload", False)),
        )
        self._consumers[name] = consumer
        return consumer

    async def _op_consume(self, frame: Frame, conn: _Connection | None) -> Frame:
        name = self._field(frame, "consumer")
        consumer = self._ensure_consumer(name, frame)
        return {"ok": True, "consumer": name, "stats": consumer.stats()}

    def _consumer(self, frame: Frame) -> Consumer:
        name = self._field(frame, "consumer")
        consumer = self._consumers.get(name)
        if consumer is None:
            raise ServingError(f"unknown consumer {name!r}")
        return consumer

    async def _op_poll(self, frame: Frame, conn: _Connection | None) -> Frame:
        consumer = self._consumer(frame)
        max_events = frame.get("max", 64)
        timeout = frame.get("timeout", 0)
        if not isinstance(max_events, int) or max_events < 1:
            raise ServingError("'max' must be a positive integer")
        if not isinstance(timeout, (int, float)) or timeout < 0:
            raise ServingError("'timeout' must be a non-negative number")
        try:
            events = await consumer.get_batch(
                max_events, min(float(timeout), MAX_POLL_WAIT)
            )
        except ConsumerClosed:
            return {
                "ok": True,
                "events": [],
                "closed": True,
                "reason": consumer.close_reason,
            }
        return {"ok": True, "events": events, "closed": False}

    async def _op_stats(self, frame: Frame, conn: _Connection | None) -> Frame:
        return {"ok": True, "stats": await self.stats()}

    async def _op_ping(self, frame: Frame, conn: _Connection | None) -> Frame:
        return {"ok": True, "draining": self._draining}

    async def _op_attach(self, frame: Frame, conn: _Connection | None) -> Frame:
        if conn is None:
            raise ServingError("attach needs a frame connection (not HTTP)")
        if conn.attached is not None:
            raise ServingError("connection already attached")
        consumer = self._ensure_consumer(self._field(frame, "consumer"), frame)
        if consumer.closed:
            raise ServingError(f"consumer {consumer.name!r} is closed")
        if consumer.name in self._attachments:
            raise ServingError(f"consumer {consumer.name!r} already attached")
        conn.attached = consumer.name
        task = asyncio.ensure_future(self._pump(consumer, conn.writer))
        self._attachments[consumer.name] = (task, conn.writer)
        return {"ok": True, "consumer": consumer.name}

    _VERBS: dict[
        str,
        Callable[["FilterServer", Frame, "_Connection | None"], Coroutine[Any, Any, Frame]],
    ] = {
        "publish": _op_publish,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "compact": _op_compact,
        "consume": _op_consume,
        "poll": _op_poll,
        "stats": _op_stats,
        "ping": _op_ping,
        "attach": _op_attach,
    }

    # -- push delivery -------------------------------------------------

    async def _pump(self, consumer: Consumer, writer: asyncio.StreamWriter) -> None:
        """Drain *consumer* into an attached connection.  ``drain()``
        propagates TCP backpressure: a peer that stops reading stops the
        pump, the queue fills, and the consumer's policy takes over."""
        try:
            while True:
                try:
                    events = await consumer.get_batch(64, timeout=None)
                except ConsumerClosed:
                    writer.write(
                        encode_frame(
                            {"event": "closed", "reason": consumer.close_reason}
                        )
                    )
                    break
                for event in events:
                    writer.write(encode_frame(event))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._attachments.pop(consumer.name, None)

    def _close_attachment(self, name: str, reason: str) -> None:
        """Tear down a push attachment with a best-effort close frame
        (the 'websocket-style' close): the pump may be wedged in
        ``drain()`` against a peer that stopped reading, so it is
        cancelled rather than joined."""
        entry = self._attachments.pop(name, None)
        if entry is None:
            return
        task, writer = entry
        task.cancel()
        try:
            writer.write(encode_frame({"event": "closed", "reason": reason}))
            writer.close()
        except (ConnectionError, RuntimeError):
            pass

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        self._counters["connections_total"] += 1
        conn = _Connection(self._conn_counter, writer)
        self._connections[conn.conn_id] = conn
        try:
            first = await reader.read(1)
            if not first:
                return
            if 0x41 <= first[0] <= 0x5A:  # ASCII upper letter: an HTTP method
                from repro.serving.http import handle_http

                self._counters["http_requests"] += 1
                await handle_http(self, reader, writer, first)
            else:
                await self._frame_loop(reader, writer, conn, first)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(conn.conn_id, None)
            if conn.attached is not None:
                # the peer vanished; the pump dies with the transport
                entry = self._attachments.pop(conn.attached, None)
                if entry is not None:
                    entry[0].cancel()
            try:
                writer.close()
            except RuntimeError:  # event loop already closed
                pass

    async def _frame_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Connection,
        first: bytes,
    ) -> None:
        """One framed connection: decode, dispatch, reply, repeat.

        A recoverable protocol error answers with an error frame and
        keeps the connection; an unrecoverable one closes it.  EOF with
        bytes still buffered is a mid-frame disconnect: the partial
        document is discarded (counted), the server unaffected."""
        decoder = FrameDecoder(self.max_frame)
        chunk = first
        while True:
            if not chunk:
                if decoder.buffered:
                    self._counters["partial_frames"] += 1
                break
            try:
                frames, errors = decoder.feed_all(chunk)
            except ProtocolError as error:
                self._counters["protocol_errors"] += 1
                writer.write(
                    encode_frame(
                        {"ok": False, "error": str(error), "fatal": True,
                         "kind": "ProtocolError"}
                    )
                )
                await writer.drain()
                break
            for error in errors:
                self._counters["protocol_errors"] += 1
                writer.write(
                    encode_frame(
                        {"ok": False, "error": str(error), "fatal": False,
                         "kind": "ProtocolError"}
                    )
                )
            for frame in frames:
                reply = await self.dispatch(frame, conn)
                writer.write(encode_frame(reply))
            await writer.drain()
            chunk = await reader.read(_READ_CHUNK)

    # -- observability -------------------------------------------------

    async def stats(self) -> dict[str, Any]:
        """Server counters, with the engine's own ``stats()`` nested
        under ``"engine"`` — read on the engine thread, like every
        other engine call."""
        engine_stats = await self._run_engine(self.engine.stats)
        return {**self.stats_nowait(), "engine": engine_stats}

    def stats_nowait(self) -> dict[str, Any]:
        """Server-side counters only (no engine round-trip); safe from
        any thread."""
        return {
            **self._counters,
            "epoch": self._epoch,
            "seq": self._seq,
            "draining": self._draining,
            "connections": len(self._connections),
            "inflight": self._inflight,
            "publish_latency": self._latency.snapshot(),
            "first_match_latency": self._first_latency.snapshot(),
            "consumers": {
                name: consumer.stats() for name, consumer in sorted(self._consumers.items())
            },
            "attached": sorted(self._attachments),
        }

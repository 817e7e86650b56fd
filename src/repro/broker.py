"""A small XML message broker built on the XPush filtering engine.

The motivating application of Sec. 1: a message-oriented middleware
node where producers publish XML packets and consumers subscribe with
XPath filters; "the broker's main task is to route the messages from
producers to the consumers".  Each packet is filtered once by a single
filtering engine regardless of how many subscriptions exist, and
delivered to every subscriber whose filter matched.

The broker is a thin routing shell over one
:class:`~repro.engine.protocol.FilterEngine`, constructed exclusively
through :func:`~repro.engine.factory.create_engine`; the engine kind
decides the Sec. 8 update strategy:

- ``"xpush"`` (default) — brute-force: a subscription change marks the
  machine stale and it is rebuilt lazily on the next publish
  ("equivalent to flushing an entire cache");
- ``"layered"`` (``incremental=True``) — a warmed base machine plus a
  small delta layer; insertions never flush the base tables;
- ``"sharded"`` (``shards >= 2``) — the scale-out service of
  ``docs/scaling.md``; subscription changes ride its update control
  plane as epoch-stamped control messages, so the worker processes
  (and their warmed tables) survive every change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.engine.protocol import FilterEngine
from repro.errors import WorkloadError
from repro.xmlstream.dom import Document
from repro.xmlstream.dtd import DTD
from repro.xpath.parser import parse_xpath
from repro.xpush.options import XPushOptions

Deliver = Callable[[str, Document], None]


@dataclass
class Subscription:
    """One consumer's standing query."""

    subscriber: str
    xpath: str
    oid: str = field(default="")


class MessageBroker:
    """Routes XML packets to subscribers via one shared filter engine.

    >>> broker = MessageBroker()
    >>> broker.subscribe("alice", "//a[b/text() = 1]")
    'sub0'
    >>> inbox = []
    >>> broker.on_deliver = lambda who, doc: inbox.append(who)
    >>> broker.publish_text("<a><b>1</b></a>")
    1
    >>> inbox
    ['alice']
    """

    def __init__(
        self,
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
        incremental: bool = False,
        shards: int = 1,
        batch_size: int = 16,
        shard_parallel: bool | None = None,
        backend: str = "auto",
        config: EngineConfig | None = None,
    ):
        """*incremental* selects the layered engine, *shards* >= 2 the
        sharded service (worker processes unless *shard_parallel* is
        False) — see the module docstring for the update semantics of
        each.  *backend* selects the parser backend of the push-mode
        event path used when packets arrive as text (``publish_text``)
        and by shard workers; routing decisions are backend-independent.

        Alternatively pass a full :class:`EngineConfig` as *config* —
        it wins over every other argument and may name any registered
        engine kind that supports ``subscribe``/``unsubscribe``."""
        if config is None:
            if incremental and shards > 1:
                raise WorkloadError(
                    "incremental and sharded modes are mutually exclusive"
                )
            engine = "layered" if incremental else "sharded" if shards > 1 else "xpush"
            config = EngineConfig(
                engine=engine,
                options=options
                or XPushOptions(top_down=True, precompute_values=False),
                dtd=dtd,
                backend=backend,
                shards=int(shards),  # EngineConfig rejects shards < 1
                batch_size=int(batch_size),
                parallel=shard_parallel,
            )
        self.config = config
        self.options = config.options
        self.dtd = config.dtd
        self.incremental = config.engine == "layered"
        self.shards = config.shards
        self.batch_size = config.batch_size
        self.backend = config.backend
        self._subscriptions: dict[str, Subscription] = {}
        self._filter_engine: FilterEngine | None = None
        self._counter = 0
        self.on_deliver: Deliver = lambda subscriber, document: None
        self.delivered = 0
        self.published = 0

    # -- subscription management ----------------------------------------

    def _engine(self) -> FilterEngine:
        """The live engine; (re)created through the factory on first
        use and after :meth:`close`, resuming every subscription."""
        if self._filter_engine is None:
            self._filter_engine = create_engine(
                self.config,
                {oid: sub.xpath for oid, sub in self._subscriptions.items()},
            )
        return self._filter_engine

    def subscribe(self, subscriber: str, xpath: str) -> str:
        """Register a filter; returns the subscription oid."""
        oid = f"sub{self._counter}"
        self._counter += 1
        parse_xpath(xpath)  # validate eagerly, fail at subscribe time
        self._engine().subscribe(oid, xpath)
        self._subscriptions[oid] = Subscription(subscriber, xpath, oid)
        return oid

    def unsubscribe(self, oid: str) -> None:
        if oid not in self._subscriptions:
            raise WorkloadError(f"unknown subscription {oid!r}")
        self._engine().unsubscribe(oid)
        del self._subscriptions[oid]

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    # -- publishing -------------------------------------------------------

    def _matched_sets(self, documents: list[Document]) -> list[frozenset[str]]:
        """One oid-set per document.  The sharded engine filters the
        whole batch in one pipelined fan-out; in-process engines go
        document by document."""
        engine = self._engine()
        filter_batch = getattr(engine, "filter_batch", None)
        if filter_batch is not None:
            return filter_batch(documents)
        return [engine.filter_document(doc) for doc in documents]

    def publish(self, document: Document) -> int:
        """Route one packet; returns the number of deliveries."""
        return self.publish_batch([document])

    def publish_batch(self, documents: list[Document]) -> int:
        """Route a batch of packets in one engine round-trip; returns
        the total number of deliveries.  In sharded mode this is the
        fast path: the whole batch is fanned out to the shard workers
        pipelined, instead of one queue round-trip per packet."""
        documents = list(documents)
        if not documents:
            return 0
        if not self._subscriptions:
            self.published += len(documents)
            return 0
        total = 0
        for document, matched in zip(documents, self._matched_sets(documents)):
            self.published += 1
            count = 0
            for oid in sorted(matched):
                subscription = self._subscriptions.get(oid)
                if subscription is not None:
                    self.on_deliver(subscription.subscriber, document)
                    count += 1
            self.delivered += count
            total += count
        return total

    def publish_text(self, xml_text: str) -> int:
        """Parse and route every document in *xml_text* as one batch.

        Parsing uses the broker's configured push-mode *backend*."""
        from repro.xmlstream.dom import parse_forest

        return self.publish_batch(parse_forest(xml_text, backend=self.backend))

    def stats(self) -> dict:
        out = {
            "subscriptions": len(self._subscriptions),
            "published": self.published,
            "delivered": self.delivered,
            "backend": self.backend,
            "runtime": self.options.runtime,
            "engine": self.config.engine,
        }
        engine_stats = (
            self._filter_engine.stats() if self._filter_engine is not None else {}
        )
        if self.config.engine == "layered":
            out["layered"] = engine_stats
            out["xpush_states"] = engine_stats.get("xpush_states", 0)
            out["hit_ratio"] = engine_stats.get("hit_ratio", 0.0)
        elif self.config.engine == "sharded":
            out["sharded"] = engine_stats
            out["worker_restarts"] = engine_stats.get("worker_restarts", 0)
            out["xpush_states"] = engine_stats.get("xpush_states", 0)
            out["resident_bytes"] = engine_stats.get("resident_bytes", 0)
            out["evictions"] = engine_stats.get("evictions", 0)
            out["epoch"] = engine_stats.get("epoch", 0)
            out["hit_ratio"] = 0.0
        else:
            out["xpush_states"] = engine_stats.get("xpush_states", 0)
            out["hit_ratio"] = engine_stats.get("hit_ratio", 0.0)
            out["resident_bytes"] = engine_stats.get("resident_bytes", 0)
            out["evictions"] = engine_stats.get("evictions", 0)
        # Uniform placement gauge block, whatever the engine kind.
        out["shard_load"] = engine_stats.get(
            "shard_load", [float(len(self._subscriptions))]
        )
        out["imbalance"] = engine_stats.get("imbalance", 1.0)
        return out

    def rebalance(self) -> list:
        """Migrate filters between shards until balanced (the sharded
        engine's placement verb); raises
        :class:`~repro.errors.WorkloadError` on engines without one."""
        rebalance = getattr(self._engine(), "rebalance", None)
        if rebalance is None:
            raise WorkloadError(
                f"engine {self.config.engine!r} does not support rebalance"
            )
        moves = rebalance()
        assert isinstance(moves, list)
        return moves

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_policy: str = "block",
        high_watermark: int = 256,
    ):
        """A network front door over this broker's engine: a
        :class:`repro.serving.server.FilterServer` *borrowing* the live
        engine (the broker keeps ownership and its in-process delivery
        path).  Network ``subscribe``/``unsubscribe`` verbs act on the
        shared engine directly — oids issued over the wire live beside
        the broker's ``subN`` oids, and network consumers receive their
        fan-out from the server's per-consumer queues while local
        ``on_deliver`` subscribers keep being routed by ``publish``.

        The caller starts it (``ServerThread`` or ``await start()``);
        stopping the server never closes the broker's engine."""
        from repro.serving.server import FilterServer

        return FilterServer(
            self._engine(),
            host=host,
            port=port,
            default_policy=default_policy,
            high_watermark=high_watermark,
        )

    def close(self) -> None:
        """Release resources (shard worker processes); publishing after
        close lazily rebuilds the engine from the live subscriptions,
        so this is safe mid-lifetime."""
        if self._filter_engine is not None:
            self._filter_engine.close()
            self._filter_engine = None

    def __enter__(self) -> "MessageBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

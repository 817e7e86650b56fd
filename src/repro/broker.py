"""A small XML message broker built on the XPush filtering engine.

The motivating application of Sec. 1: a message-oriented middleware
node where producers publish XML packets and consumers subscribe with
XPath filters; "the broker's main task is to route the messages from
producers to the consumers".  Each packet is filtered once by a single
filtering engine regardless of how many subscriptions exist, and
delivered to every subscriber whose filter matched.

The broker is a thin routing shell over one
:class:`~repro.engine.protocol.FilterEngine`, constructed exclusively
through :func:`~repro.engine.factory.create_engine` from the one
:class:`~repro.engine.config.EngineConfig` it is given; the engine kind
decides what a subscription change costs (Sec. 8):

- ``"layered"`` (default) — a warmed base machine plus, while updates
  are pending, a small delta layer; insertions never flush the base
  tables;
- ``"sharded"`` — the scale-out service of ``docs/scaling.md``;
  subscription changes ride its update control plane as epoch-stamped
  control messages, so the worker processes (and their warmed tables)
  survive every change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.engine.protocol import FilterEngine
from repro.errors import WorkloadError
from repro.xmlstream.dom import Document
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:
    from repro.serving.server import FilterServer

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

    def __init__(self, config: EngineConfig | None = None):
        """*config* names the engine (one of ``ENGINES``) and carries
        every knob of it; the default is the in-process layered engine."""
        self.config = config or EngineConfig()
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
        """One oid-set per document.  The sharded engine deals the
        whole batch out to its shards in one pipelined call; in-process
        engines go document by document."""
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
        fast path: the whole batch is dealt out to the shard workers
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
        """Parse and route every document in *xml_text* as one batch."""
        from repro.xmlstream.dom import parse_forest

        return self.publish_batch(parse_forest(xml_text))

    def stats(self) -> dict[str, Any]:
        """Broker counters, with the engine's own ``stats()`` nested
        under ``"engine"`` (empty until the engine is first built)."""
        engine = self._filter_engine
        return {
            "subscriptions": len(self._subscriptions),
            "published": self.published,
            "delivered": self.delivered,
            "engine": engine.stats() if engine is not None else {},
        }

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_policy: str = "block",
        high_watermark: int = 256,
    ) -> FilterServer:
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

    def __exit__(self, *exc_info: object) -> None:
        self.close()

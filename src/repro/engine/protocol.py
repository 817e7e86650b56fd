"""The :class:`FilterEngine` protocol — one surface for every engine.

Both filtering engines of the library (the XPush engine with its
Sec. 8 layers and the sharded multi-process service over it) answer
the same question — *which subscriptions match this document?*  This
protocol names that contract once, so the composites over it
(:class:`repro.service.ShardedFilterEngine` and the network
:class:`repro.serving.FilterServer`) take either engine and the knobs
live in one :class:`repro.engine.config.EngineConfig`.

The contract, in paper terms:

- **workload updates are first-class** (Sec. 8): ``subscribe`` /
  ``unsubscribe`` change the live workload.  An insertion touches
  only a small delta machine, never the brute-force rebuild
  ("flushing an entire cache"); after the call returns, filtering
  reflects the new workload;
- **filtering** over the three source granularities the library
  supports: an in-memory :class:`~repro.xmlstream.dom.Document`, a
  stream of SAX :class:`~repro.xmlstream.events.Event` values, or raw
  XML text/bytes/file (the push-mode fast path);
- **persistence**: ``snapshot()`` captures the current workload as a
  JSON-safe dict and ``restore()`` resumes from one — including any
  uncompacted layered delta and tombstones, so a restored engine
  carries on from the exact workload version that was captured;
- **observability and lifecycle**: ``stats()`` and ``close()``.

Beyond the required surface, engines may expose **optional control
verbs** that callers discover with ``getattr`` — the serving tier
forwards them over the wire only when present: ``compact()``
(fold the layered delta into the base, PR 5's update plane).  Engines
without a verb simply do not grow stubs for it; absence is the
capability signal.

The protocol is ``runtime_checkable`` so tests can assert conformance
with ``isinstance``; the typed contract is enforced by the strict
``mypy`` pass over this package in CI.
"""

from __future__ import annotations

from typing import IO, Any, Callable, Iterable, Optional, Protocol, Union, runtime_checkable

from repro.xmlstream.dom import Document
from repro.xmlstream.events import Event

#: Anything the push-mode parser accepts: XML text, UTF-8 bytes, or a
#: file-like object open in text or binary mode.
StreamSource = Union[str, bytes, IO[str], IO[bytes]]

#: Event-time match sink: ``hook(oid, doc_index, event_index)``.
#: ``doc_index`` is the 0-based document position *within the current
#: filter call*; ``event_index`` is the SAX event position within that
#: document at which the match was decided (``startDocument`` is event
#: 0).  Each oid is delivered at most once per document, emissions are monotone in event order, and
#: the union over a document equals its ``filter_*`` answer set.
MatchHook = Callable[[str, int, int], None]


@runtime_checkable
class FilterEngine(Protocol):
    """A filtering engine over a mutable workload of XPath filters."""

    #: Optional event-time match sink (see :data:`MatchHook`), fired at
    #: the deciding event — under ``XPushOptions.early`` that is the
    #: earliest event the paper's Sec. 5 notification resolves; without
    #: early it is the document end.
    on_match: Optional[MatchHook]

    # -- workload control plane ----------------------------------------

    def subscribe(self, oid: str, xpath: str) -> None:
        """Add filter *xpath* under *oid*; raises
        :class:`~repro.errors.WorkloadError` if *oid* is already live
        and :class:`~repro.errors.XPathSyntaxError` on a bad filter.
        The update is visible to every later ``filter_*`` call."""
        ...

    def unsubscribe(self, oid: str) -> None:
        """Remove the filter under *oid*; raises
        :class:`~repro.errors.WorkloadError` if *oid* is not live."""
        ...

    @property
    def filter_count(self) -> int:
        """Number of currently live filters."""
        ...

    # -- filtering -----------------------------------------------------

    def filter_document(self, document: Document) -> frozenset[str]:
        """Oids of the live filters matching one in-memory document."""
        ...

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        """Filter a SAX event stream; one oid-set per document."""
        ...

    def filter_stream(self, source: StreamSource) -> list[frozenset[str]]:
        """Parse and filter (possibly multi-document) XML text."""
        ...

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe capture of the current workload (including any
        pending layered delta/tombstones, where the engine has them)."""
        ...

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the current workload with a ``snapshot()`` capture."""
        ...

    # -- observability and lifecycle -----------------------------------

    def stats(self) -> dict[str, Any]:
        """Engine counters.  Every engine reports the common keys:
        ``engine`` (its kind), ``filters`` (the live filter
        count), ``runtime``, the machine counters of
        :data:`repro.xpush.stats.MACHINE_KEYS` and their ``hit_ratio``
        — summed over layers or shards by :func:`repro.xpush.stats.merged`.
        Load gauges (live
        filters per shard, hottest shard over mean) are the sharded
        engine's alone: no other engine has shards."""
        ...

    def close(self) -> None:
        """Release resources (worker processes, queues).  Idempotent;
        filtering after close is engine-defined (composites raise)."""
        ...

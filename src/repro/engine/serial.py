"""The rebuild-on-change engines behind the :class:`FilterEngine` protocol.

:class:`BaselineEngine` wraps anything that evaluates whole documents —
the related-work baselines (naive, XFilter-style, YFilter-style) and
the fully-materialised Sec. 3.2 machine, for which precomputation is
the point — behind the same surface as the XPush engine
(:mod:`repro.xpush.layered`), so differential tests and benches swap
engines by config alone.  Its update path is the Sec. 8 *brute-force*
one: a subscription change drops the evaluator and the next filter
call rebuilds it ("equivalent to flushing an entire cache").  The
bookkeeping around it is a live ``oid → filter`` map, eager XPath
validation at ``subscribe`` time, and a JSON-safe ``snapshot()`` of the
sources.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from repro.engine.config import EngineConfig
from repro.engine.protocol import MatchHook, StreamSource
from repro.errors import WorkloadError
from repro.xmlstream.dom import Document, documents_of_events, parse_forest
from repro.xmlstream.events import Event
from repro.xmlstream.parser import _decode_utf8
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_xpath

#: ``snapshot()`` format tag shared by the source-level engines.
SNAPSHOT_FORMAT = "repro-engine-workload"
SNAPSHOT_VERSION = 1


def normalize_filters(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
) -> list[XPathFilter]:
    """Accept the workload spellings used across the library — parsed
    filters, an oid→xpath mapping, or bare source strings."""
    if filters is None:
        return []
    if isinstance(filters, Mapping):
        return [parse_xpath(source, oid) for oid, source in filters.items()]
    out: list[XPathFilter] = []
    for index, item in enumerate(filters):
        if isinstance(item, XPathFilter):
            out.append(item)
        else:
            out.append(parse_xpath(item, f"q{index}"))
    return out


def sources_snapshot(name: str, filters: Mapping[str, XPathFilter]) -> dict[str, Any]:
    """The shared ``snapshot()`` payload: live filters by source."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "engine": name,
        "filters": {oid: f.source for oid, f in filters.items()},
    }


def sources_from_snapshot(snapshot: Mapping[str, Any]) -> dict[str, XPathFilter]:
    """Decode a :func:`sources_snapshot` payload back into filters."""
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise WorkloadError("not a repro engine workload snapshot")
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise WorkloadError(
            f"unsupported engine snapshot version {snapshot.get('version')!r}"
        )
    filters = snapshot.get("filters")
    if not isinstance(filters, Mapping):
        raise WorkloadError("malformed engine snapshot: no filters mapping")
    return {oid: parse_xpath(source, oid) for oid, source in filters.items()}


class _DocumentEvaluator(Protocol):
    """What the engine needs from its inner evaluator."""

    def filter_document(self, document: Document) -> frozenset[str]: ...


class BaselineEngine:
    """A document-at-a-time evaluator behind the protocol: live filter
    map + lazy rebuild-on-change.

    *builder* maps the live filter list to the evaluator, which is
    invalidated by any update and rebuilt on the next filter call —
    the Sec. 8 brute-force strategy.
    """

    def __init__(
        self,
        name: str,
        builder: Callable[[list[XPathFilter]], _DocumentEvaluator],
        filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
        config: EngineConfig | None = None,
    ):
        self.name = name
        self._builder = builder
        self.config = config or EngineConfig(engine=name)
        self._filters: dict[str, XPathFilter] = {}
        for f in normalize_filters(filters):
            if f.oid in self._filters:
                raise WorkloadError(f"duplicate oid {f.oid!r}")
            self._filters[f.oid] = f
        self._inner: _DocumentEvaluator | None = None
        self.rebuilds = 0
        #: Event-time match sink (FilterEngine protocol).  The rebuild
        #: engines evaluate whole documents, so it fires at document
        #: completion with ``event_index=-1``.
        self.on_match: MatchHook | None = None

    # -- workload control plane ----------------------------------------

    def subscribe(self, oid: str, xpath: str) -> None:
        if oid in self._filters:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        self._filters[oid] = parse_xpath(xpath, oid)
        self._inner = None  # rebuild lazily (Sec. 8 brute-force path)

    def unsubscribe(self, oid: str) -> None:
        if oid not in self._filters:
            raise WorkloadError(f"unknown oid {oid!r}")
        del self._filters[oid]
        self._inner = None

    @property
    def filter_count(self) -> int:
        return len(self._filters)

    # -- inner evaluator -----------------------------------------------

    def _live(self) -> _DocumentEvaluator:
        if self._inner is None:
            self._inner = self._builder(list(self._filters.values()))
            self.rebuilds += 1
        return self._inner

    # -- filtering -----------------------------------------------------

    def filter_document(self, document: Document) -> frozenset[str]:
        matched = self._live().filter_document(document)
        self._emit_document_matches(matched, 0)
        return matched

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        documents = documents_of_events(list(events))
        return self._filter_documents(documents)

    def filter_stream(self, source: StreamSource) -> list[frozenset[str]]:
        return self._filter_documents(self._documents(source))

    def _filter_documents(self, documents: list[Document]) -> list[frozenset[str]]:
        inner = self._live()
        out: list[frozenset[str]] = []
        for index, doc in enumerate(documents):
            matched = inner.filter_document(doc)
            self._emit_document_matches(matched, index)
            out.append(matched)
        return out

    def _emit_document_matches(self, matched: frozenset[str], doc_index: int) -> None:
        """Document-granularity on_match delivery: these engines learn
        nothing before the evaluator returns, so every match carries
        ``event_index=-1`` ("decided at document completion")."""
        hook = self.on_match
        if hook is not None:
            for oid in sorted(matched):
                hook(oid, doc_index, -1)

    def _documents(self, source: StreamSource) -> list[Document]:
        if not isinstance(source, (str, bytes)):
            source = source.read()
        if isinstance(source, bytes):
            source = _decode_utf8(source)
        return parse_forest(source, backend=self.config.backend)

    # -- persistence, stats, lifecycle ---------------------------------

    def snapshot(self) -> dict[str, Any]:
        return sources_snapshot(self.name, self._filters)

    def restore(self, snapshot: dict[str, Any]) -> None:
        self._filters = sources_from_snapshot(snapshot)
        self._inner = None

    def stats(self) -> dict[str, Any]:
        return {
            "engine": self.name,
            "filters": len(self._filters),
            "rebuilds": self.rebuilds,
            "stale": self._inner is None,
            # Uniform placement gauge block: an in-process engine is
            # one "shard", here weighed by its filter count.
            "shard_load": [float(len(self._filters))],
            "imbalance": 1.0,
        }

    def close(self) -> None:
        self._inner = None


def naive_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.naive import NaiveEngine

    return BaselineEngine("naive", NaiveEngine, filters, config)


def xfilter_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.xfilter import PerQueryEngine

    return BaselineEngine("xfilter", PerQueryEngine, filters, config)


def yfilter_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.yfilter import SharedPathEngine

    return BaselineEngine("yfilter", SharedPathEngine, filters, config)


def eager_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    """The fully-materialised Sec. 3.2 machine.  Every update pays the
    full eager construction — precomputation is the point of it."""
    from repro.xpush.eager import EagerXPushMachine

    return BaselineEngine("eager", EagerXPushMachine, filters, config)

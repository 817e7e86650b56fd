"""In-process engines behind the :class:`FilterEngine` protocol.

Three families live here:

- :class:`SerialXPushEngine` — the lazy XPush machine (Sec. 3-5) with
  the Sec. 8 *brute-force* update path: a subscription change marks
  the engine stale and the machine is rebuilt lazily on the next
  filter call ("equivalent to flushing an entire cache").  Use the
  layered engine when updates must not flush the warmed tables.
- :class:`EagerEngine` — the fully-materialised Sec. 3.2 machine;
  updates rebuild the whole table set (it is precomputation by
  definition).
- :class:`BaselineEngine` — the related-work baselines (naive,
  XFilter-style, YFilter-style) wrapped behind the same surface, so
  differential tests and benches can swap engines by config alone.

All of them share the same update bookkeeping: a live ``oid → filter``
map, eager XPath validation at ``subscribe`` time, and a JSON-safe
``snapshot()`` of the sources.  What differs is only how the inner
evaluator is (re)built.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from repro.afa.build import build_workload_automata
from repro.engine.config import EngineConfig
from repro.engine.protocol import MatchHook, StreamSource
from repro.errors import WorkloadError
from repro.xmlstream.dom import Document, documents_of_events, parse_forest
from repro.xmlstream.events import Event
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_xpath
from repro.xpush.machine import XPushMachine
from repro.xpush.persist import restored_options

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
    """What a rebuildable engine needs from its inner evaluator."""

    def filter_document(self, document: Document) -> frozenset[str]: ...


class RebuildFilterEngine:
    """Shared base: live filter map + lazy rebuild-on-change.

    Subclasses provide :meth:`_build` (filters → inner evaluator).  The
    inner evaluator is invalidated by any update and rebuilt on the
    next filter call — the Sec. 8 brute-force strategy, shared by the
    serial machines and all baselines.
    """

    name = "rebuild"

    def __init__(
        self,
        filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
        config: EngineConfig | None = None,
    ):
        self.config = config or EngineConfig(engine=self.name)
        self._filters: dict[str, XPathFilter] = {}
        for f in normalize_filters(filters):
            if f.oid in self._filters:
                raise WorkloadError(f"duplicate oid {f.oid!r}")
            self._filters[f.oid] = f
        self._inner: _DocumentEvaluator | None = None
        self.rebuilds = 0
        #: Event-time match sink (FilterEngine protocol).  The rebuild
        #: engines evaluate whole documents, so the base implementation
        #: fires at document completion with ``event_index=-1``; the
        #: XPush subclasses relay the machine's true event-time hook.
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

    def _build(self, filters: list[XPathFilter]) -> _DocumentEvaluator:
        raise NotImplementedError

    def _live(self) -> _DocumentEvaluator:
        if self._inner is None:
            self._inner = self._build(list(self._filters.values()))
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
            source = source.decode("utf-8")
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
            # Uniform placement gauge block: a serial engine is one
            # "shard" whose load is its filter count; richer engines
            # override the load with their automaton weight.
            "shard_load": [float(len(self._filters))],
            "imbalance": 1.0,
        }

    def close(self) -> None:
        self._inner = None


class SerialXPushEngine(RebuildFilterEngine):
    """The lazy XPush machine behind the unified engine surface.

    The inner machine is built with ``retain_results=False`` — answers
    are returned per call, so an unbounded stream cannot accumulate a
    per-document results list inside the engine.
    """

    name = "xpush"

    def __init__(
        self,
        filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
        config: EngineConfig | None = None,
    ):
        super().__init__(filters, config)
        # Machine doc_seq of the first document of the current filter
        # call — the relay subtracts it so on_match carries the 0-based
        # document index within the call, per the protocol contract.
        self._match_base = 0

    def _build(self, filters: list[XPathFilter]) -> XPushMachine:
        config = self.config
        return XPushMachine.from_filters(
            filters,
            replace(config.options, retain_results=False),
            dtd=config.dtd,
            training_seed=config.training_seed,
        )

    def subscribe(self, oid: str, xpath: str) -> None:
        # The rebuild is lazy: a filter the AFA build refuses must be
        # refused here, or every document fails until the oid is removed.
        build_workload_automata([parse_xpath(xpath, oid)])
        super().subscribe(oid, xpath)

    def _machine(self) -> XPushMachine:
        inner = self._live()
        assert isinstance(inner, XPushMachine)
        return inner

    def _machine_for_call(self) -> XPushMachine:
        """The live machine with the event-time relay (un)wired for one
        filter call.  Wired per call so a machine rebuilt by an update
        picks the hook back up, and an unset hook costs the hot path
        nothing (the machine skips per-oid delivery entirely)."""
        machine = self._machine()
        machine.on_match = self._relay_match if self.on_match is not None else None
        self._match_base = machine.doc_seq
        return machine

    def _relay_match(self, oid: str, doc_seq: int, event_index: int) -> None:
        hook = self.on_match
        if hook is not None:
            hook(oid, doc_seq - self._match_base, event_index)

    def filter_document(self, document: Document) -> frozenset[str]:
        # Route through the machine's event path (not the base class's
        # document-time emission) so on_match fires at event time.
        return self._machine_for_call().filter_document(document)

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        return self._machine_for_call().process_events(iter(events))

    def filter_stream(self, source: StreamSource) -> list[frozenset[str]]:
        # The zero-allocation push path: the scanner drives the machine
        # callbacks directly, no Document or Event objects in between.
        return self._machine_for_call().filter_stream(
            source, backend=self.config.backend
        )

    def warm_up(self, seed: int = 0) -> int:
        return self._machine().warm_up(seed=seed)

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        machine = self._inner
        if isinstance(machine, XPushMachine):
            out.update(
                afa_states=machine.workload.state_count,
                xpush_states=machine.state_count,
                hit_ratio=machine.stats.hit_ratio,
                resident_bytes=machine.store.resident_bytes,
                table_entries=machine.store.table_entries,
                evictions=machine.stats.evictions,
                gc_states=machine.stats.gc_states,
                codegen_compile_ms=machine.stats.codegen_compile_ms,
                codegen_handlers=machine.stats.codegen_handlers,
                codegen_fallbacks=machine.stats.codegen_fallbacks,
            )
        else:
            out.update(
                afa_states=0,
                xpush_states=0,
                hit_ratio=0.0,
                resident_bytes=0,
                table_entries=0,
                evictions=0,
                gc_states=0,
                codegen_compile_ms=0.0,
                codegen_handlers=0,
                codegen_fallbacks=0,
            )
        out["runtime"] = self.config.options.runtime
        out["backend"] = self.config.backend
        out["shard_load"] = [float(out["afa_states"])]
        return out

    def snapshot(self) -> dict[str, Any]:
        # Record the runtime so a restored engine rebuilds the same
        # machine shape (compiled codegen handlers are derived data,
        # rebuilt on load exactly like the bitmask tables).
        out = super().snapshot()
        out["runtime"] = self.config.options.runtime
        return out

    def restore(self, snapshot: dict[str, Any]) -> None:
        options = restored_options(snapshot, self.config.options)
        super().restore(snapshot)
        self.config = replace(self.config, options=options)


class _EagerAdapter:
    """Bridges ``EagerXPushMachine.run`` to ``filter_document``."""

    def __init__(self, machine: Any):
        self.machine = machine

    def filter_document(self, document: Document) -> frozenset[str]:
        result = self.machine.run(document)
        assert isinstance(result, frozenset)
        return result


class EagerEngine(RebuildFilterEngine):
    """The fully-materialised Sec. 3.2 machine.  Every update pays the
    full eager construction — precomputation is the point of it."""

    name = "eager"

    def _build(self, filters: list[XPathFilter]) -> _DocumentEvaluator:
        from repro.xpush.eager import EagerXPushMachine

        return _EagerAdapter(EagerXPushMachine(filters))

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        inner = self._inner
        if isinstance(inner, _EagerAdapter):
            out["xpush_states"] = inner.machine.state_count
        return out


class BaselineEngine(RebuildFilterEngine):
    """A related-work baseline behind the protocol; *builder* maps the
    live filter list to the baseline's evaluator."""

    def __init__(
        self,
        name: str,
        builder: Callable[[list[XPathFilter]], _DocumentEvaluator],
        filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
        config: EngineConfig | None = None,
    ):
        self.name = name
        self._builder = builder
        super().__init__(filters, config)

    def _build(self, filters: list[XPathFilter]) -> _DocumentEvaluator:
        return self._builder(filters)


def naive_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.naive import NaiveEngine

    return BaselineEngine("naive", lambda fs: NaiveEngine(fs), filters, config)


def xfilter_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.xfilter import PerQueryEngine

    return BaselineEngine("xfilter", lambda fs: PerQueryEngine(fs), filters, config)


def yfilter_engine(
    filters: Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None,
    config: EngineConfig | None = None,
) -> BaselineEngine:
    from repro.baselines.yfilter import SharedPathEngine

    return BaselineEngine("yfilter", lambda fs: SharedPathEngine(fs), filters, config)

"""XFilter-style baseline: one automaton per query, no sharing.

"The XFilter system was the first to define the problem … It builds a
separate FSM for each query; as a result it does not exploit
commonality that exists among the path expressions" (Sec. 1, Related
Work).  This engine captures that execution model: each filter gets
its own alternating automaton and its own predicate index, and all of
them run the raw bottom-up stack algorithm over every SAX event with
no interning, no memoisation and no cross-query sharing.

Per event the cost is O(#queries), which is exactly why it loses to
the XPush machine as workloads grow — the comparison
``benchmarks/bench_baselines.py`` quantifies.
"""

from __future__ import annotations

from typing import IO, Iterable

from repro.afa.build import build_workload_automata
from repro.afa.index import AtomicPredicateIndex
from repro.errors import MixedContentError
from repro.xmlstream.dom import Document
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
    events_of_document,
)
from repro.xmlstream.parser import iterparse
from repro.xpath.ast import XPathFilter


class _QueryRunner:
    """The un-memoised bottom-up algorithm for a single filter, over
    its own compiled mask tables (a state set is one int)."""

    __slots__ = ("masks", "index", "oid", "stack", "qb")

    def __init__(self, xpath_filter: XPathFilter):
        workload = build_workload_automata([xpath_filter])
        self.masks = workload.masks
        self.oid = xpath_filter.oid
        self.index = AtomicPredicateIndex()
        for sid in workload.terminals:
            self.index.add(workload.states[sid].predicate, sid)
        self.index.freeze()
        self.stack: list[int] = []
        self.qb = 0

    def start_document(self) -> None:
        self.stack = []
        self.qb = 0

    def start_element(self, label: str) -> None:
        if self.qb & self.masks.terminal_mask:
            raise MixedContentError("mixed content")
        self.stack.append(self.qb)
        self.qb = 0

    def text(self, value: str) -> None:
        self.qb |= self.index.lookup_mask(value)

    def end_element(self, label: str) -> None:
        masks = self.masks
        evaluated = masks.eval_closure(self.qb)
        lifted = masks.delta_inverse(evaluated, label, label.startswith("@"))
        self.qb = self.stack.pop() | lifted

    def matched(self) -> bool:
        return bool(self.qb & self.masks.initial_mask)


class PerQueryEngine:
    """Runs one independent automaton per filter over the stream."""

    name = "xfilter"

    def __init__(self, filters: Iterable[XPathFilter]):
        self.runners = [_QueryRunner(f) for f in filters]

    def process_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        results: list[frozenset[str]] = []
        runners = self.runners
        for event in events:
            kind = type(event)
            if kind is StartElement:
                for runner in runners:
                    runner.start_element(event.label)
            elif kind is Text:
                for runner in runners:
                    runner.text(event.value)
            elif kind is EndElement:
                for runner in runners:
                    runner.end_element(event.label)
            elif kind is StartDocument:
                for runner in runners:
                    runner.start_document()
            elif kind is EndDocument:
                results.append(
                    frozenset(r.oid for r in runners if r.matched())
                )
        return results

    def filter_document(self, document: Document) -> frozenset[str]:
        return self.process_events(events_of_document(document))[0]

    def filter_stream(self, source: str | bytes | IO) -> list[frozenset[str]]:
        return self.process_events(iterparse(source))

"""A parse leaves no reference cycle, so reference counting frees it.

The XPush machine should keep its tables and an O(depth) stack and
nothing else.  A scanner whose expat handlers held the scanner itself
formed the cycle scanner → expat parser → handler → scanner: every
parse then left cyclic garbage, and a closed engine, reachable from its
last scanner's handlers, lived on with its whole compiled workload until
the cyclic collector happened to run.  Here the collector is off inside
each case, and every case must leave ``gc.collect() == 0``: each parse
entry point on well-formed and malformed sources, and ``filter_stream``
passes of the engine's three shapes.  A closed engine's workload must
die inside ``close()``, with no collection at all.
"""

from __future__ import annotations

import gc
import io
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest

from repro.engine import EngineConfig, create_engine
from repro.errors import XMLSyntaxError
from repro.xmlstream.dom import parse_document, parse_forest
from repro.xmlstream.events import EventHandler
from repro.xmlstream.parser import iterparse, parse_events, parse_into
from repro.xmlstream.split import split_documents
from repro.xpush.options import XPushOptions

#: Two documents (attributes, a text leaf, an empty element), then
#: sources expat refuses inside ``feed`` (a mismatched tag), inside
#: ``close`` (a truncated document) and before any element (a stray
#: ``<``), and two with no element at all, which are an empty stream.
SOURCES = {
    "two-documents": "<a x='1' y='2'><b>t</b><c/><b>u v</b></a><a><c/></a>",
    "mismatched-tag": "<a><b>t</a>",
    "truncated": "<a><b>t</b>",
    "no-root-tag": "<<a/>",
    "empty": "",
    "comment-only": "<!-- nothing -->",
}


class _Leaves(EventHandler):
    """A handler with ``leaf``: the scanner takes its fused path."""

    def leaf(self, label: str, value: str) -> None:
        pass


@contextmanager
def _collector_off() -> Iterator[list[int]]:
    """Disable the collector for the block; yields a list that receives
    what one collection at its end found unreachable."""
    gc.collect()
    found: list[int] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield found
        found.append(gc.collect())
    finally:
        if enabled:
            gc.enable()


def _run(action: Callable[[], object]) -> None:
    try:
        action()
    except XMLSyntaxError:
        pass


def _abandoned(source: str) -> None:
    events = iterparse(source)
    next(events, None)
    del events  # closed unexhausted, its scanner never closed


ENTRY_POINTS: dict[str, Callable[[str | bytes], object]] = {
    "parse_into": lambda source: parse_into(source, EventHandler()),
    "parse_into-leaf": lambda source: parse_into(source, _Leaves()),
    "parse_into-file": lambda source: parse_into(io.BytesIO(_utf8(source)), EventHandler()),
    "parse_into-file-leaf": lambda source: parse_into(io.StringIO(_text(source)), _Leaves()),
    "iterparse-exhausted": lambda source: list(iterparse(source)),
    "iterparse-abandoned": lambda source: _abandoned(_text(source)),
    "parse_events": parse_events,
    "parse_document": lambda source: parse_document(_text(source)),
    "parse_forest": lambda source: parse_forest(_text(source)),
    "split_documents": split_documents,
}


def _utf8(source: str | bytes) -> bytes:
    return source if isinstance(source, bytes) else source.encode("utf-8")


def _text(source: str | bytes) -> str:
    return source if isinstance(source, str) else source.decode("utf-8")


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
@pytest.mark.parametrize("source", SOURCES.values(), ids=list(SOURCES))
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_a_parse_leaves_no_cyclic_garbage(entry, source, as_bytes):
    data = _utf8(source) if as_bytes else source
    with _collector_off() as found:
        _run(lambda: entry(data))
    assert found == [0]


FILTERS = {
    "q0": "//a[b = 't']",
    "q1": "/a/c",
    "q2": "//a[@x = '1']/b",
    "q3": "/a[not(b)]",
}


def _engine(top_down_early: bool = False):
    options = XPushOptions(top_down=True, early=True) if top_down_early else XPushOptions()
    return create_engine(EngineConfig(options=options), FILTERS)


def _one_layer():
    return _engine()


def _two_layers():
    engine = _engine()
    engine.subscribe("q4", "//b")  # a pending delta beside the base
    assert engine.stats()["delta_filters"] == 1
    return engine


def _early_with_hook():
    engine = _engine(top_down_early=True)
    hits: list[tuple[str, int, int]] = []
    engine.on_match = lambda oid, doc, event: hits.append((oid, doc, event))
    return engine


ENGINES = {"one-layer": _one_layer, "two-layers": _two_layers, "td-early-hook": _early_with_hook}


@pytest.mark.parametrize("source", ["two-documents", "mismatched-tag"])
@pytest.mark.parametrize("make", ENGINES.values(), ids=list(ENGINES))
def test_a_filter_pass_leaves_no_cyclic_garbage(make, source):
    engine = make()
    try:
        for data in (SOURCES[source], _utf8(SOURCES[source])):  # a cold pass, then warm
            with _collector_off() as found:
                _run(lambda: engine.filter_stream(data))
            assert found == [0]
    finally:
        engine.close()


@pytest.mark.parametrize("make", ENGINES.values(), ids=list(ENGINES))
def test_a_closed_engine_frees_its_workload_in_close(make):
    with _collector_off():
        engine = make()
        assert engine.filter_stream(SOURCES["two-documents"])
        machines = [m for m in (engine._base, engine._delta) if m is not None]
        workloads = [weakref.ref(machine.workload) for machine in machines]
        machines_alive = [weakref.ref(machine) for machine in machines]
        del machines
        engine.close()
        assert [ref() for ref in machines_alive] == [None] * len(workloads)
        assert [ref() for ref in workloads] == [None] * len(workloads)

"""Differential wall for event-time earliest answering (``on_match``).

Every engine exposes an ``on_match`` hook that fires ``(oid,
doc_index, event_index)`` the moment a filter is decided.  The wall
pins the contract down across kernels (the oracle, id ``sets``;
bitmask; codegen) and engines (xpush / layered / sharded, serial
and parallel): the emitted oid set per document must equal the
end-of-document answer set exactly, no oid may be emitted twice for one
document, and — for the single-machine engines — emissions arrive in
event order.  The sharded engine scans shards independently, so only
the per-document *set* contract holds there, not a global event order.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.engine import ENGINES, EngineConfig, create_engine
from repro.xmlstream.dom import documents_of_events, parse_document
from repro.xmlstream.events import EndDocument, EndElement, StartElement, events_of_document
from repro.xmlstream.writer import document_to_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_filter, matching_oids
from repro.xpush.options import XPushOptions

from tests import oracle
from tests.conftest import make_workload

WORKLOAD = {
    "q0": "//a[b = 1]",
    "q1": "//c",
    "q2": "/a[not(b)]",
    "q3": "//a[@k = 'v' and b]",
}

DOCS = [
    "<a><b>1</b></a>",
    "<c/>",
    "<a><d/></a>",
    '<a k="v"><b>1</b><c/></a>',
    "<a><b>2</b></a>",
]

RUNTIMES = ("sets", "bitmask", "codegen")



def _early_options(runtime: str = "sets", **kwargs) -> XPushOptions:
    options = XPushOptions(top_down=True, early=True, **kwargs)
    return oracle.options_for(options, runtime)


def _config(kind: str, options: XPushOptions, dtd=None) -> EngineConfig:
    if kind == "sharded":
        return EngineConfig(
            engine="sharded", shards=2, parallel=False, options=options, dtd=dtd
        )
    if kind == "sharded-parallel":
        return EngineConfig(
            engine="sharded", shards=2, parallel=True, options=options, dtd=dtd
        )
    return EngineConfig(engine=kind, options=options, dtd=dtd)


def collect(engine, xml: str):
    """Filter *xml* with the hook wired; return (answers, emissions)."""
    emissions: list[tuple[str, int, int]] = []
    engine.on_match = lambda oid, doc, ev: emissions.append((oid, doc, ev))
    try:
        answers = engine.filter_stream(xml)
    finally:
        engine.on_match = None
    return answers, emissions


def assert_emissions_cover(answers, emissions, *, event_ordered: bool) -> None:
    """The three invariants: coverage, uniqueness, (optionally) order."""
    per_doc: dict[int, list[tuple[str, int]]] = {}
    for oid, doc, ev in emissions:
        per_doc.setdefault(doc, []).append((oid, ev))
    assert set(per_doc) <= set(range(len(answers))), "emission for unknown document"
    for index, matched in enumerate(answers):
        got = per_doc.get(index, [])
        oids = [oid for oid, _ in got]
        assert len(oids) == len(set(oids)), f"doc {index}: oid emitted twice"
        assert set(oids) == set(matched), f"doc {index}: emissions != answers"
        if event_ordered:
            events = [ev for _, ev in got]
            assert events == sorted(events), f"doc {index}: out of event order"


def _expected(workload, xml_docs):
    filters = [parse_xpath(source, oid) for oid, source in workload.items()]
    return [matching_oids(filters, parse_document(xml)) for xml in xml_docs]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("kind", ENGINES)
def test_emissions_equal_answers(kind, runtime):
    config = _config(kind, _early_options(runtime))
    with oracle.under(runtime), closing(create_engine(config, WORKLOAD)) as engine:
        answers, emissions = collect(engine, "".join(DOCS))
    assert answers == _expected(WORKLOAD, DOCS)
    assert_emissions_cover(answers, emissions, event_ordered=(kind != "sharded"))
    if kind != "sharded":
        doc_order = [doc for _, doc, _ in emissions]
        assert doc_order == sorted(doc_order), "documents out of stream order"


@pytest.mark.parametrize("runtime", ("sets", "codegen"))
def test_parallel_sharded_workers_stream_matches(runtime):
    """The worker-process path: matches cross the result queue as
    ``("match", ...)`` messages ahead of the batch reply.  The workers
    run the oracle only because they are forked inside its patch."""
    config = _config("sharded-parallel", _early_options(runtime))
    with oracle.under(runtime), closing(create_engine(config, WORKLOAD)) as engine:
        answers, emissions = collect(engine, "".join(DOCS))
    assert answers == _expected(WORKLOAD, DOCS)
    assert_emissions_cover(answers, emissions, event_ordered=False)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_emissions_on_a_generated_workload(runtime, protein, protein_docs):
    filters = make_workload(protein, 20, seed=77)
    config = EngineConfig(engine="xpush", options=_early_options(runtime), dtd=protein.dtd)
    with oracle.under(runtime):
        engine = create_engine(config, filters)
    xml = "".join(document_to_xml(doc) for doc in protein_docs[:8])
    try:
        answers, emissions = collect(engine, xml)
    finally:
        engine.close()
    assert answers == [matching_oids(filters, doc) for doc in protein_docs[:8]]
    assert_emissions_cover(answers, emissions, event_ordered=True)


@pytest.mark.parametrize("kind", ENGINES)
def test_hook_covers_answers_without_early_option(kind):
    """With ``early=False`` nothing is decided before end-of-document,
    but the hook still fires there — the hook is usable regardless of
    the machine option, it just fires later."""
    options = XPushOptions(top_down=True)
    engine = create_engine(_config(kind, options), WORKLOAD)
    try:
        answers, emissions = collect(engine, "".join(DOCS))
    finally:
        engine.close()
    assert answers == _expected(WORKLOAD, DOCS)
    assert_emissions_cover(answers, emissions, event_ordered=(kind != "sharded"))


def test_layered_updates_respect_emission_routing():
    """After unsubscribe/resubscribe the delta machine owns the oid:
    exactly one emission per (doc, oid) even while both layers match."""
    config = _config("layered", _early_options())
    with oracle.oracle_kernel(), closing(create_engine(config, WORKLOAD)) as engine:
        engine.unsubscribe("q1")
        engine.subscribe("q1", "//c")  # now lives in the delta layer
        engine.subscribe("q4", "//d")
        answers, emissions = collect(engine, "".join(DOCS))
    workload = dict(WORKLOAD)
    workload["q4"] = "//d"
    assert answers == _expected(workload, DOCS)
    assert_emissions_cover(answers, emissions, event_ordered=True)


@pytest.mark.parametrize("runtime", ("sets", "bitmask"))
def test_early_notifications_are_sound_on_positive_filters(runtime, protein, protein_docs):
    """When a match fires, not only which: each ``on_match`` already
    holds of the document prefix through its event, open elements
    closed.  On ``not``-free filters TD + early never runs ahead."""
    generated = make_workload(protein, 150, seed=3, prob_not=0.0, mean_predicates=1.15)
    filters = {f.oid: f for f in generated}
    with oracle.under(runtime):
        engine = create_engine(EngineConfig(options=_early_options(runtime)), generated)
    _, emitted = collect(engine, "".join(document_to_xml(doc) for doc in protein_docs))
    streams = [events_of_document(doc) for doc in protein_docs]
    assert sum(event < len(streams[doc]) - 1 for _, doc, event in emitted) > 100
    for oid, doc, event in emitted:
        prefix, stack = streams[doc][:-1][: event + 1], []
        for e in prefix:
            if type(e) is StartElement:
                stack.append(e.label)
            elif type(e) is EndElement:
                stack.pop()
        (closed,) = documents_of_events(prefix + [*map(EndElement, reversed(stack)), EndDocument()])
        assert evaluate_filter(filters[oid], closed), (oid, doc, event)

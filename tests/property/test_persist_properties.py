"""Property: persistence round-trips arbitrary generated workloads.

A workload persists as its XPath sources (an engine ``snapshot()``);
the automata compiled again from them must be the ones the original
filters compiled to, and answer alike."""

import json

from hypothesis import given, settings

from repro.afa.build import build_workload_automata
from repro.xpath.parser import parse_workload
from repro.xpath.semantics import matching_oids
from repro.xpush.layered import LayeredFilterEngine

from tests.property.test_machine_properties import documents, workloads


def _through_a_snapshot(filters) -> LayeredFilterEngine:
    snapshot = LayeredFilterEngine(filters).snapshot()
    restored = LayeredFilterEngine([])
    restored.restore(json.loads(json.dumps(snapshot)))
    return restored


@given(workloads())
@settings(max_examples=80, deadline=None)
def test_round_trip_preserves_structure(filters):
    original = build_workload_automata(filters)
    sources = _through_a_snapshot(filters).snapshot()["base"]
    rebuilt = build_workload_automata(parse_workload(sources))
    assert [afa.oid for afa in rebuilt.afas] == [afa.oid for afa in original.afas]
    assert rebuilt.state_count == original.state_count
    assert rebuilt.initial_sids == original.initial_sids
    assert rebuilt.terminals == original.terminals
    for a, b in zip(original.states, rebuilt.states):
        assert (a.kind, a.predicate, a.edges, a.eps, a.top_labels, a.rank) == (
            b.kind,
            b.predicate,
            b.edges,
            b.eps,
            b.top_labels,
            b.rank,
        )


@given(workloads(), documents)
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_answers(filters, document):
    if document.has_mixed_content():
        return
    restored = _through_a_snapshot(filters)
    assert restored.filter_document(document) == matching_oids(filters, document)

"""Medium-scale integration: independent engines agree on real streams.

The unit differential tests run tens of queries; this exercises the
machine at a few hundred queries over a multi-document stream, checked
against the structurally unrelated shared-path engine (so a common bug
in the automata layer cannot hide) — and across machine restarts via
the persistence layer.
"""

import json

import pytest

from repro.afa.build import build_workload_automata
from repro.baselines import SharedPathEngine
from repro.xmlstream.writer import document_to_xml
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import variant_options

from tests.conftest import make_workload


@pytest.mark.slow
def test_medium_scale_consistency(protein):
    filters = make_workload(
        protein, 300, seed=2026, mean_predicates=2.0,
        prob_or=0.1, prob_not=0.05, prob_nested=0.1,
        prob_descendant=0.05, prob_wildcard=0.02,
    )
    documents = list(protein.documents(20))
    stream = "".join(document_to_xml(d) for d in documents)

    workload = build_workload_automata(filters)
    machine = XPushMachine(
        workload, variant_options("TD-order-train"), dtd=protein.dtd
    )
    via_stream = machine.filter_stream(stream)

    shared = SharedPathEngine(filters)
    expected = [shared.filter_document(d) for d in documents]
    assert via_stream == expected

    # Restart from the persisted workload — an engine snapshot, which
    # holds the sources: identical answers again.
    original = LayeredFilterEngine(filters, variant_options("TD"))
    restarted = LayeredFilterEngine([], variant_options("TD"))
    restarted.restore(json.loads(json.dumps(original.snapshot())))
    assert restarted.filter_stream(stream) == expected

    # The stream matched a healthy number of (query, document) pairs —
    # the workload isn't vacuous.
    matches = sum(len(r) for r in expected)
    assert matches > 20
    assert machine.stats.hit_ratio > 0.5

"""Differential tests: every engine must equal the reference semantics.

This is the library's strongest correctness net — randomized workloads
(with wildcards, descendants, not/or, nesting) over both datasets,
checked for every optimisation combination, the eager machine and the
baselines.
"""

import pytest

from repro.afa.build import build_workload_automata
from repro.baselines import NaiveEngine, PerQueryEngine, SharedPathEngine
from repro.xpath.semantics import matching_oids
from repro.xpush.eager import EagerXPushMachine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

from tests.conftest import make_workload
from tests.scanner_oracle import scanning

ALL_OPTION_COMBOS = [
    XPushOptions(),
    XPushOptions(top_down=True),
    XPushOptions(order=True),
    XPushOptions(top_down=True, order=True),
    XPushOptions(top_down=True, early=True),
    XPushOptions(top_down=True, order=True, early=True),
    XPushOptions(top_down=True, train=True),
    XPushOptions(
        top_down=True, order=True, early=True, train=True
    ),
]


@pytest.mark.parametrize("options", ALL_OPTION_COMBOS, ids=lambda o: o.describe())
def test_all_variants_match_reference_protein(options, protein, protein_docs):
    filters = make_workload(protein, 40, seed=21)
    machine = XPushMachine(
        build_workload_automata(filters), options, dtd=protein.dtd
    )
    for doc in protein_docs:
        assert machine.filter_document(doc) == matching_oids(filters, doc)


@pytest.mark.parametrize(
    "options",
    [
        XPushOptions(),
        XPushOptions(top_down=True, order=True, early=True, train=True),
    ],
    ids=lambda o: o.describe(),
)
def test_variants_match_reference_on_recursive_nasa(options, nasa, nasa_docs):
    filters = make_workload(nasa, 30, seed=5, prob_descendant=0.25)
    machine = XPushMachine(build_workload_automata(filters), options, dtd=nasa.dtd)
    for doc in nasa_docs:
        assert machine.filter_document(doc) == matching_oids(filters, doc)


def test_eager_machine_matches_reference(protein, protein_docs):
    # Small workload only: the eager construction is exponential — the
    # very reason the paper computes the machine lazily (Sec. 4).
    filters = make_workload(
        protein, 3, seed=33, mean_predicates=1.0, prob_not=0.0, prob_nested=0.0,
        prob_or=0.0, prob_wildcard=0.0, prob_descendant=0.0,
    )
    eager = EagerXPushMachine(filters, max_states=200_000)
    for doc in protein_docs[:10]:
        assert eager.run(doc) == matching_oids(filters, doc)


def test_baselines_match_reference(protein, protein_docs):
    filters = make_workload(protein, 25, seed=55)
    engines = [NaiveEngine(filters), PerQueryEngine(filters), SharedPathEngine(filters)]
    for doc in protein_docs[:10]:
        want = matching_oids(filters, doc)
        for engine in engines:
            assert engine.filter_document(doc) == want, engine.name


def test_stream_and_document_paths_agree(protein):
    from repro.xmlstream.writer import document_to_xml

    filters = make_workload(protein, 20, seed=8)
    machine = XPushMachine(build_workload_automata(filters))
    docs = list(protein.documents(8))
    via_documents = [machine.filter_document(d) for d in docs]
    machine2 = XPushMachine(build_workload_automata(filters))
    stream = "".join(document_to_xml(d) for d in docs)
    via_stream = machine2.filter_stream(stream)
    assert via_documents == via_stream


@pytest.mark.parametrize("backend", ["python", "expat"])
@pytest.mark.parametrize("options", ALL_OPTION_COMBOS, ids=lambda o: o.describe())
def test_leaf_calls_equal_classic_triples(options, backend, protein, protein_docs):
    """The scanners send ``leaf`` to a machine; answered from the leaf
    memo it must equal the three classic events it stands for: the
    answers, every on_match emission, the states interned and the
    event count.  A second pass runs on warm leaf entries."""
    from repro.xmlstream.events import events_of_document
    from repro.xmlstream.writer import document_to_xml

    filters = make_workload(protein, 40, seed=21)
    stream = "".join(document_to_xml(doc) for doc in protein_docs)
    events = [event for doc in protein_docs for event in events_of_document(doc)]
    runs, lookups = [], []
    for drive in ("leaf", "triples"):
        machine = XPushMachine(build_workload_automata(filters), options, dtd=protein.dtd)
        emitted = []
        machine.on_match = lambda oid, doc, event: emitted.append((doc, event, oid))
        for _ in range(2):
            if drive == "leaf":
                with scanning(backend):
                    answers = machine.filter_stream(stream)
            else:
                answers = machine.process_events(events)
        runs.append((answers, sorted(emitted), machine.state_count, machine.stats.events))
        lookups.append(machine.stats.lookups)
    assert runs[0] == runs[1]
    assert lookups[0] < lookups[1]  # a leaf is one probe, its triple up to four


def test_shared_machine_vs_fresh_machines(protein, protein_docs):
    """Processing documents through one long-lived machine equals
    processing each with a fresh machine (state reuse is sound)."""
    filters = make_workload(protein, 25, seed=13)
    workload = build_workload_automata(filters)
    long_lived = XPushMachine(workload)
    for doc in protein_docs:
        fresh = XPushMachine(build_workload_automata(filters))
        assert long_lived.filter_document(doc) == fresh.filter_document(doc)

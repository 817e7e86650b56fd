"""End-to-end tests for the Sec. 2 string extension
(starts-with/contains) through the full machine pipeline."""

from repro.afa.build import build_workload_automata
from repro.xmlstream.dom import parse_document
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions


def test_machine_evaluates_string_functions():
    machine = XPushMachine.from_xpath(
        {
            "p": '/log[msg[starts-with(., "ERR")]]',
            "c": '/log[contains(msg, "timeout")]',
            "both": '/log[starts-with(msg, "ERR") and contains(msg, "disk")]',
        }
    )
    cases = [
        ("<log><msg>ERR: disk full</msg></log>", {"p", "both"}),
        ("<log><msg>WARN timeout on read</msg></log>", {"c"}),
        ("<log><msg>ERRtimeout</msg></log>", {"p", "c"}),
        ("<log><msg>ok</msg></log>", set()),
    ]
    for xml, want in cases:
        assert machine.filter_document(parse_document(xml)) == want, xml


def test_string_functions_share_the_aho_corasick_index():
    sources = {f"q{i}": f'/a[contains(t, "pat{i}")]' for i in range(6)}
    machine = XPushMachine.from_xpath(sources)
    doc = parse_document("<a><t>xxpat2yypat4zz</t></a>")
    assert machine.filter_document(doc) == {"q2", "q4"}
    # One lookup resolved all six patterns; the index holds them all.
    assert len(machine.index) == 6


def test_generated_string_function_workloads_differential(protein, protein_docs):
    generator = QueryGenerator(
        protein.dtd,
        protein.value_pool,
        GeneratorConfig(
            seed=3,
            mean_predicates=2.0,
            prob_string_function=0.8,
            prob_attribute_predicate=0.1,
        ),
    )
    filters = generator.generate(30)
    assert any(
        "starts-with" in f.source or "contains" in f.source for f in filters
    )
    for options in (
        XPushOptions(),
        XPushOptions(top_down=True, early=True),
    ):
        machine = XPushMachine(build_workload_automata(filters), options)
        for doc in protein_docs[:8]:
            assert machine.filter_document(doc) == matching_oids(filters, doc)


def test_generated_string_predicates_are_satisfiable(protein):
    from repro.xpath.semantics import evaluate_filter

    generator = QueryGenerator(
        protein.dtd,
        protein.value_pool,
        GeneratorConfig(
            seed=9, mean_predicates=1.0, prob_string_function=1.0,
            prob_attribute_predicate=0.0,
        ),
    )
    filters = generator.generate(15)
    docs = list(protein.documents(200))
    matched = {f.oid for f in filters for d in docs if evaluate_filter(f, d)}
    assert len(matched) >= len(filters) * 0.3

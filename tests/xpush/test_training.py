"""Tests for training-document generation (Sec. 5)."""

import random

from repro.afa.build import build_workload_automata
from repro.xmlstream.dtd import DTD, ElementDecl, PCDATA, elem, seq
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpath.semantics import evaluate_filter
from repro.xpush.training import satisfying_value, training_documents


def test_satisfying_values_numeric():
    cases = [("=", 4), (">", 4), (">=", 4), ("<", 4), ("<=", 4), ("!=", 4)]
    from repro.afa.predicates import compare

    for op, constant in cases:
        assert compare(satisfying_value(op, constant), op, constant), (op, constant)


def test_satisfying_values_string():
    from repro.afa.predicates import compare

    for op in ("=", "<", "<=", ">", ">=", "!=", "starts-with", "contains"):
        value = satisfying_value(op, "m")
        assert compare(value, op, "m"), (op, value)


def test_paper_training_example():
    """Sec. 5: /a[(b/text()=3 and @c=4) or d/text()=5] trains as
    <a c="4"> <b> 3 </b> <d> 5 </d> </a> — connectives ignored, all
    atoms embedded with satisfying values."""
    filters = parse_workload({"q": "/a[(b/text() = 3 and @c = 4) or d/text() = 5]"})
    workload = build_workload_automata(filters)
    (doc,) = list(training_documents(workload))
    root = doc.root
    assert root.label == "a"
    assert root.attribute("c") == "4"
    children = sorted(root.children, key=lambda e: e.label)
    assert [c.label for c in children] == ["b", "d"]
    assert [c.text for c in children] == ["3", "5"]


def test_training_document_satisfies_conjunctive_filter():
    sources = {
        "q1": "/a[b/text() = 1 and c/text() = 2]",
        "q2": "/a/b[@k = 'x']",
    }
    filters = parse_workload(sources)
    workload = build_workload_automata(filters)
    docs = list(training_documents(workload))
    assert len(docs) == 2
    by_oid = dict(zip(["q1", "q2"], docs))
    for oid, f in zip(sources, filters):
        assert evaluate_filter(f, by_oid[f.oid]), f.source


def test_descendant_expansion_uses_dtd():
    dtd = DTD(
        "r",
        [
            ElementDecl("r", seq(elem("m"))),
            ElementDecl("m", seq(elem("x", "?"))),
            ElementDecl("x", PCDATA),
        ],
    )
    filters = parse_workload({"q": "//x[text() = 'v']"})
    workload = build_workload_automata(filters)
    (doc,) = list(training_documents(workload, dtd))
    # // expanded through the DTD: r → m → x.
    assert doc.root.label == "r"
    assert doc.root.children[0].label == "m"
    assert doc.root.children[0].children[0].label == "x"
    assert evaluate_filter(filters[0], doc)


def test_dtd_ordering_of_children():
    dtd = DTD(
        "p",
        [
            ElementDecl("p", seq(elem("first"), elem("second"))),
            ElementDecl("first", PCDATA),
            ElementDecl("second", PCDATA),
        ],
    )
    # Query mentions them in the opposite order.
    filters = parse_workload({"q": "/p[second = 2 and first = 1]"})
    workload = build_workload_automata(filters)
    (doc,) = list(training_documents(workload, dtd))
    assert [c.label for c in doc.root.children] == ["first", "second"]


def test_training_stream_is_parseable(protein):
    from tests.conftest import make_workload
    from repro.xmlstream.dom import parse_forest
    from repro.xmlstream.writer import document_to_xml

    filters = make_workload(protein, 15, seed=2)
    workload = build_workload_automata(filters)
    documents = training_documents(workload, protein.dtd, random.Random(0))
    text = "".join(document_to_xml(doc) for doc in documents)
    docs = parse_forest(text)
    assert len(docs) >= 10

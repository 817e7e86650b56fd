"""Tests for the boolean simplification pass."""

from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_xpath
from repro.xpath.simplify import simplify_path


def simplified(source):
    return str(simplify_path(parse_xpath(source, "q").path))


def simplify_filter(xpath_filter):
    """*xpath_filter* over its simplified path, oid and source kept."""
    return XPathFilter(simplify_path(xpath_filter.path), xpath_filter.oid, xpath_filter.source)


def test_flatten_nested_and():
    assert simplified("/r[a and (b and c)]") == simplified("/r[a and b and c]")
    assert " and " in simplified("/r[a and (b and c)]")
    assert "(" not in simplified("/r[a and (b and c)]").replace("text()", "")


def test_flatten_nested_or():
    assert simplified("/r[(a or b) or c]") == simplified("/r[a or b or c]")


def test_duplicate_conjuncts_dropped():
    assert simplified("/r[a = 1 and a = 1]") == simplified("/r[a = 1]")
    assert simplified("/r[a or a or b]") == simplified("/r[a or b]")


def test_double_negation_eliminated():
    assert simplified("/r[not(not(a = 1))]") == simplified("/r[a = 1]")
    # Triple negation keeps exactly one not.
    assert simplified("/r[not(not(not(a)))]") == simplified("/r[not(a)]")


def test_duplicate_brackets_on_step():
    assert simplified("/r[a][a]") == simplified("/r[a]")


def test_recurses_into_nested_paths():
    # The duplication lives inside an Exists' inner predicate.
    source = "/r[x[b = 1 and (b = 1 and c = 2)]]"
    assert simplified(source) == simplified("/r[x[b = 1 and c = 2]]")


def test_idempotent():
    sources = [
        "/r[a and (b and (c or c)) and not(not(d = 1))]",
        "//a[b/text()=1 and .//a[@c>2]]",
    ]
    for source in sources:
        once = simplify_path(parse_xpath(source, "q").path)
        assert simplify_path(once) == once


def test_simplification_shrinks_afa():
    from repro.afa.build import build_workload_automata
    from repro.xpath.parser import parse_workload

    filters = parse_workload({"q": "/r[a = 1 and (a = 1 and a = 1)]"})
    plain = build_workload_automata(filters)
    slim = build_workload_automata([simplify_filter(f) for f in filters])
    assert slim.state_count < plain.state_count


def test_simplification_preserves_semantics(protein, protein_docs):
    from repro.xpath.semantics import matching_oids
    from tests.conftest import make_workload

    filters = make_workload(protein, 25, seed=71, prob_not=0.3, prob_or=0.3)
    simplified_filters = [simplify_filter(f) for f in filters]
    for doc in protein_docs[:8]:
        assert matching_oids(filters, doc) == matching_oids(simplified_filters, doc)

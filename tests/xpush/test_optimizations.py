"""Behavioural tests for the four Sec. 5 optimisations."""

import pytest

from repro.afa.build import build_workload_automata
from repro.xmlstream.dom import parse_document
from repro.xmlstream.dtd import DTD, AttributeDecl, ElementDecl, PCDATA, elem, seq
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.machine import XPushMachine, compute_precedence
from repro.xpush.options import XPushOptions

from tests.conftest import make_workload


def person_dtd():
    return DTD(
        "person",
        [
            ElementDecl(
                "person", seq(elem("name"), elem("age", "?"), elem("phone", "*"))
            ),
            ElementDecl("name", PCDATA),
            ElementDecl("age", PCDATA),
            ElementDecl("phone", PCDATA),
        ],
    )


# ----------------------------------------------------------------------
# Top-down pruning
# ----------------------------------------------------------------------


def test_top_down_prunes_false_leads():
    """The Sec. 5 motivating scenario: queries /ei[c/text()="ci"] and a
    document whose c elements all sit under e1 — without pruning, the
    machine manufactures states mixing predicates from every ei."""
    n = 6
    sources = {f"q{i}": f"/r/e{i}[c/text() = 'c{i}']" for i in range(n)}
    xml = "<r><e1>" + "".join(f"<c>c{i}</c>" for i in range(n)) + "</e1></r>"
    doc = parse_document(xml)

    plain = XPushMachine.from_xpath(sources)
    pruned = XPushMachine.from_xpath(
        sources, options=XPushOptions(top_down=True)
    )
    assert plain.filter_document(doc) == pruned.filter_document(doc) == {"q1"}
    assert pruned.state_count < plain.state_count
    assert pruned.average_state_size <= plain.average_state_size


def test_top_down_correct_with_descendants():
    sources = {"q": "//a[b = 1]"}
    xml = "<r><x><a><b>1</b></a></x></r>"
    pruned = XPushMachine.from_xpath(
        sources, options=XPushOptions(top_down=True)
    )
    assert pruned.filter_document(parse_document(xml)) == {"q"}


# ----------------------------------------------------------------------
# Order optimisation
# ----------------------------------------------------------------------


def test_order_reduces_states_on_flat_queries():
    """The Sec. 5 person example: with DTD order name ≺ age ≺ phone the
    machine should keep only prefix-closed predicate subsets."""
    dtd = person_dtd()
    sources = {
        "q": "/person[name/text() = 'Smith' and age/text() = '33'"
        " and phone/text() = '5551234']"
    }
    docs = [
        "<person><name>Smith</name><age>33</age><phone>5551234</phone></person>",
        "<person><name>John</name><age>33</age><phone>5551234</phone></person>",
        "<person><name>Smith</name><age>44</age><phone>5551234</phone></person>",
        "<person><name>Smith</name><age>33</age><phone>0</phone></person>",
        "<person><name>John</name><age>44</age><phone>0</phone></person>",
    ]
    plain = XPushMachine.from_xpath(dict(sources))
    ordered = XPushMachine.from_xpath(
        dict(sources), options=XPushOptions(order=True), dtd=dtd
    )
    for xml in docs:
        doc = parse_document(xml)
        assert plain.filter_document(doc) == ordered.filter_document(doc)
    assert ordered.state_count < plain.state_count


def test_precedence_relation_computed():
    dtd = person_dtd()
    filters = parse_workload(
        {"q": "/person[name = 'a' and age = 'b' and phone = 'c']"}
    )
    workload = build_workload_automata(filters)
    precedence = compute_precedence(workload, dtd)
    # age's branch requires name's; phone's requires name's and age's.
    sizes = sorted(len(v) for v in precedence.values())
    assert sizes == [1, 2]


def test_wildcard_branches_are_incomparable():
    dtd = person_dtd()
    filters = parse_workload({"q": "/person[* = 'a' and age = 'b']"})
    workload = build_workload_automata(filters)
    precedence = compute_precedence(workload, dtd)
    assert not precedence


# ----------------------------------------------------------------------
# Early notification
# ----------------------------------------------------------------------


def test_early_notification_on_linear_queries():
    machine = XPushMachine.from_xpath(
        {"q": "/a/b/c"},
        options=XPushOptions(top_down=True, early=True),
    )
    doc = parse_document("<a><b><c/><c/></b></a>")
    assert machine.filter_document(doc) == {"q"}


def test_early_notification_strips_states():
    sources = {"q": "/r/a[b = 1 and c = 2]", "p": "/r/x[y = 9]"}
    xml = "<r><a><b>1</b><c>2</c></a><x><y>8</y></x></r>"
    early = XPushMachine.from_xpath(
        sources, options=XPushOptions(top_down=True, early=True)
    )
    plain = XPushMachine.from_xpath(sources)
    doc = parse_document(xml)
    assert early.filter_document(doc) == plain.filter_document(doc) == {"q"}
    # After notification the accepted AFA's states stop travelling up:
    # the machine's stored states are smaller on average.
    assert early.average_state_size <= plain.average_state_size


def test_early_notification_with_descendant_queries():
    """The // case requires intersecting pops with the enabled set."""
    sources = {"q": "//a[b = 1]", "p": "//c//d"}
    early = XPushMachine.from_xpath(
        sources, options=XPushOptions(top_down=True, early=True)
    )
    for xml, expect in [
        ("<r><a><b>1</b></a></r>", {"q"}),
        ("<r><c><x><d/></x></c></r>", {"p"}),
        ("<a><b>1</b></a>", {"q"}),
        ("<d/>", frozenset()),
        ("<r><d><c/></d></r>", frozenset()),
    ]:
        assert early.filter_document(parse_document(xml)) == expect, xml


def test_early_notification_not_fooled_by_not(protein, protein_docs):
    from repro.xpath.semantics import matching_oids

    filters = make_workload(protein, 25, seed=77, prob_not=0.5)
    early = XPushMachine(
        build_workload_automata(filters),
        XPushOptions(top_down=True, early=True),
    )
    for doc in protein_docs:
        assert early.filter_document(doc) == matching_oids(filters, doc)


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------


def test_training_warms_the_machine(protein):
    filters = make_workload(
        protein, 30, seed=9, prob_not=0.0, prob_or=0.0, prob_wildcard=0.0,
        prob_descendant=0.0,
    )
    workload = build_workload_automata(filters)
    cold = XPushMachine(
        workload, XPushOptions(top_down=True), dtd=protein.dtd
    )
    warm = XPushMachine(
        workload,
        XPushOptions(top_down=True, train=True),
        dtd=protein.dtd,
    )
    assert warm.state_count > 1  # training created states up front
    docs = list(protein.documents(10))
    for doc in docs:
        assert cold.filter_document(doc) == warm.filter_document(doc)
    # The trained machine answers more lookups from cache on real data.
    assert warm.stats.hit_ratio >= cold.stats.hit_ratio - 0.02

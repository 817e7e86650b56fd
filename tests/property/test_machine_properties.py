"""Properties of the XPush machine: correctness vs. reference and
determinism, over hypothesis-generated documents and workloads."""

import string

from hypothesis import given, settings, strategies as st

from repro.afa.build import build_workload_automata
from repro.xmlstream.dom import Document, Element
from repro.xpath.ast import (
    And,
    Axis,
    Comparison,
    Exists,
    LocationPath,
    Not,
    NodeTest,
    NodeTestKind,
    Or,
    Step,
    XPathFilter,
)
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

# A small shared vocabulary keeps collisions (the interesting case) likely.
LABELS = ["a", "b", "c", "d"]
VALUES = ["1", "2", "x"]

labels = st.sampled_from(LABELS)
values = st.sampled_from(VALUES)


@st.composite
def elements(draw, depth=0):
    node = Element(draw(labels))
    n_attrs = draw(st.integers(0, 2))
    seen = set()
    for _ in range(n_attrs):
        name = draw(labels)
        if name not in seen:
            seen.add(name)
            node.attributes.append((name, draw(values)))
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            node.text = draw(values)
        return node
    node.children = draw(st.lists(elements(depth=depth + 1), max_size=3))
    return node


documents = elements().map(Document)


@st.composite
def relative_paths(draw):
    steps = []
    for _ in range(draw(st.integers(1, 2))):
        steps.append(
            Step(
                draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT])),
                NodeTest(NodeTestKind.NAME, draw(labels)),
            )
        )
    if draw(st.booleans()):
        steps.append(Step(Axis.CHILD, NodeTest(NodeTestKind.TEXT)))
    elif draw(st.booleans()):
        steps[-1] = Step(
            steps[-1].axis, NodeTest(NodeTestKind.ATTRIBUTE, "@" + draw(labels))
        )
    return LocationPath(tuple(steps))


@st.composite
def boolean_exprs(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        path = draw(relative_paths())
        if draw(st.booleans()):
            constant = draw(st.sampled_from([1, 2, "x", "1"]))
            op = draw(st.sampled_from(["=", "!=", "<", ">"]))
            return Comparison(path, op, constant)
        return Exists(path)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(boolean_exprs(depth=depth + 1)))
    children = tuple(
        draw(boolean_exprs(depth=depth + 1)) for _ in range(draw(st.integers(2, 3)))
    )
    return And(children) if kind == "and" else Or(children)


@st.composite
def filters(draw, oid="q0"):
    steps = []
    for i in range(draw(st.integers(1, 3))):
        axis = Axis.DESCENDANT if draw(st.booleans()) else Axis.CHILD
        predicates = tuple(
            draw(boolean_exprs()) for _ in range(draw(st.integers(0, 2)))
        )
        steps.append(Step(axis, NodeTest(NodeTestKind.NAME, draw(labels)), predicates))
    path = LocationPath(tuple(steps), absolute=True)
    return XPathFilter(path, oid=oid, source=str(path))


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 4))
    return [draw(filters(oid=f"q{i}")) for i in range(n)]


@given(workloads(), st.lists(documents, min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_machine_equals_reference(workload, docs):
    machine = XPushMachine(build_workload_automata(workload))
    for doc in docs:
        if doc.has_mixed_content():
            continue
        assert machine.filter_document(doc) == matching_oids(workload, doc)


@given(workloads(), st.lists(documents, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_top_down_early_equals_reference(workload, docs):
    machine = XPushMachine(
        build_workload_automata(workload),
        XPushOptions(top_down=True, early=True),
    )
    for doc in docs:
        if doc.has_mixed_content():
            continue
        assert machine.filter_document(doc) == matching_oids(workload, doc)


@given(workloads(), documents)
@settings(max_examples=60, deadline=None)
def test_machine_is_deterministic(workload, doc):
    if doc.has_mixed_content():
        return
    a = XPushMachine(build_workload_automata(workload))
    b = XPushMachine(build_workload_automata(workload))
    assert a.filter_document(doc) == b.filter_document(doc)
    assert a.state_count == b.state_count
    assert a.average_state_size == b.average_state_size


@given(workloads(), documents)
@settings(max_examples=40, deadline=None)
def test_reprocessing_creates_no_new_states(workload, doc):
    if doc.has_mixed_content():
        return
    machine = XPushMachine(build_workload_automata(workload))
    first = machine.filter_document(doc)
    states = machine.state_count
    assert machine.filter_document(doc) == first
    assert machine.state_count == states

"""Tests for the Graphviz export."""

from repro.afa.build import build_workload_automata
from repro.afa.dot import afa_to_dot, machine_states_to_dot
from repro.xmlstream.dom import parse_document
from repro.xpush.machine import XPushMachine


def test_afa_dot_structure(running_filters):
    workload = build_workload_automata(running_filters)
    dot = afa_to_dot(workload)
    assert dot.startswith("digraph")
    assert dot.count("subgraph cluster_") == 2  # one per filter
    assert "o1" in dot and "o2" in dot
    # All 13 AFA states present, AND states boxed, terminals doubled.
    for sid in range(13):
        assert f"n{sid} [" in dot
    assert "shape=box" in dot
    assert "shape=doublecircle" in dot
    assert "ε" in dot
    # Balanced braces → parseable by graphviz.
    assert dot.count("{") == dot.count("}")


def test_afa_dot_with_top_edges():
    workload = build_workload_automata(
        __import__("repro.xpath.parser", fromlist=["parse_workload"]).parse_workload(
            {"q": "/a[b]"}
        )
    )
    dot = afa_to_dot(workload)
    assert "⊤" in dot


def test_machine_states_dot(running_filters, running_document):
    machine = XPushMachine.from_filters(running_filters)
    machine.filter_document(running_document)
    dot = machine_states_to_dot(machine)
    assert dot.startswith("digraph")
    assert "pop" in dot
    assert "accepts" in dot  # the final state accepts o1,o2
    assert dot.count("{") == dot.count("}")


def test_machine_states_dot_with_early_pop_keys(running_filters, running_document):
    from repro.xpush.options import XPushOptions

    machine = XPushMachine.from_filters(
        running_filters,
        options=XPushOptions(top_down=True, early=True),
    )
    machine.filter_document(running_document)
    dot = machine_states_to_dot(machine)
    # Early mode stores tuple pop keys; the exporter renders the label part.
    assert "pop" in dot
    assert dot.count("{") == dot.count("}")


def test_machine_states_dot_cap(running_filters, running_document):
    machine = XPushMachine.from_filters(running_filters)
    machine.filter_document(running_document)
    dot = machine_states_to_dot(machine, max_states=2)
    assert dot.count("[label=") <= 2 + dot.count("->")

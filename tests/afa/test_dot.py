"""Tests for the Graphviz export."""

from repro.afa.build import build_workload_automata
from repro.afa.dot import afa_to_dot


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

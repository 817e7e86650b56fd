"""Tests for the XPath → AFA compiler against the paper's Fig. 4."""

import gc
import sys

import pytest

from repro.afa.automaton import StateKind, bits_of
from repro.afa.build import build_afa, build_workload_automata
from repro.bench.workloads import standard_workload
from repro.errors import WorkloadError
from repro.xpath.parser import parse_xpath

from tests import oracle


def build(sources):
    if isinstance(sources, str):
        sources = [sources]
    return build_workload_automata(
        [parse_xpath(s, f"o{i+1}") for i, s in enumerate(sources)]
    )


def test_running_example_matches_fig4(running_filters):
    workload = build_workload_automata(running_filters)
    a1, a2 = workload.afas
    # Fig. 4: A1 has 7 states (1..7), A2 has 6 states (8..13).
    assert len(a1.state_sids) == 7
    assert len(a2.state_sids) == 6
    assert workload.state_count == 13

    states = workload.states
    init1 = states[a1.initial]
    # initial state: OR with a *-self-loop (//) and an `a` edge to the AND
    assert init1.kind is StateKind.OR
    assert init1.edges["*"] == (init1.sid,)
    (and_sid,) = init1.edges["a"]
    and_state = states[and_sid]
    assert and_state.kind is StateKind.AND
    assert len(and_state.eps) == 2

    # One branch: b → terminal(=1); other: *-loop OR with a → @c → terminal(>2)
    kinds = sorted(
        (states[child].kind.name, bool(states[child].edges.get("b")))
        for child in and_state.eps
    )
    assert ("OR", True) in kinds

    terminals = [states[sid] for sid in workload.terminals]
    predicates = sorted(str(t.predicate) for t in terminals)
    assert predicates == ["= 1", "= 1", "> 2", "> 2"]


def test_notification_states_of_running_example(running_filters):
    workload = build_workload_automata(running_filters)
    # Example from Sec. 5: "the first branching state in A1 is 2, and in
    # A2 is 9" — i.e. each filter's AND state.
    for afa in workload.afas:
        assert workload.states[afa.notification].kind is StateKind.AND


def test_linear_path_compiles_to_top_edges():
    workload = build("//a/b")
    (afa,) = workload.afas
    assert not workload.terminals  # existence only, no predicate terminals
    assert "b" in workload.masks.top_rows()
    # Notification of a linear existence filter: the state owning the ⊤ edge.
    note = workload.states[afa.notification]
    assert "b" in note.top_labels


def test_existence_predicate_uses_top_edge():
    workload = build("/a[b]")
    assert "b" in workload.masks.top_rows()


def test_text_absorbed_into_terminal():
    workload = build("/a[b/text() = 1]")
    # Fig. 4 encoding: nav --b--> terminal; no separate text() state.
    terminal_sid = workload.terminals[0]
    sources = oracle.reverse_edges(workload)[terminal_sid]
    assert "b" in sources


def test_attribute_comparison():
    workload = build("//x[@k >= 10]")
    terminal_sid = workload.terminals[0]
    assert "@k" in oracle.reverse_edges(workload)[terminal_sid]


def test_not_state_created():
    workload = build("/a[not(b = 1)]")
    (not_sid,) = bits_of(workload.masks.not_mask)
    not_state = workload.states[not_sid]
    assert len(not_state.eps) == 1


def test_or_connective():
    workload = build("/a[b = 1 or c = 2]")
    ors = [
        s
        for s in workload.states
        if s.kind is StateKind.OR and len(s.eps) == 2
    ]
    assert len(ors) == 1


def test_descendant_text():
    workload = build("/a[.//b//text() = 3]")
    # a//text() shape: OR with *-loop and an ε to the terminal
    terminal_sid = workload.terminals[0]
    parents = [
        s for s in workload.states if terminal_sid in s.eps
    ]
    assert len(parents) == 1
    assert parents[0].edges.get("*") == (parents[0].sid,)


def test_trivially_true_filter_rejected():
    with pytest.raises(WorkloadError):
        build("/.")


def test_duplicate_oids_rejected():
    f = parse_xpath("/a", "same")
    g = parse_xpath("/b", "same")
    with pytest.raises(WorkloadError):
        build_workload_automata([f, g])


def test_owner_assignment(running_filters):
    workload = build_workload_automata(running_filters)
    for i, afa in enumerate(workload.afas):
        for sid in afa.state_sids:
            assert workload.states[sid].owner == i


def test_wildcard_steps():
    workload = build("/*/a[@* = 'x']")
    init = workload.states[workload.afas[0].initial]
    assert "*" in init.edges
    terminal = workload.states[workload.terminals[0]]
    assert "@*" in oracle.reverse_edges(workload)[terminal.sid]


def test_a_compiled_workload_leaves_its_containers_untracked():
    """Every state's containers hold atoms only, so one full collection
    untracks them all: the collector walks the states, not their edges.
    CPython before 3.14 also untracks a dict of atoms; 3.14 tracks every
    dict, so the ``edges`` maps themselves are checked only before it."""
    filters, _ = standard_workload(2000, mean_predicates=1.15)
    shapes = ["/a[not(b) or c = 1]", "/a[b and .//c//text() = 2]", "//*/a[@* and not(d)]"]
    filters += [parse_xpath(source, f"shape{i}") for i, source in enumerate(shapes)]
    workload = build_workload_automata(filters)
    gc.collect()
    states = workload.states
    assert not any(gc.is_tracked(s.eps) or gc.is_tracked(s.top_labels) for s in states)
    assert not any(gc.is_tracked(targets) for s in states for targets in s.edges.values())
    if sys.version_info < (3, 14):
        assert not any(gc.is_tracked(s.edges) for s in states)

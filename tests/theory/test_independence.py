"""Tests for Sec. 6: relations, independence graph, Theorem 6.1."""

from repro.afa.build import build_workload_automata
from repro.afa.predicates import AtomicPredicate
from repro.theory.independence import (
    IndependenceAnalysis,
    Relation,
    count_cliques,
    predicate_relation,
)
from repro.xpath.parser import parse_workload
from repro.xpush.eager import EagerXPushMachine
from repro.xpush.machine import XPushMachine


def P(op, constant):
    return AtomicPredicate(op, constant)


def test_predicate_relations_numeric():
    assert predicate_relation(P("=", 1), P("=", 1)) is Relation.EQUIVALENT
    assert predicate_relation(P("=", 1), P("=", 2)) is Relation.INCONSISTENT
    assert predicate_relation(P("=", 3), P(">", 2)) is Relation.SUBSUMES
    assert predicate_relation(P(">", 2), P("=", 3)) is Relation.SUBSUMED
    assert predicate_relation(P(">", 5), P(">=", 5)) is Relation.SUBSUMES
    assert predicate_relation(P("<", 2), P(">", 4)) is Relation.INCONSISTENT
    assert predicate_relation(P(">", 2), P("<", 5)) is Relation.INDEPENDENT
    assert predicate_relation(P("!=", 1), P("=", 1)) is Relation.INCONSISTENT
    assert predicate_relation(P("=", 1), P("!=", 2)) is Relation.SUBSUMES


def test_predicate_relations_strings():
    assert predicate_relation(P("=", "abc"), P("=", "abc")) is Relation.EQUIVALENT
    assert predicate_relation(P("=", "a"), P("=", "b")) is Relation.INCONSISTENT
    assert predicate_relation(P("=", "b"), P(">", "a")) is Relation.SUBSUMES
    assert predicate_relation(P("<", "b"), P("<", "c")) is Relation.SUBSUMES
    assert predicate_relation(P(">", "x"), P("<", "c")) is Relation.INCONSISTENT


def test_true_predicate_subsumption():
    assert predicate_relation(P("=", 1), AtomicPredicate.TRUE) is Relation.SUBSUMES
    assert predicate_relation(AtomicPredicate.TRUE, P("=", 1)) is Relation.SUBSUMED


def test_paper_example_relations(running_filters):
    """Sec. 6 on Fig. 4: 8 ⇒ 5; 4 ⇔ 13; 4 | s for non-terminal s."""
    workload = build_workload_automata(running_filters)
    analysis = IndependenceAnalysis(workload)
    terminals = list(workload.terminals)
    eq1 = [
        sid for sid in terminals
        if workload.states[sid].predicate == AtomicPredicate("=", 1)
    ]
    # 4 ⇔ 13: the two =1 terminals are equivalent.
    assert analysis.relation(eq1[0], eq1[1]) is Relation.EQUIVALENT
    # terminal vs. any navigation state: inconsistent.
    nav = workload.afas[0].initial
    assert analysis.relation(eq1[0], nav) is Relation.INCONSISTENT
    # The paper's 8 ⇒ 5 (structurally identical //-loop states in our
    # conservative analysis: the two `.//a[@c>2]` navigation states of
    # P1 and P2 are equivalent).
    equivalents = [
        (a.sid, b.sid)
        for a in workload.states
        for b in workload.states
        if a.sid < b.sid
        and not a.is_terminal
        and not b.is_terminal
        and analysis.relation(a.sid, b.sid) is Relation.EQUIVALENT
    ]
    assert equivalents  # cross-AFA structural sharing detected


def test_count_cliques_small_graphs():
    # Triangle: cliques = {} + 3 singles + 3 pairs + 1 triple = 8.
    triangle = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    assert count_cliques(triangle) == 8
    # No edges: empty + singletons.
    assert count_cliques({0: set(), 1: set()}) == 3
    # Path 0-1-2: {} +3 +2 = 6.
    assert count_cliques({0: {1}, 1: {0, 2}, 2: {1}}) == 6


def test_theorem_61_bound_on_running_example(running_filters):
    """The number of accessible eager states (22) must not exceed the
    clique count of the independence graph."""
    eager = EagerXPushMachine(running_filters)
    analysis = IndependenceAnalysis(eager.workload)
    bound = analysis.clique_bound()
    assert eager.state_count <= bound


def test_theorem_61_bound_on_small_workloads(protein, protein_docs):
    from tests.conftest import make_workload

    filters = make_workload(
        protein, 4, seed=17, mean_predicates=1.0, prob_not=0.0, prob_or=0.0,
        prob_nested=0.0, prob_wildcard=0.0, prob_descendant=0.0,
    )
    machine = XPushMachine.from_filters(filters)
    for doc in protein_docs:
        machine.filter_document(doc)
    analysis = IndependenceAnalysis(machine.workload)
    assert machine.state_count <= analysis.clique_bound(limit=50_000_000)


# -- hypothesis properties over the relation algebra -------------------

_CONVERSE = {
    Relation.EQUIVALENT: Relation.EQUIVALENT,
    Relation.INCONSISTENT: Relation.INCONSISTENT,
    Relation.INDEPENDENT: Relation.INDEPENDENT,
    Relation.SUBSUMES: Relation.SUBSUMED,
    Relation.SUBSUMED: Relation.SUBSUMES,
}


def _predicate_strategy():
    import hypothesis.strategies as st

    ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    constants = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(["a", "b", "c"]),
    )
    return st.builds(P, ops, constants)


def test_predicate_relation_is_reflexive_and_converse_symmetric():
    from hypothesis import given, settings

    @settings(max_examples=200, deadline=None)
    @given(_predicate_strategy(), _predicate_strategy())
    def check(p, q):
        assert predicate_relation(p, p) is Relation.EQUIVALENT
        assert predicate_relation(q, p) is _CONVERSE[predicate_relation(p, q)]

    check()


def test_predicate_relation_agrees_with_witness_evaluation():
    """The declared relation must hold pointwise on a witness grid: a
    SUBSUMES answer with a counterexample value is a soundness bug."""
    from hypothesis import given, settings

    def holds(pred, value):
        return pred.test(value)

    # Raw data values as the machine sees them (π_s over strings, with
    # numeric coercion inside `test`).
    witnesses = ["-4", "-1", "0", "1", "2", "3", "4", "", "a", "ab", "b", "c", "d"]

    @settings(max_examples=200, deadline=None)
    @given(_predicate_strategy(), _predicate_strategy())
    def check(p, q):
        relation = predicate_relation(p, q)
        both = [w for w in witnesses if holds(p, w) and holds(q, w)]
        only_p = [w for w in witnesses if holds(p, w) and not holds(q, w)]
        only_q = [w for w in witnesses if holds(q, w) and not holds(p, w)]
        if relation is Relation.EQUIVALENT:
            assert not only_p and not only_q
        elif relation is Relation.INCONSISTENT:
            assert not both
        elif relation is Relation.SUBSUMES:  # p ⇒ q
            assert not only_p
        elif relation is Relation.SUBSUMED:  # q ⇒ p
            assert not only_q

    check()


def _brute_clique_count(adjacency):
    """Count cliques (incl. the empty one) by subset enumeration."""
    from itertools import combinations

    nodes = sorted(adjacency)
    count = 1  # the empty clique
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if all(
                b in adjacency[a] for a, b in combinations(subset, 2)
            ):
                count += 1
    return count


def test_count_cliques_matches_brute_force_on_random_graphs():
    from hypothesis import given, settings
    import hypothesis.strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def check(n, data):
        adjacency = {i: set() for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if data.draw(st.booleans(), label=f"edge {i}-{j}"):
                    adjacency[i].add(j)
                    adjacency[j].add(i)
        assert count_cliques(adjacency) == _brute_clique_count(adjacency)

    check()


def test_theorem_61_bound_on_hypothesis_workloads(protein):
    """Theorem 6.1 as a property: for random small generated workloads
    the eager construction never exceeds the clique bound."""
    from hypothesis import given, settings
    import hypothesis.strategies as st

    from tests.conftest import make_workload

    from repro.xpush.eager import BudgetExceeded

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    def check(count, seed):
        filters = make_workload(
            protein, count, seed=seed, mean_predicates=1.0,
            prob_not=0.0, prob_or=0.0, prob_nested=0.0,
            prob_wildcard=0.0, prob_descendant=0.0,
        )
        try:
            eager = EagerXPushMachine(filters, max_states=20_000)
        except BudgetExceeded:
            return  # the bound is about machines that fit the budget
        bound = IndependenceAnalysis(eager.workload).clique_bound(limit=50_000_000)
        assert eager.state_count <= bound

    check()

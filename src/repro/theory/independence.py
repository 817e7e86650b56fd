"""Independence graph and the clique bound (Theorem 6.1).

Definitions (Sec. 6, borrowed from Hoffmann & O'Donnell's tree pattern
matching): for AFA states s, s′

- s **subsumes** s′ (s ⇒ s′) when every node matched by s is matched
  by s′;
- s and s′ are **inconsistent** (s | s′) when no node matches both;
- otherwise — no subsumption either way and not inconsistent — they
  are **independent**.

Theorem 6.1: the number of accessible XPush states is at most the
number of cliques in the independence graph (each accessible state,
after dropping subsumed members, forms a clique).

Deciding the relations exactly is as hard as query containment, so this
module computes a *sound under-approximation* of subsumption and
inconsistency (and therefore an over-approximation of independence):

- terminal vs. terminal: exact, by elementary-interval analysis of the
  two atomic predicates (every truth pattern over the real line / the
  string order is witnessed by a finite candidate set);
- terminal vs. non-terminal: inconsistent — a terminal matches only
  data values, a navigation state only elements (the paper's "4 | s
  for every state s ≠ 13, since we assume … no mixed content");
- non-terminal vs. non-terminal: structural equivalence (identical
  subautomata match the same nodes — mutual subsumption), otherwise
  independent.

Sound claims keep the theorem's bound valid: every truly-independent
pair keeps its edge, so accessible states still map to cliques.
"""

from __future__ import annotations

import enum
import itertools
from typing import Hashable, Sequence

from repro.afa.automaton import AfaState, StateKind, WorkloadAutomata
from repro.afa.predicates import AtomicPredicate
from repro.errors import ReproError


class Relation(enum.Enum):
    EQUIVALENT = "equivalent"  # s ⇒ s' and s' ⇒ s
    SUBSUMES = "subsumes"  # s ⇒ s'
    SUBSUMED = "subsumed"  # s' ⇒ s
    INCONSISTENT = "inconsistent"  # s | s'
    INDEPENDENT = "independent"


# ----------------------------------------------------------------------
# Exact relations between atomic predicates
# ----------------------------------------------------------------------


def _numeric_witnesses(a: float, b: float) -> list[str]:
    lo, hi = min(a, b), max(a, b)
    points = [lo - 1.0, lo, (lo + hi) / 2.0 if lo != hi else lo + 0.5, hi, hi + 1.0]
    return [repr(p) for p in points]


def _string_witnesses(a: str, b: str) -> list[str]:
    lo, hi = min(a, b), max(a, b)
    return ["", lo, lo + "\x00", hi, hi + "\x00"]


def predicate_relation(p: AtomicPredicate, q: AtomicPredicate) -> Relation:
    """Exact relation between two relational atomic predicates; string
    operators (contains/starts-with) are conservatively independent
    unless identical."""
    if p == q:
        return Relation.EQUIVALENT
    if p.op in ("contains", "starts-with") or q.op in ("contains", "starts-with"):
        return Relation.INDEPENDENT
    if p.is_true or q.is_true:
        if p.is_true and q.is_true:
            return Relation.EQUIVALENT
        return Relation.SUBSUMED if p.is_true else Relation.SUBSUMES
    if p.is_numeric != q.is_numeric:
        # A numeric predicate is false on every non-numeric value and a
        # string predicate may hold on numerals too; the safe exact-ish
        # answer on the shared (numeric-literal) domain is undecided —
        # claim independence, which is always sound for the bound.
        return Relation.INDEPENDENT
    if p.is_numeric:
        witnesses = _numeric_witnesses(float(p.constant), float(q.constant))
    else:
        witnesses = _string_witnesses(p.constant, q.constant)
    p_only = q_only = both = neither = 0
    for value in witnesses:
        tp, tq = p.test(value), q.test(value)
        if tp and tq:
            both += 1
        elif tp:
            p_only += 1
        elif tq:
            q_only += 1
        else:
            neither += 1
    if both == 0:
        return Relation.INCONSISTENT
    if p_only == 0 and q_only == 0:
        return Relation.EQUIVALENT
    if p_only == 0:
        return Relation.SUBSUMES  # sat(p) ⊆ sat(q)
    if q_only == 0:
        return Relation.SUBSUMED
    return Relation.INDEPENDENT


# ----------------------------------------------------------------------
# Structural equivalence of non-terminal states
# ----------------------------------------------------------------------


def _structure_key(workload: WorkloadAutomata, sid: int, memo: dict[int, Hashable]) -> Hashable:
    """Hash-consing key: two states with equal keys match the same
    nodes (identical subautomata)."""
    known = memo.get(sid)
    if known is not None:
        return known
    memo[sid] = ("cycle", sid)  # self-loops via '*' handled below
    state = workload.states[sid]
    edge_keys = []
    for label in sorted(state.edges):
        targets = []
        for target in state.edges[label]:
            if target == sid:
                targets.append("self")
            else:
                targets.append(_structure_key(workload, target, memo))
        edge_keys.append((label, tuple(sorted(map(repr, targets)))))
    eps_keys = tuple(
        sorted(repr(_structure_key(workload, child, memo)) for child in state.eps)
    )
    key = (
        state.kind.name,
        repr(state.predicate) if state.predicate else None,
        tuple(edge_keys),
        eps_keys,
        tuple(sorted(state.top_labels)),
    )
    memo[sid] = key
    return key


# ----------------------------------------------------------------------
# The analysis object
# ----------------------------------------------------------------------


class IndependenceAnalysis:
    """Pairwise relations and the independence graph of a workload."""

    def __init__(self, workload: WorkloadAutomata):
        self.workload = workload
        self._structure: dict[int, Hashable] = {}
        for state in workload.states:
            _structure_key(workload, state.sid, self._structure)

    def relation(self, sid_a: int, sid_b: int) -> Relation:
        a = self.workload.states[sid_a]
        b = self.workload.states[sid_b]
        if a.is_terminal and b.is_terminal:
            return predicate_relation(a.predicate, b.predicate)
        if a.is_terminal or b.is_terminal:
            return Relation.INCONSISTENT  # data values vs. elements
        if self._structure[sid_a] == self._structure[sid_b]:
            return Relation.EQUIVALENT
        return Relation.INDEPENDENT

    def independent(self, sid_a: int, sid_b: int) -> bool:
        return self.relation(sid_a, sid_b) is Relation.INDEPENDENT

    def independence_graph(self) -> dict[int, set[int]]:
        """Adjacency sets over all AFA sids (vertices without edges
        included)."""
        sids = [s.sid for s in self.workload.states]
        adjacency: dict[int, set[int]] = {sid: set() for sid in sids}
        for sid_a, sid_b in itertools.combinations(sids, 2):
            if self.independent(sid_a, sid_b):
                adjacency[sid_a].add(sid_b)
                adjacency[sid_b].add(sid_a)
        return adjacency

    def clique_bound(self, limit: int = 10_000_000) -> int:
        """Theorem 6.1's bound: the number of cliques (including the
        empty clique, for q0) in the independence graph."""
        return count_cliques(self.independence_graph(), limit)


def count_cliques(adjacency: dict[int, set[int]], limit: int = 10_000_000) -> int:
    """Count *all* cliques of the graph, the empty clique included.

    Exponential in general — Theorem 6.1 is checked on small workloads
    only; raises :class:`ReproError` past *limit*.
    """
    nodes = sorted(adjacency)
    total = 1  # the empty clique (q0 = ∅ maps to it)

    def grow(candidates: Sequence[int]) -> int:
        nonlocal total
        count = 0
        for i, vertex in enumerate(candidates):
            total += 1
            if total > limit:
                raise ReproError(f"clique count exceeded {limit}")
            rest = [u for u in candidates[i + 1 :] if u in adjacency[vertex]]
            count += 1 + grow(rest)
        return count

    grow(nodes)
    return total

"""The frozenset reference the differential walls diff against: the
paper's set algebra (Sec. 3.2) over ``workload.states``, reading no
compiled table, as functions over sid sets and as :class:`OracleKernel`
(:func:`oracle_kernel`); the walls' id for it is ``"sets"``."""

from __future__ import annotations

import weakref
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import replace
from typing import Iterable, Iterator

import pytest

from repro.afa.automaton import ATTRIBUTE_WILDCARD, WILDCARD, StateKind, WorkloadAutomata, bits_of
from repro.xpush.kernels import EMPTY_OIDS, Precedence, mask_of
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

ORACLE = "sets"  # the oracle's parametrize id in the walls
_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _views(workload: WorkloadAutomata) -> tuple:
    """``(states, NOT sids, label -> ⊤-edge owners, δ⁻¹ rows,
    ε-parents)``, derived from ``workload.states`` once per size of the
    (only growing) workload."""
    views = _VIEWS.get(workload)
    if views is None or views[0] != len(workload.states):
        states = workload.states
        top: dict[str, list[int]] = {}
        rev: list[dict[str, list[int]]] = [{} for _ in states]
        parents: list[list[int]] = [[] for _ in states]
        for state in states:  # in sid order, so every source list is sorted
            for label in state.top_labels:
                top.setdefault(label, []).append(state.sid)
            for label, targets in state.edges.items():
                for target in targets:
                    rev[target].setdefault(label, []).append(state.sid)
            for child in state.eps:
                parents[child].append(state.sid)
        nots = tuple(s.sid for s in states if s.kind is StateKind.NOT)
        rows = [{label: tuple(sources) for label, sources in row.items()} for row in rev]
        views = _VIEWS[workload] = (len(states), nots, top, rows, parents)
    return views


def reverse_edges(workload: WorkloadAutomata) -> list[dict[str, tuple[int, ...]]]:
    """δ⁻¹ per sid: label -> the sids with an edge so labelled into it."""
    return _views(workload)[3]


def eps_parents(workload: WorkloadAutomata) -> list[list[int]]:
    """Per sid, the states with an ε-arc into it."""
    return _views(workload)[4]


def eval_closure(workload: WorkloadAutomata, qb: Iterable[int]) -> frozenset[int]:
    """eval(q) of Sec. 3.2: saturate *qb* with all logically implied
    connective states.  AND fires when all ε-successors are present,
    OR when some is, NOT when its successor is absent.  Connectives are
    visited in ε-rank order, so nested ones — ``not(not(Q))`` too —
    settle in one pass."""
    states, not_sids = workload.states, _views(workload)[1]
    parents = eps_parents(workload)
    result = set(qb)
    # Candidates: every NOT state (they fire on absence), plus the
    # upward ε-closure of the present states and of the NOTs.
    candidates = set(not_sids)
    stack = [*result, *not_sids]
    seen = set(stack)
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                candidates.add(parent)
                stack.append(parent)
    for sid in sorted(candidates - result, key=lambda s: states[s].rank):
        state = states[sid]
        if state.kind is StateKind.AND:
            fires = all(child in result for child in state.eps)
        elif state.kind is StateKind.NOT:
            fires = state.eps[0] not in result
        else:  # OR with ε-successors
            fires = any(child in result for child in state.eps)
        if fires:
            result.add(sid)
    return frozenset(result)


def delta_inverse(
    workload: WorkloadAutomata, evaluated: Iterable[int], label: str, is_attribute: bool
) -> set[int]:
    """δ⁻¹(q, a) = {s' | δ(s', a) ∩ q ≠ ∅}, plus the ⊤-edge states for
    *label* (an element labelled *a* closing witnesses existence edges
    on *a*)."""
    wildcard = ATTRIBUTE_WILDCARD if is_attribute else WILDCARD
    top, rows = _views(workload)[2], reverse_edges(workload)
    out = set(top.get(label, ())).union(top.get(wildcard, ()))
    for sid in evaluated:
        rev = rows[sid]
        if label in rev or wildcard in rev:
            out.update(rev.get(label, ()), rev.get(wildcard, ()))
    return out


def push_targets(
    workload: WorkloadAutomata, enabled: Iterable[int], label: str, is_attribute: bool
) -> set[int]:
    """Forward step for top-down pruning: the states enabled on a child
    labelled *label* given the parent's enabled set (before closure)."""
    wildcard = ATTRIBUTE_WILDCARD if is_attribute else WILDCARD
    out: set[int] = set()
    for sid in enabled:
        edges = workload.states[sid].edges
        if label in edges or wildcard in edges:
            out.update(edges.get(label, ()), edges.get(wildcard, ()))
    return out


def epsilon_closure(workload: WorkloadAutomata, sids: Iterable[int]) -> frozenset[int]:
    """close(q): add ε-successors repeatedly (top-down pruning)."""
    result = set(sids)
    stack = list(result)
    while stack:
        for child in workload.states[stack.pop()].eps:
            if child not in result:
                result.add(child)
                stack.append(child)
    return frozenset(result)


def notified_oids(workload: WorkloadAutomata, sids: Iterable[int]) -> frozenset[str]:
    """The oids whose notification state occurs in *sids*."""
    return frozenset(o for s in sids for o in workload._oid_by_notification.get(s, ()))


def afa_states_of(workload: WorkloadAutomata, sids: Iterable[int]) -> set[int]:
    """Every sid of the AFAs owning *sids* (early notification strips
    a notified filter's states)."""
    states, afas = workload.states, workload.afas
    return {sid for s in sids for sid in afas[states[s].owner].state_sids}


class OracleKernel:
    """The set algebra above behind the machine's kernel interface."""

    def __init__(self, workload: WorkloadAutomata, prec: Precedence | None = None):
        self.workload = workload
        self._prec = prec or {}
        self._notes = frozenset(a.notification for a in workload.afas if a.notification >= 0)

    def initial_enabled(self) -> int:
        return mask_of(epsilon_closure(self.workload, {a.initial for a in self.workload.afas}))

    def push(self, enabled: int, label: str) -> int:
        targets = push_targets(self.workload, bits_of(enabled), label, label.startswith("@"))
        return mask_of(epsilon_closure(self.workload, targets))

    def _lift(self, bottom: int, label: str) -> tuple[frozenset[int], set[int]]:
        evaluated = eval_closure(self.workload, bits_of(bottom))
        return evaluated, delta_inverse(self.workload, evaluated, label, label.startswith("@"))

    def pop(self, bottom: int, label: str) -> int:
        return mask_of(self._lift(bottom, label)[1])

    def pop_early(
        self, bottom: int, label: str, enabled: int | None, parent: int | None
    ) -> tuple[int, frozenset[str]]:
        evaluated, lifted = self._lift(bottom, label)
        if parent is not None:
            lifted &= set(bits_of(parent))
        noted = [s for s in self._notes & evaluated if enabled is None or enabled >> s & 1]
        if not noted:
            return mask_of(lifted), EMPTY_OIDS
        stripped = lifted - afa_states_of(self.workload, noted)
        return mask_of(stripped), notified_oids(self.workload, noted)

    def badd(self, parent: int, aux: int) -> int:
        parent_set = frozenset(bits_of(parent))
        kept = [s for s in bits_of(aux) if self._prec.get(s, frozenset()) <= parent_set]
        return mask_of(parent_set.union(kept))


@contextmanager
def oracle_kernel() -> Iterator[None]:
    """Every machine built (or rebound by ``extend``) inside the block
    runs :class:`OracleKernel`, in shard workers forked there too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(XPushMachine, "_make_kernel", lambda m, _, p: OracleKernel(m.workload, p))
        yield


def options_for(options: XPushOptions, runtime: str) -> XPushOptions:
    """*options* on *runtime*; the oracle runs on the bitmask options."""
    return replace(options, runtime="bitmask" if runtime == ORACLE else runtime)


def under(runtime: str) -> AbstractContextManager[None]:
    """:func:`oracle_kernel` for :data:`ORACLE`, a no-op for a runtime."""
    return oracle_kernel() if runtime == ORACLE else nullcontext()

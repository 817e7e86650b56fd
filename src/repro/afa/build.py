"""Compile XPath filters into Alternating Finite Automata (Sec. 3.2).

The construction mirrors the paper's Example 3.3 exactly; on the running
example it produces the two 7-/6-state automata of Fig. 4 (up to state
numbering).  The rules, right-to-left over the location path:

- a CHILD step ``a`` becomes a label edge ``s --a--> target``;
- a DESCENDANT step adds a ``*`` self-loop to the source state before
  the label edge (how Fig. 4 encodes ``//``);
- a step's predicates conjoin with the navigation continuation through
  an AND state with ε-successors;
- a trailing comparison is a **terminal** state carrying the atomic
  predicate — the paper absorbs the ``text()`` step into the terminal
  (``3 --b--> 4[=1]`` for ``b/text() = 1``), and so do we;
- a trailing existence test is a ⊤-edge (``a[b]`` must also accept an
  empty ``<b/>``, which never produces a text event);
- ``and``/``or``/``not`` become AND/OR/NOT states with ε-transitions.

Each AFA also records its *notification state* — the first branching
state on the unbranched prefix chain from the initial state (Sec. 5,
early notification); the walk stops early at NOT states, which gate
everything beneath them.
"""

from __future__ import annotations

from repro.afa.automaton import AFA, AfaState, StateKind, WorkloadAutomata
from repro.afa.predicates import AtomicPredicate
from repro.errors import WorkloadError
from repro.xpath.ast import (
    And,
    Axis,
    BooleanExpr,
    Comparison,
    Exists,
    LocationPath,
    Not,
    NodeTestKind,
    Or,
    Step,
    XPathFilter,
)

#: Sentinel returned by the compiler for "always matches" (the ⊤ target).
TOP = -1


class _Compiler:
    """Compiles one filter into states of a shared WorkloadAutomata."""

    def __init__(self, workload: WorkloadAutomata):
        self.workload = workload
        self.created: list[int] = []

    def state(self, kind: StateKind, predicate: AtomicPredicate | None = None) -> AfaState:
        node = self.workload.new_state(kind, predicate)
        self.created.append(node.sid)
        return node

    # ------------------------------------------------------------------

    def compile_filter(self, path: LocationPath) -> int:
        initial = self.context_state(list(path.steps), terminal=None)
        if initial == TOP:
            raise WorkloadError(f"filter {path} is trivially true; refusing to compile")
        return initial

    def context_state(self, steps: list[Step], terminal: AtomicPredicate | None) -> int:
        """State matching the *context* node of ``steps``.

        The state matches a node x iff ``steps`` select, starting from
        x, some node that (a) exists, when *terminal* is None, or
        (b) has a value satisfying *terminal* otherwise.
        """
        if not steps:
            return TOP if terminal is None else self.state(StateKind.OR, terminal).sid
        step, rest = steps[0], steps[1:]

        if step.axis is Axis.SELF:
            inner = self.context_state(rest, terminal)
            return self.conjoin(list(step.predicates), inner)

        if step.test.kind is NodeTestKind.TEXT:
            # text() is a trailing step (the grammar has no navigation
            # below text); the selected node is the data value itself.
            if rest or step.predicates:
                raise WorkloadError("text() must be the last step and bare")
            predicate = terminal if terminal is not None else AtomicPredicate.TRUE
            terminal_sid = self.state(StateKind.OR, predicate).sid
            if step.axis is Axis.DESCENDANT:
                # a//text(): the context needs a *-loop plus an ε to the
                # terminal so a direct text child also witnesses it.
                source = self.state(StateKind.OR)
                source.add_edge("*", source.sid)
                source.eps = (terminal_sid,)
                return source.sid
            return terminal_sid

        source = self.state(StateKind.OR)
        if step.axis is Axis.DESCENDANT:
            source.add_edge("*", source.sid)
        label = self.edge_label(step)
        target = self.step_target(step, rest, terminal)
        if target == TOP:
            source.top_labels = (label,)
        else:
            source.add_edge(label, target)
        return source.sid

    @staticmethod
    def edge_label(step: Step) -> str:
        kind = step.test.kind
        if kind is NodeTestKind.NAME or kind is NodeTestKind.ATTRIBUTE:
            return step.test.name
        if kind is NodeTestKind.WILDCARD:
            return "*"
        if kind is NodeTestKind.ATTRIBUTE_WILDCARD:
            return "@*"
        raise WorkloadError(f"cannot navigate through {step.test}")

    def step_target(self, step: Step, rest: list[Step], terminal: AtomicPredicate | None) -> int:
        """State matching the node selected by *step* itself."""
        predicates = list(step.predicates)
        if rest and rest[0].test.kind is NodeTestKind.TEXT and rest[0].axis is Axis.CHILD and len(rest) == 1 and not rest[0].predicates:
            # Absorb a trailing `/text()` into the terminal (Fig. 4).
            predicate = terminal if terminal is not None else AtomicPredicate.TRUE
            tail = self.state(StateKind.OR, predicate).sid
            return self.conjoin(predicates, tail)
        if not rest:
            if terminal is None:
                if not predicates:
                    return TOP
                return self.conjoin(predicates, TOP)
            tail = self.state(StateKind.OR, terminal).sid
            return self.conjoin(predicates, tail)
        continuation = self.context_state(rest, terminal)
        return self.conjoin(predicates, continuation)

    def conjoin(self, predicates: list[BooleanExpr], continuation: int) -> int:
        """AND together predicate subgraphs with a continuation state.

        A ⊤ continuation (or conjunct) is simply dropped; an AND with a
        single member collapses to that member.
        """
        members: list[int] = []
        for predicate in predicates:
            sid = self.boolean(predicate)
            if sid != TOP:
                members.append(sid)
        if continuation != TOP:
            members.append(continuation)
        if not members:
            return TOP
        if len(members) == 1:
            return members[0]
        node = self.state(StateKind.AND)
        node.eps = tuple(members)
        return node.sid

    def boolean(self, expr: BooleanExpr) -> int:
        if isinstance(expr, Exists):
            return self.context_state(list(expr.path.steps), terminal=None)
        if isinstance(expr, Comparison):
            predicate = AtomicPredicate(expr.op, expr.value)
            return self.context_state(list(expr.path.steps), terminal=predicate)
        if isinstance(expr, And):
            node = self.state(StateKind.AND)
            members = [self.boolean(child) for child in expr.children]
            members = [m for m in members if m != TOP]
            if not members:
                return TOP
            node.eps = tuple(members)
            return node.sid
        if isinstance(expr, Or):
            members = [self.boolean(child) for child in expr.children]
            if any(m == TOP for m in members):
                return TOP
            node = self.state(StateKind.OR)
            node.eps = tuple(members)
            return node.sid
        if isinstance(expr, Not):
            child = self.boolean(expr.child)
            if child == TOP:
                raise WorkloadError("not(⊤) is trivially false; refusing to compile")
            node = self.state(StateKind.NOT)
            node.eps = (child,)
            return node.sid
        raise TypeError(f"not a boolean expression: {expr!r}")


def _notification_state(workload: WorkloadAutomata, initial: int) -> int:
    """First branching state on the chain from *initial* (Sec. 5).

    Walk single-successor navigation states (ignoring self-loops); stop
    at the first state that branches (an AND/OR connective with several
    successors), at a NOT, at a terminal, or at a ⊤-edge — in the last
    case the state *owning* the ⊤-edge is the notification state, since
    its own match already implies the filter matched.
    """
    current = initial
    visited: set[int] = set()
    while True:
        if current in visited:  # defensive: self-recursive chains
            return current
        visited.add(current)
        state = workload.states[current]
        if state.kind is StateKind.NOT or state.is_terminal:
            return current
        successors: list[int] = list(state.eps)
        for label, targets in state.edges.items():
            successors.extend(t for t in targets if t != current)
        if state.top_labels:
            return current
        successors = [s for s in successors if s != current]
        if len(successors) != 1:
            return current
        current = successors[0]


def build_afa(workload: WorkloadAutomata, xpath_filter: XPathFilter) -> AFA:
    """Compile one filter into *workload*; returns its AFA record."""
    compiler = _Compiler(workload)
    try:
        initial = compiler.compile_filter(xpath_filter.path)
    except RecursionError:
        # The half-built states are the caller's to drop (extend does).
        raise WorkloadError(
            f"filter {xpath_filter.oid!r} is nested too deep to compile"
        ) from None
    afa = AFA(
        oid=xpath_filter.oid,
        initial=initial,
        source=xpath_filter.source or str(xpath_filter.path),
        state_sids=tuple(compiler.created),
    )
    afa_index = len(workload.afas)
    for sid in compiler.created:
        workload.states[sid].owner = afa_index
    workload.afas.append(afa)
    afa.notification = _notification_state(workload, initial)
    return afa


def build_workload_automata(filters: list[XPathFilter]) -> WorkloadAutomata:
    """Compile a whole workload (Step 1 of Sec. 3.2) and finalise the
    shared indexes (including the compiled bitmask tables): growth from
    empty (:meth:`WorkloadAutomata.extend`).  Oids must be unique."""
    return WorkloadAutomata().extend(filters)

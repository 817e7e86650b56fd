"""The eager bottom-up XPush machine (Sec. 3.2).

Computes *all* accessible states up front — exactly the construction of
Example 3.2/3.4, which yields the 22-state machine of Fig. 3 for the
running example.  Accessibility is closed under:

- ``t_value`` for every elementary value class of the predicate index;
- ``t_pop`` for every workload label (plus an "any other" element and
  attribute label, the ``*``/``@*`` fallback rows of Fig. 3);
- ``t_badd`` over pairs (any state without terminal leaves, any
  ``t_pop`` result) — the paper leaves rows for leaf-containing states
  undefined ("assuming no mixed data in the XML documents").

This is exponential in the worst case (the reason the runtime machine
is lazy), so it guards with ``max_states``; it exists for small
workloads, for the golden-trace tests, and to measure how much larger
the eager machine is than the lazily-materialised one.
"""

from __future__ import annotations

from repro.afa.automaton import WorkloadAutomata, bits_of
from repro.afa.build import build_workload_automata
from repro.afa.index import AtomicPredicateIndex
from repro.errors import MixedContentError, ReproError, WorkloadError
from repro.xmlstream.dom import Document
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
    events_of_document,
)
from repro.xpath.ast import XPathFilter


class BudgetExceeded(ReproError):
    """Raised when the eager construction exceeds its state budget."""


class EagerXPushMachine:
    """Fully materialised XPush machine for a (small) workload."""

    def __init__(self, filters: list[XPathFilter], max_states: int = 50_000):
        self.workload: WorkloadAutomata = build_workload_automata(filters)
        self.max_states = max_states
        workload = self.workload

        self.index = AtomicPredicateIndex()
        for sid in workload.terminals:
            self.index.add(workload.states[sid].predicate, sid)
        self.index.freeze()

        self._terminal_sids = frozenset(workload.terminals)
        self._states: dict[tuple[int, ...], int] = {}
        self.state_sets: list[tuple[int, ...]] = []
        self._has_terminal: list[bool] = []
        self.q0 = self._intern(frozenset())

        # Alphabet: every label on a transition or ⊤-edge, plus one
        # representative "other" element and attribute label.
        labels: set[str] = set()
        for state in workload.states:
            labels.update(state.edges)
            labels.update(state.top_labels)
        labels.discard("*")
        labels.discard("@*")
        self.element_labels = sorted(l for l in labels if not l.startswith("@"))
        self.attribute_labels = sorted(l for l in labels if l.startswith("@"))
        self._other_element = "\x00other"
        self._other_attribute = "@\x00other"

        # t_value: one entry per answer of an elementary value class.
        self.index.precompute()
        self.value_states: dict[int, int] = {}
        for key, mask in self.index.precomputed_items():
            self.value_states[key] = self._intern(bits_of(mask))

        self.pop_table: dict[tuple[int, str], int] = {}
        self.add_table: dict[tuple[int, int], int] = {}
        self._construct()

    # ------------------------------------------------------------------

    def _intern(self, sids) -> int:
        key = tuple(sorted(sids))
        uid = self._states.get(key)
        if uid is None:
            if len(self._states) >= self.max_states:
                raise BudgetExceeded(
                    f"eager XPush construction exceeded {self.max_states} states"
                )
            uid = len(self.state_sets)
            self._states[key] = uid
            self.state_sets.append(key)
            self._has_terminal.append(any(s in self._terminal_sids for s in key))
        return uid

    def _construct(self) -> None:
        masks = self.workload.masks
        all_labels = (
            self.element_labels
            + self.attribute_labels
            + [self._other_element, self._other_attribute]
        )
        while True:
            pop_entries = len(self.pop_table)
            add_entries = len(self.add_table)
            states = len(self.state_sets)
            # t_pop for every (state, label).
            for uid in range(len(self.state_sets)):
                sids = self.state_sets[uid]
                for label in all_labels:
                    if (uid, label) not in self.pop_table:
                        evaluated = masks.eval_closure(masks.mask_of(sids))
                        lifted = masks.delta_inverse(evaluated, label, label.startswith("@"))
                        self.pop_table[(uid, label)] = self._intern(bits_of(lifted))
            # t_badd for (non-leaf state, pop result); rows for states
            # containing terminals stay undefined (the Fig. 3 blanks).
            pop_results = sorted(set(self.pop_table.values()))
            for left in range(len(self.state_sets)):
                if self._has_terminal[left]:
                    continue
                for right in pop_results:
                    if (left, right) not in self.add_table:
                        union = set(self.state_sets[left]) | set(self.state_sets[right])
                        self.add_table[(left, right)] = self._intern(union)
            stable = (
                pop_entries == len(self.pop_table)
                and add_entries == len(self.add_table)
                and states == len(self.state_sets)
            )
            if stable:
                return

    # ------------------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.state_sets)

    def accepts_of(self, uid: int) -> frozenset[str]:
        return self.workload.accepted_oids(self.state_sets[uid])

    def _pop(self, uid: int, label: str) -> int:
        key = (uid, label)
        if key not in self.pop_table:
            fallback = self._other_attribute if label.startswith("@") else self._other_element
            key = (uid, fallback)
        return self.pop_table[key]

    def _value(self, raw: str) -> int:
        key = self.index.key_of(raw)
        uid = self.value_states.get(key)
        if uid is None:
            uid = self._intern(bits_of(self.index.mask_of(key)))
            self.value_states[key] = uid
        return uid

    def run(self, document: Document, trace: list[int] | None = None) -> frozenset[str]:
        """Execute the Fig. 2 loop with the precomputed tables.

        ``text`` here *overwrites* qb, exactly as written in Fig. 2 —
        the eager machine is the paper-faithful artifact; use the lazy
        :class:`repro.xpush.machine.XPushMachine` for the merge variant.
        An optional *trace* list collects the current bottom-up state
        after every event (the Fig. 3 execution trace).
        """
        qb = self.q0
        stack: list[int] = []
        for event in events_of_document(document):
            kind = type(event)
            if kind is StartElement:
                if self._has_terminal[qb]:
                    raise MixedContentError("text and element children mixed")
                stack.append(qb)
                qb = self.q0
            elif kind is Text:
                qb = self._value(event.value)
            elif kind is EndElement:
                lifted = self._pop(qb, event.label)
                parent = stack.pop()
                entry = self.add_table.get((parent, lifted))
                if entry is None:
                    raise MixedContentError(
                        f"t_badd undefined for (q{parent}, q{lifted})"
                    )
                qb = entry
            elif kind is StartDocument:
                qb = self.q0
                stack = []
            if trace is not None and kind in (Text, EndElement):
                trace.append(qb)
        return self.accepts_of(qb)

    #: The document-evaluator spelling the engine layer calls.
    filter_document = run

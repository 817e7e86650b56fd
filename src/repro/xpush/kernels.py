"""Transition kernels: the set→set algebra behind a memo miss.

An XPush state is a set of AFA states; the machine
(:mod:`repro.xpush.machine`) represents every such set as one int
*mask* (bit *sid* set ⇔ AFA state *sid* present) and owns everything no
runtime disagrees about — stack, interning, memo tables, counters,
eviction.  What a runtime decides is only how a set of AFA states is
mapped to a set of AFA states when a memo probe misses.  That decision
lives here, behind one interface:

- ``initial_enabled()`` — the ε-closed enabled set behind ``qt0``;
- ``push(enabled, label)`` — ``t_push``: the enabled set of a child;
- ``pop(bottom, label)`` — ``t_pop``: δ⁻¹(eval(bottom), label);
- ``pop_early(bottom, label, enabled, parent_enabled)`` — ``t_pop``
  under early notification: ``(lifted, notified oids)``;
- ``badd(parent, aux)`` — ``t_badd``, with the order optimisation.

:class:`MaskKernel` (``runtime="bitmask"``) computes on the workload's
:class:`~repro.afa.automaton.CompiledMasks` tables;
:class:`CodegenKernel` (``"codegen"``) swaps in the per-label compiled
handlers of :mod:`repro.afa.codegen` and inherits the rest.  The
differential walls hold both to a frozenset reference kernel that lives
with the tests (``tests/oracle.py``), behind the same interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.afa.automaton import CompiledMasks, bits_of

if TYPE_CHECKING:  # pragma: no cover - keeps the code generator lazily imported
    from repro.afa.codegen import CompiledHandlers

#: Shared empty notification set (pop entries reuse one object).
EMPTY_OIDS: frozenset[str] = frozenset()

Precedence = Mapping[int, frozenset[int]]
Handler = Callable[[int], int]
mask_of = CompiledMasks.mask_of


class MaskKernel:
    """Transitions as bitwise ops over the compiled mask tables."""

    def __init__(self, masks: CompiledMasks, prec: Precedence | None = None):
        self.masks = masks
        # Order optimisation: sid -> the siblings that must already have
        # matched before sid may be merged in, as (lowest sid, their mask
        # shifted down to it) — siblings share an AFA, so the mask is small.
        self._prec = {sid: _shifted(required) for sid, required in (prec or {}).items()}

    def initial_enabled(self) -> int:
        return self.masks.epsilon_closure(self.masks.initial_mask)

    def push(self, enabled: int, label: str) -> int:
        return self.masks.push_targets_closure(enabled, label, label.startswith("@"))

    def eval(self, bottom: int) -> int:
        return self.masks.eval_closure(bottom)

    def lift(self, evaluated: int, label: str) -> int:
        return self.masks.delta_inverse(evaluated, label, label.startswith("@"))

    def pop(self, bottom: int, label: str) -> int:
        return self.lift(self.eval(bottom), label)

    def pop_early(
        self, bottom: int, label: str, enabled: int | None, parent_enabled: int | None
    ) -> tuple[int, frozenset[str]]:
        """A notification state only counts when it is *enabled* at the
        closing node: absence-driven connectives (NOT, or an OR/AND with
        a NOT beneath) can appear in eval() at unrelated nodes.  A
        skipped notification is safe — the ordinary bottom-up path still
        matches the filter.  Lifted states are intersected with the
        parent's enabled set (the ``//`` fix of Sec. 5) and stripped of
        every notified filter's states."""
        masks = self.masks
        evaluated = self.eval(bottom)
        lifted = self.lift(evaluated, label)
        if parent_enabled is not None:
            lifted &= parent_enabled
        noted = masks.notification_mask & evaluated
        if noted and enabled is not None:
            noted &= enabled
        if not noted:
            return lifted, EMPTY_OIDS
        return lifted & ~masks.afa_states(noted), masks.notified_oids(noted)

    def badd(self, parent: int, aux: int) -> int:
        merged = parent | aux
        prec = self._prec
        if prec:
            for sid in bits_of(aux & ~parent):
                required = prec.get(sid)
                if required is not None:
                    low, siblings = required
                    if parent >> low & siblings != siblings:
                        merged ^= 1 << sid  # a mandated preceding sibling is missing
        return merged


def _shifted(sids: frozenset[int]) -> tuple[int, int]:
    """``(low, mask)``: the mask of *sids* shifted down to their lowest."""
    low = min(sids)
    return low, mask_of(sid - low for sid in sids)


def _resolve(
    table: dict[str, Handler], elem_default: Handler, attr_default: Handler, label: str
) -> Handler:
    """A label absent from a compiled table is served by the wildcard
    default of its kind."""
    return table.get(label) or (attr_default if label.startswith("@") else elem_default)


class CodegenKernel(MaskKernel):
    """:class:`MaskKernel` with ``push`` / fused ``pop`` / ``eval`` /
    ``lift`` dispatched into the workload's compiled handlers
    (:mod:`repro.afa.codegen`); ``badd`` and the early-notification
    algebra are inherited."""

    def __init__(
        self, masks: CompiledMasks, handlers: CompiledHandlers, prec: Precedence | None = None
    ):
        super().__init__(masks, prec)
        self._handlers = handlers

    def push(self, enabled: int, label: str) -> int:
        h = self._handlers
        return _resolve(h.push, h.push_elem_default, h.push_attr_default, label)(enabled)

    def eval(self, bottom: int) -> int:
        return self._handlers.eval_closure(bottom)

    def lift(self, evaluated: int, label: str) -> int:
        h = self._handlers
        return _resolve(h.pop_ev, h.pop_ev_elem_default, h.pop_ev_attr_default, label)(evaluated)

    def pop(self, bottom: int, label: str) -> int:
        # The fused handler computes δ⁻¹(eval(bottom), label) in one
        # call; without early notification nothing else inspects eval().
        h = self._handlers
        return _resolve(h.pop, h.pop_elem_default, h.pop_attr_default, label)(bottom)

"""Optimisation switches for the XPush machine (Sec. 5).

The four heuristics of Sec. 5 compose freely, with two dependencies
the paper states and we enforce:

- **early notification** requires **top-down pruning** ("for this
  technique to be correct we must turn on top-down pruning") and
  implies the pop/top-down intersection that makes ``//`` safe;
- the **order optimisation** needs a DTD to extract the sibling order
  from (pass it to the machine).

``VARIANTS`` names the series plotted in Figs. 5-7 and 9-11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptionsError

#: Transition kernels (:mod:`repro.xpush.kernels`) a machine can run on.
RUNTIMES = ("bitmask", "codegen")


@dataclass(frozen=True)
class XPushOptions:
    """Which Sec. 5 optimisations the machine applies.

    Attributes:
        top_down: top-down pruning — the machine tracks the set of
            *enabled* AFA states per node and starts bottom-up
            computation only at enabled branches.
        order: order optimisation — ``t_badd`` drops a state whose
            DTD-mandated preceding siblings have not matched.
        early: early notification — report a filter as soon as its
            first branching AFA state matches, and strip that filter's
            states from subsequent XPush states.
        train: run the machine over workload-derived training documents
            before real data (Sec. 5, "Training the XPush Machine").
        precompute_values: eagerly materialise the atomic predicate
            index answers / ``t_value`` states (Sec. 4, "State
            Precomputation").  The paper precomputes these in the basic
            machine but cannot when top-down pruning is on (the Sec. 7
            discussion of the TD-only series); we follow that rule at
            machine construction.
        runtime: the transition kernel (:mod:`repro.xpush.kernels`)
            that computes a memo miss; state sets are int masks in
            every runtime.  ``"bitmask"`` (default) uses the compiled
            integer-bitmask tables built at workload ``finalize()`` —
            every cold-path set operation is a single-int bitwise op.
            ``"codegen"`` goes one step further and runs transitions
            through straight-line Python compiled per workload at first
            use (:mod:`repro.afa.codegen`): per-label push/pop handlers
            with the mask tables inlined as int literals and dead
            branches elided.  Answers are identical by construction,
            and by the tests' differential walls against a frozenset
            reference kernel; this is purely a speed knob.
        codegen_max_handlers: upper bound on the number of functions
            the ``"codegen"`` runtime may generate for one workload
            (roughly three per distinct label).  A workload exceeding
            the bound falls back to the bitmask runtime with a single
            warning — never an error — so pathological label alphabets
            cannot explode compile time or code size.  Ignored by the
            other runtimes.
        max_memory_bytes: memory management for unbounded streams
            (Theorem 6.2 shows states grow linearly with the number of
            documents; Sec. 6: "we need some form of memory management
            in order to process infinite streams").  The store keeps a
            byte-level estimate of resident state and memo-table
            memory; when it exceeds this high watermark at a document
            boundary, a second-chance (CLOCK) sweep runs until the low
            watermark (80% of the bound) is reached: states not
            referenced since the last sweep are deported with their
            memo tables, and entries naming them are pruned — cold
            states go, the hot working set (and its hit ratio)
            survives.  If that leaves the store above the bound (the
            working set outgrew it), a forced sweep deports in the same
            clock order, reference bits ignored, so the bound holds at
            every boundary.  None = unbounded.  (The paper's brute-force
            alternative, "deleted when we run out of memory and
            recomputed later", is :meth:`XPushMachine.reset_tables`.)
        retain_results: append each document's answer to the machine's
            ``results()`` list.  True (default) suits batch use;
            long-running services driven by ``on_result`` or the
            return value of ``filter_stream`` set False so an infinite
            stream does not accumulate one frozenset per document
            forever.
    """

    top_down: bool = False
    order: bool = False
    early: bool = False
    train: bool = False
    precompute_values: bool = True
    runtime: str = "bitmask"
    codegen_max_handlers: int = 4096
    max_memory_bytes: int | None = None
    retain_results: bool = True

    def __post_init__(self):
        if self.early and not self.top_down:
            raise OptionsError("early notification requires top-down pruning (Sec. 5)")
        if self.runtime not in RUNTIMES:
            raise OptionsError(f"unknown runtime {self.runtime!r}; known: {sorted(RUNTIMES)}")
        if self.codegen_max_handlers < 1:
            raise OptionsError("codegen_max_handlers must be positive")
        if self.max_memory_bytes is not None and self.max_memory_bytes < 1:
            raise OptionsError("max_memory_bytes must be positive")

    def describe(self) -> str:
        parts = [
            name
            for flag, name in [
                (self.top_down, "top-down"),
                (self.order, "order"),
                (self.early, "early"),
                (self.train, "train"),
            ]
            if flag
        ]
        described = "+".join(parts) if parts else "basic"
        if self.runtime != "bitmask":
            described += f"[{self.runtime}]"
        return described


#: The named machine variants used as series in the paper's figures.
VARIANTS: dict[str, XPushOptions] = {
    "basic": XPushOptions(),
    "TD": XPushOptions(top_down=True, precompute_values=False),
    "order": XPushOptions(order=True),
    "TD-order": XPushOptions(top_down=True, order=True, precompute_values=False),
    "TD-train": XPushOptions(top_down=True, train=True, precompute_values=False),
    "TD-order-train": XPushOptions(top_down=True, order=True, train=True, precompute_values=False),
    "TD-order-early-train": XPushOptions(
        top_down=True, order=True, early=True, train=True, precompute_values=False
    ),
}


def variant_options(name: str) -> XPushOptions:
    """Options for a named variant (see :data:`VARIANTS`)."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise OptionsError(f"unknown variant {name!r}; known: {sorted(VARIANTS)}") from None

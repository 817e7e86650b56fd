"""The XPush Machine (Sec. 3-5): the paper's primary contribution.

A single deterministic pushdown automaton that evaluates an entire
workload of XPath filters over a SAX stream, processing each event in
O(1) amortised time.  States are *sets of AFA states* (sets of matched
subqueries), interned and memoised — this is what eliminates redundant
work across common subexpressions **and common predicates**.

- :class:`repro.xpush.machine.XPushMachine` — the lazy machine with all
  four optimisations of Sec. 5 (top-down pruning, order optimisation,
  early notification, training);
- :class:`repro.xpush.options.XPushOptions` — optimisation switches and
  the named variants used in the paper's figures;
- :mod:`repro.xpush.eager` — the eager bottom-up construction of
  Sec. 3.2 with accessible-state pruning (small workloads only);
- :mod:`repro.xpush.training` — training-document generation;
- :mod:`repro.xpush.stats` — the counters behind Figs. 5-11.
"""

from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions, VARIANTS, variant_options
from repro.xpush.stats import MachineStats
from repro.xpush.trace import render_trace, trace_document
from repro.xpush.training import training_documents

__all__ = [
    "LayeredFilterEngine",
    "render_trace",
    "trace_document",
    "MachineStats",
    "VARIANTS",
    "XPushMachine",
    "XPushOptions",
    "training_documents",
    "variant_options",
]

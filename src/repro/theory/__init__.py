"""The theoretical analysis of Sec. 6, in two modules and no
third-party dependency.

- :mod:`repro.theory.independence` — subsumption / inconsistency /
  independence between AFA states, the independence graph, and the
  clique bound of **Theorem 6.1** ("the number of accessible states in
  the XPush machine is no larger than the number of cliques in the
  independence graph");
- :mod:`repro.theory.expected` — the closed-form expected-state-count
  bounds of **Theorem 6.2** for flat workloads, with and without the
  order optimisation, validated empirically by
  ``benchmarks/bench_theorem62.py``.
"""

from repro.theory.expected import (
    expected_states_ordered,
    expected_states_unordered,
)
from repro.theory.independence import (
    IndependenceAnalysis,
    Relation,
    count_cliques,
)

__all__ = [
    "IndependenceAnalysis",
    "Relation",
    "count_cliques",
    "expected_states_ordered",
    "expected_states_unordered",
]

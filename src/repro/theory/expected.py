"""Expected state counts for flat workloads (Theorem 6.2).

A *flat workload* is n queries of the form
``/a[b1/text()=v1 and … and bk/text()=vk]`` over a shared root label.
With every atomic predicate having the same selectivity σ ≪ 1/N on a
stream of N documents, the theorem bounds the expected number of lazy
XPush states:

1. without order optimisation: ``E[states] ≤ 1 + N·m·σ`` where m is
   the total number of atomic predicates in the workload;
2. with order optimisation: ``E[states] ≤ N·((1-σ^(k+1))/(1-σ))^n``
   with k atomic predicates per query.

The theorem's reading (checked by ``benchmarks/bench_theorem62.py``):
lower selectivity → fewer states; states grow linearly with N; and
under order optimisation, more branches per query (k up, n·k fixed)
→ *fewer* states.
"""

from __future__ import annotations

import math


def expected_states_unordered(documents: int, total_predicates: int, selectivity: float) -> float:
    """Theorem 6.2(1): bound without the order optimisation.

    Args:
        documents: N, the number of documents processed.
        total_predicates: m, distinct atomic predicates in the workload.
        selectivity: σ, per-predicate probability of being true on a
            document (assumed equal across predicates, σ ≪ 1/N).
    """
    _check(selectivity)
    return 1.0 + documents * total_predicates * selectivity


def expected_states_ordered(
    documents: int, queries: int, predicates_per_query: int, selectivity: float
) -> float:
    """Theorem 6.2(2): bound with the order optimisation.

    ``N · ((1 - σ^(k+1)) / (1 - σ))^n`` for n queries of exactly k
    ordered predicates each.
    """
    _check(selectivity)
    k = predicates_per_query
    base = (1.0 - selectivity ** (k + 1)) / (1.0 - selectivity)
    # Guard against float overflow for large n: work in log space.
    log_value = math.log(documents) + queries * math.log(base)
    if log_value > 700:  # exp would overflow; the bound is astronomically loose
        return math.inf
    return math.exp(log_value)


def _check(selectivity: float) -> None:
    if not 0.0 < selectivity < 1.0:
        raise ValueError("selectivity must be in (0, 1)")

"""Selectivity-driven shard placement — the cost-model routing layer.

The sharded service partitions the *workload* (filters), not the
document stream; a shard's cost is therefore the sum of its filters'
costs, and blind CRC-32 routing has no defense against cost skew: one
hot filter cluster hashed onto one shard sets the whole fan-out's
critical path.  This module makes placement an explicit, pluggable
layer driven by a per-filter **cost model** in the spirit of the
paper's Theorem 6.2: a filter's runtime weight grows with its automaton
size *and* with the selectivity of its atomic predicates (σ drives how
many lazy states and SAX-event firings it induces).

    cost(f)  =  afa_states(f) × (1 + κ·σ̂(f))

``σ̂`` blends two estimators with pseudo-counts:

- **sampled** — :func:`repro.theory.selectivity.estimate_selectivities`
  over a document pool, aggregated per filter (mean over its atoms);
- **live** — the observed per-oid match rate of the serving engine,
  fed back batch by batch (:meth:`CostModel.observe`).

On top of the model sit pure planning functions: the boot partition
(:func:`place_filters` — the only one: CRC-32 under ``hash``, LPT over
model costs under ``cost``), routing for post-boot subscribes
(:func:`route_new`, the same two policies), per-shard load / imbalance gauges
(:func:`shard_loads` / :func:`imbalance`), and greedy migration
planners (:func:`plan_rebalance`, :func:`plan_drain`) whose
:class:`Move` lists the engine executes as epoch-stamped control-plane
verbs.  Everything here is deterministic — ties break on the oid — so
placement is reproducible across runs and processes.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.errors import WorkloadError
from repro.xmlstream.dom import Document
from repro.xpath.ast import XPathFilter, iter_predicates
from repro.xpath.parser import parse_xpath

__all__ = [
    "PLACEMENT_POLICIES",
    "SELECTIVITY_WEIGHT",
    "CostModel",
    "FilterCost",
    "Move",
    "afa_state_count",
    "filter_selectivities",
    "imbalance",
    "place_filters",
    "plan_drain",
    "plan_rebalance",
    "route_new",
    "shard_loads",
    "shard_of_oid",
]

#: Placement policies: ``hash`` routes every oid by CRC-32, ``cost``
#: places by model cost (LPT at boot, lightest shard afterwards).
PLACEMENT_POLICIES = ("hash", "cost")

#: κ — how strongly σ̂ scales a filter's cost above its static state
#: count.  At the default, a filter matching every document costs 5×
#: its automaton size; a never-matching one costs exactly its size.
SELECTIVITY_WEIGHT = 4.0


def shard_of_oid(oid: str, shards: int) -> int:
    """Stable shard index for *oid* under the ``hash`` policy (CRC-32:
    identical across processes and restarts, unlike the salted builtin
    ``hash``, and independent of subscription order)."""
    return zlib.crc32(oid.encode("utf-8")) % shards


#: Structure → state count, keyed by the normalised path form.  The
#: count depends only on the filter's structure, never its oid, so
#: deduplicated workloads compile each distinct filter exactly once.
_STATE_COUNT_CACHE: dict[str, int] = {}


def afa_state_count(xpath_filter: XPathFilter) -> int:
    """Number of AFA states *xpath_filter* compiles to (its static
    weight).  Memoized on the normalised path: every boot and every
    cost-model refresh pays for one single-filter compile per
    *distinct* filter, not per call."""
    key = str(xpath_filter.path)
    cached = _STATE_COUNT_CACHE.get(key)
    if cached is None:
        from repro.afa.build import build_workload_automata

        cached = build_workload_automata([xpath_filter]).state_count
        _STATE_COUNT_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class Move:
    """One filter migration: *oid* leaves shard *source* for *target*."""

    oid: str
    source: int
    target: int


@dataclass(frozen=True)
class FilterCost:
    """One row of the cost table (``repro explain --placement``)."""

    oid: str
    states: int
    selectivity: float
    cost: float


def filter_selectivities(
    filters: Sequence[XPathFilter], documents: Sequence[Document]
) -> dict[str, float]:
    """Per-filter σ over a document sample: the mean of the filter's
    atomic-predicate selectivities (Theorem 6.2's per-atom σ, folded to
    one number per filter).  Predicate-free filters report 0.0 — their
    cost is carried entirely by the state-count term."""
    from repro.theory.selectivity import estimate_selectivities
    from repro.xpath.analysis import _predicate_key

    report = estimate_selectivities(filters, documents)
    out: dict[str, float] = {}
    for xpath_filter in filters:
        sigmas: list[float] = []
        for step in xpath_filter.path.steps:
            for predicate in step.predicates:
                for atom in iter_predicates(predicate):
                    sigmas.append(report.per_predicate.get(_predicate_key(atom), 0.0))
        out[xpath_filter.oid] = sum(sigmas) / len(sigmas) if sigmas else 0.0
    return out


class CostModel:
    """Per-filter placement cost, maintained incrementally.

    State counts come from the memoized :func:`afa_state_count`; σ̂ is a
    pseudo-count blend — :meth:`seed` contributes ``σ·n`` synthetic
    matches over an ``n``-document sample, :meth:`observe` contributes
    real per-oid match counts from served traffic, and
    :meth:`selectivity` divides by the combined document total.  Late
    subscribers start at σ̂ = 0 and earn their selectivity from
    traffic observed after they join.

    :meth:`observe` folds a batch in with one C-level counter update
    and never asks which oids are costed; *that* question is asked
    where the counts are read or reset (:meth:`selectivity`,
    :meth:`add`, :meth:`drop`), so a count taken while its oid was not
    costed is never seen.
    """

    def __init__(self, selectivity_weight: float = SELECTIVITY_WEIGHT):
        self.selectivity_weight = float(selectivity_weight)
        self._states: dict[str, int] = {}
        self._matches: Counter[str] = Counter()
        self._documents: float = 0.0

    def add(self, xpath_filter: XPathFilter) -> None:
        """Start costing *xpath_filter* (idempotent per oid)."""
        states = afa_state_count(xpath_filter)  # raises before anything is kept
        if xpath_filter.oid not in self._states:
            self._matches.pop(xpath_filter.oid, None)
        self._states[xpath_filter.oid] = states

    def add_source(self, oid: str, source: str) -> None:
        """:meth:`add` from XPath text (the snapshot-restore path)."""
        self.add(parse_xpath(source, oid))

    def drop(self, oid: str) -> None:
        self._states.pop(oid, None)
        self._matches.pop(oid, None)

    def seed(
        self, filters: Sequence[XPathFilter], documents: Sequence[Document]
    ) -> None:
        """Seed σ̂ from a document sample, as pseudo-counts."""
        sigmas = filter_selectivities(filters, documents)
        n = float(len(documents))
        for oid, sigma in sigmas.items():
            if oid in self._states:
                self._matches[oid] += sigma * n
        self._documents += n

    def observe(self, matched: Iterable[Iterable[str]]) -> None:
        """Fold one served batch in: *matched* is the per-document
        oid-set list the engine just answered with."""
        matched = list(matched)
        self._matches.update(chain.from_iterable(matched))
        self._documents += float(len(matched))

    @property
    def documents(self) -> float:
        """Total (sampled + observed) documents behind σ̂."""
        return self._documents

    def states(self, oid: str) -> int:
        return self._states.get(oid, 1)

    def selectivity(self, oid: str) -> float:
        if self._documents <= 0.0 or oid not in self._states:
            return 0.0
        return min(1.0, self._matches[oid] / self._documents)

    def cost(self, oid: str) -> float:
        """``states × (1 + κ·σ̂)`` — 1.0 floor for unknown oids."""
        return float(self.states(oid)) * (
            1.0 + self.selectivity_weight * self.selectivity(oid)
        )

    def costs(self) -> dict[str, float]:
        return {oid: self.cost(oid) for oid in self._states}

    def table(self) -> list[FilterCost]:
        """Every filter's cost row, most expensive first."""
        rows = [
            FilterCost(oid, self._states[oid], self.selectivity(oid), self.cost(oid))
            for oid in self._states
        ]
        rows.sort(key=lambda row: (-row.cost, row.oid))
        return rows


def shard_loads(
    routing: Mapping[str, int], costs: Mapping[str, float], shards: int
) -> list[float]:
    """Per-shard cost totals under *routing* (cost 1.0 for unmodelled
    oids, so the gauge degrades to a filter count, never to zero)."""
    loads = [0.0] * shards
    for oid, shard in routing.items():
        if 0 <= shard < shards:
            loads[shard] += costs.get(oid, 1.0)
    return loads


def imbalance(loads: Sequence[float]) -> float:
    """Hottest-shard load over mean load; 1.0 is perfectly balanced
    (and the degenerate empty / all-idle answer)."""
    if not loads:
        return 1.0
    total = sum(loads)
    if total <= 0.0:
        return 1.0
    return max(loads) / (total / len(loads))


def _check_policy(policy: str) -> None:
    if policy not in PLACEMENT_POLICIES:
        raise WorkloadError(
            f"unknown placement policy {policy!r}; "
            f"known: {', '.join(PLACEMENT_POLICIES)}"
        )


def place_filters(
    filters: Sequence[XPathFilter],
    shards: int,
    model: CostModel,
    policy: str = "cost",
) -> list[list[XPathFilter]]:
    """The boot partition: CRC-32 of the oid under ``hash``, greedy LPT
    over model costs under ``cost`` (with an unseeded model that is LPT
    over AFA state counts).  Always exactly *shards* lists (some
    possibly empty), every filter in exactly one of them, original
    relative order preserved within each."""
    _check_policy(policy)
    if shards < 1:
        raise WorkloadError(f"shard count must be >= 1, got {shards}")
    out: list[list[XPathFilter]] = [[] for _ in range(shards)]
    if shards == 1:
        out[0].extend(filters)
        return out
    if policy == "hash":
        for xpath_filter in filters:
            out[shard_of_oid(xpath_filter.oid, shards)].append(xpath_filter)
        return out
    weighted = sorted(
        ((model.cost(f.oid), index, f) for index, f in enumerate(filters)),
        key=lambda item: (-item[0], item[1]),
    )
    loads = [0.0] * shards
    placed: list[list[tuple[int, XPathFilter]]] = [[] for _ in range(shards)]
    for cost, index, xpath_filter in weighted:
        target = loads.index(min(loads))
        loads[target] += cost
        placed[target].append((index, xpath_filter))
    for shard, pairs in enumerate(placed):
        out[shard] = [f for _, f in sorted(pairs)]
    return out


def route_new(
    oid: str, loads: Sequence[float], policy: str, shards: int | None = None
) -> int:
    """Shard for a post-boot subscribe: CRC-32 under ``hash``, the
    lightest shard (lowest index on ties) under ``cost``."""
    _check_policy(policy)
    if policy == "hash":
        return shard_of_oid(oid, shards if shards is not None else len(loads))
    if not loads:
        raise WorkloadError("cost routing needs at least one shard")
    return min(range(len(loads)), key=lambda shard: (loads[shard], shard))


def plan_rebalance(
    routing: Mapping[str, int],
    costs: Mapping[str, float],
    shards: int,
    threshold: float,
) -> list[Move]:
    """A move list bringing :func:`imbalance` to *threshold* (or as
    close as single-filter moves can): repeatedly shift the largest
    filter that fits in the hot→cold gap.  Empty when already balanced
    or when every hot-shard filter is bigger than the gap (moving one
    would only swap which shard is hot)."""
    if threshold < 1.0:
        raise WorkloadError(f"rebalance threshold must be >= 1.0, got {threshold}")
    loads = shard_loads(routing, costs, shards)
    by_shard: list[list[tuple[float, str]]] = [[] for _ in range(shards)]
    for oid, shard in routing.items():
        if 0 <= shard < shards:
            by_shard[shard].append((costs.get(oid, 1.0), oid))
    for bucket in by_shard:
        bucket.sort(key=lambda item: (-item[0], item[1]))
    assigned: dict[str, int] = {}
    for _ in range(max(1, len(routing))):
        if imbalance(loads) <= threshold:
            break
        hot = max(range(shards), key=lambda shard: (loads[shard], -shard))
        cold = min(range(shards), key=lambda shard: (loads[shard], shard))
        gap = loads[hot] - loads[cold]
        choice = next(
            (pos for pos, (cost, _) in enumerate(by_shard[hot]) if cost < gap),
            None,
        )
        if choice is None:
            break
        cost, oid = by_shard[hot].pop(choice)
        loads[hot] -= cost
        loads[cold] += cost
        by_shard[cold].append((cost, oid))
        by_shard[cold].sort(key=lambda item: (-item[0], item[1]))
        assigned[oid] = cold
    return sorted(
        (
            Move(oid, routing[oid], target)
            for oid, target in assigned.items()
            if routing[oid] != target
        ),
        key=lambda move: move.oid,
    )


def plan_drain(
    victim: int,
    routing: Mapping[str, int],
    costs: Mapping[str, float],
    shards: int,
) -> list[Move]:
    """Moves emptying shard *victim* onto the remaining shards, largest
    filter first onto the lightest target (the ``merge`` verb's plan)."""
    if shards < 2:
        raise WorkloadError("cannot drain the only shard")
    if not 0 <= victim < shards:
        raise WorkloadError(f"no shard {victim} to drain (shards={shards})")
    loads = shard_loads(routing, costs, shards)
    targets = [shard for shard in range(shards) if shard != victim]
    leaving = sorted(
        (
            (costs.get(oid, 1.0), oid)
            for oid, shard in routing.items()
            if shard == victim
        ),
        key=lambda item: (-item[0], item[1]),
    )
    moves: list[Move] = []
    for cost, oid in leaving:
        target = min(targets, key=lambda shard: (loads[shard], shard))
        loads[target] += cost
        moves.append(Move(oid, victim, target))
    return moves

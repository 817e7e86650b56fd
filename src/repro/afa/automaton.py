"""Alternating Finite Automata (Sec. 3.2, Step 1).

An AFA is a nondeterministic automaton whose states are labelled AND,
OR or NOT.  Navigation uses *label transitions* ``δ(s, a)`` (with the
wildcards ``*`` over element labels and ``@*`` over attribute labels);
boolean connectives use ε-transitions; terminal states carry an atomic
predicate ``π_s`` on data values.  Matching semantics (on a document
tree) is the paper's:

- an OR state matches a node x if x is a data value and ``π_s(x)``, or
  some transition ``s' ∈ δ(s, a)`` and child y of x labelled *a* (y = x
  for ε) has s' matching y;
- an AND state matches x if all its ε-successors match x;
- a NOT state matches x if its single ε-successor does not match x.

Two pragmatic extensions used by the compiler (:mod:`repro.afa.build`):

- **⊤-edges**: a transition ``s --a--> ⊤`` means "s matches x if x has
  any child labelled a"; ⊤ is not materialised as a state — instead the
  state lists *a* in ``top_labels`` and the compiled tables keep, per
  label, the mask of states with a ⊤-edge on it, so ``t_pop`` can add
  them whenever such an element closes (this is how pure existence
  tests like ``a[b]`` witness an *empty* ``<b/>``);
- OR states may carry both label edges and ε-successors (needed for
  ``a//text() = v`` and similar shapes).

A state's ``eps``, ``top_labels`` and ``edges`` targets are immutable
tuples of sids and labels, which the cyclic collector stops walking
(:class:`AfaState`).

The :class:`WorkloadAutomata` aggregates all AFAs of a workload with
the global structures the XPush machine needs: reverse transitions
(δ⁻¹ with back-pointers, Sec. 4), the ε-DAG topological ranks that make
``eval()`` a single ordered pass, the terminal list feeding the atomic
predicate index, and each filter's *notification state* for the
early-notification optimisation.

``finalize()`` additionally compiles the whole workload into
:class:`CompiledMasks` — flat integer-bitmask tables where a set of AFA
states is one Python int with bit *sid* set.  The paper's Sec. 4
representation is "a sorted array of AFA states plus a 32 bit
signature"; following the compiled-automaton tradition (YFilter, the
lazy-DFA line of work), the mask tables turn every set operation on the
XPush cold path — ``eval``, δ⁻¹, ε-closures, accept/notification
lookups — into single-int bitwise AND/OR/NOT plus popcount, with no
frozenset churn and no ``tuple(sorted(...))`` at intern time.  They
are the only transition algebra the package runs; the frozenset
reference the differential walls hold them to lives with the tests
(``tests/oracle.py``).
"""

from __future__ import annotations

import enum
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from repro.afa.predicates import AtomicPredicate
from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.afa.codegen import CompiledHandlers
    from repro.xpath.ast import LocationPath, XPathFilter

WILDCARD = "*"
ATTRIBUTE_WILDCARD = "@*"


#: :func:`bits_of` keeps the lowest-bit peel for masks at most this wide
#: or with at most this many bits set (the measured crossover).
_PEEL_WIDTH = 2048
_PEEL_BITS = 16

#: ``eval`` and δ⁻¹ run over their (offset, mask) lanes once the argument
#: brings at least one bit per this many lanes; below that the bit sweep
#: fetches fewer table rows than the lanes cost shifts.  The measured
#: crossover: with 24 lanes the two cost the same at 12-16 bits on 95-word
#: masks and at 16-31 on 187-word ones, and a cold 2 000-filter pass
#: reads the same docs/s (±4 %) for every value from 1 to 8.
_LANES_PER_BIT = 2


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bit positions of *mask*, ascending — the sorted sid
    tuple a bitmask state set denotes (bit order *is* sid order).  The
    one bit-enumeration primitive under every :class:`CompiledMasks`
    sweep, O(words + set bits): a wide, populated mask is sliced once
    into 64-bit words and its bits are peeled from those small ints.
    Peeling the mask itself (``m & -m``, ``m ^= low``) is three big-int
    operations over every word *per bit*, O(bits × words) — ×3.5 slower
    at 12 000 bits / 90 set — but pays no per-word loop, so narrow or
    nearly empty masks, where it is the cheaper, keep it; the choice
    reads only the mask.  A negative int denotes no state set (its peel
    never ends) and raises :class:`ValueError`."""
    if mask <= 0:
        if mask:
            raise ValueError("negative mask")
        return ()
    out: list[int] = []
    append = out.append
    width = mask.bit_length()
    if width <= _PEEL_WIDTH or mask.bit_count() <= _PEEL_BITS:
        while mask:
            low = mask & -mask
            append(low.bit_length() - 1)
            mask ^= low
    else:
        base = -1
        for word in memoryview(mask.to_bytes((width + 63) // 64 * 8, "little")).cast("Q"):
            while word:
                low = word & -word
                append(base + low.bit_length())
                word ^= low
            base += 64
    return tuple(out)


class StateKind(enum.Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"

    def __repr__(self) -> str:
        return self.name


class AfaState:
    """One AFA state.  Identified workload-wide by its integer ``sid``
    (assigned in depth-first construction order — the paper's sort key).

    Its containers hold atoms only: ``eps`` and ``top_labels`` are
    tuples, and ``edges`` maps a label to a tuple that ``add_edge``
    replaces rather than appends to.  The collector untracks a tuple of
    atoms at its first collection and (before CPython 3.14) a dict of
    them at its first full one, so it walks the states of a compiled
    workload, not a dict, a list and a set beside each.
    """

    __slots__ = (
        "sid",
        "kind",
        "predicate",
        "edges",
        "eps",
        "top_labels",
        "rank",
        "owner",
    )

    def __init__(self, sid: int, kind: StateKind, predicate: AtomicPredicate | None = None):
        self.sid = sid
        self.kind = kind
        self.predicate = predicate
        self.edges: dict[str, tuple[int, ...]] = {}  # label -> target sids (δ)
        self.eps: tuple[int, ...] = ()  # ε-successors
        self.top_labels: tuple[str, ...] = ()  # labels with an edge to ⊤
        self.rank = 0  # ε-DAG topological rank (0 = no ε-successors)
        self.owner = -1  # index of the owning AFA in the workload

    @property
    def is_terminal(self) -> bool:
        return self.predicate is not None

    @property
    def is_connective(self) -> bool:
        """True when eval() may add this state (it has ε-successors)."""
        return bool(self.eps)

    def add_edge(self, label: str, target: int) -> None:
        self.edges[label] = self.edges.get(label, ()) + (target,)

    def outgoing_labels(self) -> frozenset[str]:
        """Labels on outgoing transitions (order optimisation, Sec. 5)."""
        return frozenset(self.edges) | frozenset(self.top_labels)

    def __repr__(self) -> str:
        tag = self.kind.name
        if self.is_terminal:
            tag += f"[{self.predicate}]"
        return f"<s{self.sid} {tag}>"


@dataclass
class AFA:
    """One filter's automaton: its initial state, oid and metadata.

    Filters with the same source share one AFA
    (:meth:`WorkloadAutomata.extend`): ``oid`` is the first one, the one
    it was compiled for; the oids it answers to are the workload's
    accept row of ``initial``."""

    oid: str
    initial: int
    source: str = ""
    state_sids: tuple[int, ...] = ()
    notification: int = -1  # first branching state (early notification)
    #: A retired AFA rides on in the sid space with every transition
    #: intact but answers to no oid (:meth:`WorkloadAutomata.extend`).
    retired: bool = False

    def __repr__(self) -> str:
        return f"AFA(oid={self.oid!r}, initial=s{self.initial}, states={len(self.state_sids)})"


class WorkloadAutomata:
    """All AFAs of a workload plus the global evaluation structures.

    A workload only ever *grows*: :meth:`extend` compiles new filters
    at the top of the sid space and :meth:`finalize` folds whatever was
    added since its last call into the indexes — the first call is
    simply the one that starts from empty.  Because different AFAs
    share no state, nothing recorded about an already-finalised state
    changes, so a set of AFA states restricted to an older block of
    sids is still a correct state of that block; only the oids an AFA
    of that block answers to may change.
    """

    def __init__(self) -> None:
        self.states: list[AfaState] = []
        self.afas: list[AFA] = []
        self.terminals: tuple[int, ...] = ()
        self.initial_sids: frozenset[int] = frozenset()
        self._oid_by_initial: dict[int, list[str]] = {}
        self._oid_by_notification: dict[int, list[str]] = {}
        self.masks: CompiledMasks | None = None  # built by finalize()
        #: oid -> index in ``afas`` of the one AFA answering to it.
        self._live: dict[str, int] = {}
        #: source -> (its parsed path, index in ``afas``) of a live AFA a
        #: copy of that filter answers through (see :meth:`extend`).
        self._sharing: dict[str, tuple["LocationPath", int]] = {}
        #: Retired passengers (see :meth:`extend`): how many AFAs, and
        #: how many of ``states`` they own.
        self.retired_filters = 0
        self.retired_states = 0
        # Lazy per-bound cache of workload-specialized handlers (the
        # "codegen" runtime); None caches a declined compilation so the
        # fallback warning fires once per workload, not once per machine.
        # The cache describes the workload as it was: growth drops it.
        self._codegen_cache: dict[int | None, "CompiledHandlers | None"] = {}
        # How much of ``states`` / ``afas`` finalize() has folded in.
        self._finalized_states = 0
        self._finalized_afas = 0

    # -- construction-time API (used by repro.afa.build) ----------------

    def new_state(self, kind: StateKind, predicate: AtomicPredicate | None = None) -> AfaState:
        state = AfaState(len(self.states), kind, predicate)
        self.states.append(state)
        return state

    def extend(
        self, filters: "Sequence[XPathFilter]" = (), retire: Iterable[str] = ()
    ) -> "WorkloadAutomata":
        """Grow the workload in place: compile *filters* at the top of
        the sid space, finalise only the new states, and *retire* the
        given live oids.

        Copies compile once.  A filter with the source text and path of
        a live AFA gets no states of its own: its oid joins that AFA's
        accept and notification rows, so N copies answer as N automata
        would at the mask width of one.  An AFA takes a copy only while
        it keeps an oid outside *retire*; a filter without a source is
        never shared.

        An AFA whose last oid is retired stays in the sid space as an
        inert passenger — its states, edges, initial and notification
        bits are untouched, so every state set over the older block
        stays bit-identical — but it is dropped from the accept and
        notification maps, so no answer names it again.  The same call
        may retire an oid and define it anew.  Machines that share this
        workload see it change under them; callers that grow a workload
        own it.
        """
        from repro.afa.build import build_afa

        retire = list(retire)
        unknown = [oid for oid in retire if oid not in self._live]
        if unknown:
            raise WorkloadError(f"cannot retire unknown oids: {unknown[:8]}")
        oids = [f.oid for f in filters]
        taken = self._live.keys() - set(retire)
        if len(set(oids)) != len(oids) or not taken.isdisjoint(oids):
            raise WorkloadError("duplicate oids in workload")
        leaving = Counter(self._live[oid] for oid in retire)
        compiled: dict[str, tuple["LocationPath", int]] = {}
        joins: list[tuple[int, str]] = []
        try:
            for xpath_filter in filters:
                index = self._share(xpath_filter, leaving, compiled)
                if index is not None:
                    joins.append((index, xpath_filter.oid))
                    continue
                build_afa(self, xpath_filter)
                if xpath_filter.source:
                    compiled.setdefault(
                        xpath_filter.source, (xpath_filter.path, len(self.afas) - 1)
                    )
        except Exception:
            # A filter that does not compile leaves no half-built AFA,
            # and no copy has joined an AFA yet.
            del self.states[self._finalized_states :]
            del self.afas[self._finalized_afas :]
            raise
        for oid in retire:
            index = self._live.pop(oid)
            afa = self.afas[index]
            answering = self._oid_by_initial[afa.initial]
            answering.remove(oid)
            if afa.notification >= 0:
                self._oid_by_notification[afa.notification].remove(oid)
            if not answering:
                afa.retired = True
                self.retired_filters += 1
                self.retired_states += len(afa.state_sids)
                if self._sharing.get(afa.source, (None, -1))[1] == index:
                    del self._sharing[afa.source]
        if retire:
            self._codegen_cache.clear()
        self._sharing.update(compiled)
        self.finalize()
        for index, oid in joins:
            self._answer(index, oid)
        return self

    def _share(
        self,
        xpath_filter: "XPathFilter",
        leaving: Mapping[int, int],
        compiled: Mapping[str, tuple["LocationPath", int]],
    ) -> int | None:
        """The index of the AFA *xpath_filter* answers through instead
        of compiling its own: a live one with its source and path that
        keeps an oid outside this call's *leaving* counts, or one this
        call *compiled*.  The key is the source text, hashed once; the
        paths compare by identity when one parse made them both
        (:func:`repro.xpath.parser.parse_workload`)."""
        source = xpath_filter.source
        if not source:
            return None
        held = self._sharing.get(source)
        if held is not None and held[0] == xpath_filter.path:
            index = held[1]
            if len(self._oid_by_initial[self.afas[index].initial]) > leaving[index]:
                return index
        held = compiled.get(source)
        if held is not None and held[0] == xpath_filter.path:
            return held[1]
        return None

    def _answer(self, index: int, oid: str) -> None:
        """Make the AFA at *index* answer to *oid* too."""
        afa = self.afas[index]
        self._live[oid] = index
        self._oid_by_initial.setdefault(afa.initial, []).append(oid)
        if afa.notification >= 0:
            self._oid_by_notification.setdefault(afa.notification, []).append(oid)

    def finalize(self) -> "WorkloadAutomata":
        """Fold the states and AFAs added since the last call into the
        ranks, accept maps and compiled mask tables (all of them, the
        first time).

        Every state must be owned by exactly one AFA: the compiled
        per-filter owner masks resolve a state's filter through
        ``state.owner``, and an ownerless state would silently strip the
        wrong filter under early notification.  Each AFA must be one
        contiguous run of the sids it owns, with no edge or ε-arc
        leaving it: the compiled rows are stored relative to the run's
        first sid.
        """
        states = self.states
        fresh = states[self._finalized_states :]
        fresh_afas = self.afas[self._finalized_afas :]
        if self.masks is not None and not fresh and not fresh_afas:
            return self
        self._check_layout(fresh_afas)
        self.terminals += tuple(s.sid for s in fresh if s.is_terminal)
        self.initial_sids |= {afa.initial for afa in fresh_afas}
        for index, afa in enumerate(fresh_afas, self._finalized_afas):
            self._answer(index, afa.oid)
        self._compute_ranks(fresh)
        if self.masks is None:
            self.masks = CompiledMasks()
        self.masks.extend(self)
        self._finalized_states = len(states)
        self._finalized_afas = len(self.afas)
        self._codegen_cache.clear()
        return self

    def _check_layout(self, fresh_afas: list[AFA]) -> None:
        """The layout :class:`CompiledMasks` stores its rows in: the
        fresh AFAs tile the fresh sids in order, each one contiguous run
        of the states it owns, and no edge or ε-arc leaves its run."""
        states = self.states
        low = self._finalized_states
        for index, afa in enumerate(fresh_afas, self._finalized_afas):
            high = low + len(afa.state_sids)
            if afa.state_sids != tuple(range(low, high)):
                raise WorkloadError(
                    f"AFA {afa.oid!r} does not own one contiguous run of sids from {low}"
                )
            for state in states[low:high]:
                if state.owner != index:
                    raise WorkloadError(f"AFA {afa.oid!r} lists s{state.sid}, which it does not own")
                for target in (*state.eps, *(t for ts in state.edges.values() for t in ts)):
                    if not low <= target < high:
                        raise WorkloadError(
                            f"state {state.sid} of AFA {afa.oid!r} reaches s{target} outside it"
                        )
            low = high
        if low != len(states):
            raise WorkloadError(
                f"states without an owning AFA: {list(range(low, len(states)))[:8]}"
            )

    def _compute_ranks(self, fresh: list[AfaState]) -> None:
        """Topological rank over the ε-DAG: a connective's rank exceeds
        all its ε-successors', so one ordered pass settles eval().  A
        state's ε-successors belong to its own AFA, so the ranks of
        *fresh* states never reach into older ones.  Children first on
        an explicit stack: a chain too deep for the interpreter's must
        not fail here, after the indexes have taken the fresh states."""
        states = self.states
        ranked: set[int] = set()  # connectives only: an ε-free state keeps rank 0
        for root in fresh:
            stack = [root] if root.eps and root.sid not in ranked else []
            while stack:
                state = stack[-1]
                waiting = [
                    states[c] for c in state.eps if states[c].eps and c not in ranked
                ]
                if waiting:
                    stack.extend(waiting)
                    continue
                stack.pop()
                ranked.add(state.sid)
                state.rank = 1 + max(states[c].rank for c in state.eps)

    def compiled_handlers(self, max_handlers: int | None = None) -> "CompiledHandlers | None":
        """The workload-specialized compiled handlers for the
        ``"codegen"`` runtime, built on first request and cached per
        *max_handlers* bound — machines over the same workload (clones,
        shards, a layered engine's base layer across delta epochs)
        share one compilation.

        Returns None — after warning exactly once — when the workload
        exceeds the bound or the emitter declines it; callers fall back
        to the interpreted bitmask tables, never a hard error.
        """
        if self.masks is None:
            raise WorkloadError(
                "codegen needs a finalized workload (call finalize())"
            )
        cache = self._codegen_cache
        if max_handlers in cache:
            return cache[max_handlers]
        from repro.afa.codegen import compile_handlers

        handlers: "CompiledHandlers | None"
        try:
            handlers = compile_handlers(self, max_handlers)
        except Exception as exc:
            warnings.warn(
                f"codegen runtime unavailable for this workload ({exc}); "
                f"falling back to the bitmask runtime",
                RuntimeWarning,
                stacklevel=2,
            )
            handlers = None
        cache[max_handlers] = handlers
        return handlers

    def accepted_oids(self, qb: Iterable[int]) -> frozenset[str]:
        """The oids whose initial state is in *qb* (the set twin of
        :meth:`CompiledMasks.accepted_oids`, for naming an AFA's oids)."""
        out: list[str] = []
        for sid in self.initial_sids.intersection(qb):
            out.extend(self._oid_by_initial[sid])
        return frozenset(out)

    # -- statistics -------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.states)

    def describe(self) -> str:
        lines = [f"workload: {len(self.afas)} AFAs, {len(self.states)} states"]
        for afa in self.afas:
            lines.append(f"  {afa!r}")
        return "\n".join(lines)


class LaneProfile(NamedTuple):
    """The regularity the word-parallel path of :class:`CompiledMasks`
    depends on (:meth:`CompiledMasks.lane_profile`)."""

    states: int
    #: Per ε-rank ≥ 1, its (connective kind, child − parent) lanes.
    eps_lanes: tuple[int, ...]
    #: Per label with a δ⁻¹ edge, its distinct target − source offsets.
    rev_lanes: dict[str, int]
    #: ``eval`` runs over the lanes from this many candidate bits up
    #: (the state's own plus the workload's NOT cone), below it sweeps.
    eval_lane_bits: int


class CompiledMasks:
    """Flat bitmask tables for a finalized workload (the compiled AFA
    runtime).  A *state set* is one int: bit *sid* set ⇔ sid present.

    Every transition here must agree exactly with the frozenset
    reference algebra of ``tests/oracle.py`` — the differential walls
    (`tests/xpush/test_runtime_differential`, `tests/xpush/test_kernels`)
    enforce that.

    Layout: each AFA is one contiguous run of sids (``finalize()``
    refuses any other), and every ε-arc, label edge and owner of a
    state stays inside its AFA.  So the per-sid rows — ε-successors,
    both ε-closures, the owner mask, the δ⁻¹ sources and the ε-closed
    t_push targets — are stored *AFA-local*: shifted down to the AFA's
    first sid (``_bases[sid]``), an int as wide as one AFA (≤ 18 bits on
    the bundled workloads) rather than as the workload, so the tables
    grow linearly with the workload.  Argument and result masks, lanes,
    rank buckets and the whole-workload masks (terminal, initial,
    notification, ⊤-edge, ``not_up_mask``) stay whole-width.

    Cost model: ``eval`` and δ⁻¹ — the two halves of a ``t_pop`` miss —
    cost O(min(lanes, set bits) × words).  :mod:`repro.afa.build`
    numbers each filter's states in recursion order, so the transition
    relation is nearly a constant: every δ⁻¹ edge of a label has one of
    a few ``target − source`` offsets, every ε-arc of a rank and
    connective kind one of a few ``child − parent`` offsets.
    :meth:`extend` files each edge under its offset as it appends it —
    a *lane* is ``(offset, mask of the states at the edge's head)`` —
    and a transition is then one shift and a few ANDs/ORs per lane,
    every filter's automaton advancing in lockstep, with no bit
    enumerated and no row fetched.  The lanes only grow (a new sid ORs
    its bit into one; no older bit moves), and they are derived data,
    never persisted.  An irregular workload — one filter with hundreds
    of differently shaped predicates — can have more lanes than a
    state has bits; then the *sweep* is cheaper: enumerate the argument
    with :func:`bits_of` (one word slice per call, then small-int work
    per set bit), OR the local rows of the bits that fall within
    ``_SPAN`` sids of each other at their offsets into one small int,
    and shift that into the result once — O(words × (set bits / bits
    per span)) plus small-int work per bit.  Which of the two a call
    takes is one comparison of the argument's popcount with the lane
    count (``_LANES_PER_BIT``), read from the mask and the tables
    alone; :meth:`lane_profile` reports both sides of it.  Every other
    method is a sweep.  Negative masks are rejected on either path.
    """

    __slots__ = (
        "state_count",
        "all_mask",
        "terminal_mask",
        "not_mask",
        "initial_mask",
        "notification_mask",
        "not_up_mask",
        "_afa_count",
        "_bases",
        "_view",
        "_eps_masks",
        "_closure_masks",
        "_up_masks",
        "_rank_buckets",
        "_eps_lanes",
        "_eps_lane_count",
        "_rev_sources",
        "_rev_targets_by_label",
        "_rev_lanes",
        "_push_by_label",
        "_push_elem_wild",
        "_push_attr_wild",
        "_top_masks",
        "_top_wild_mask",
        "_top_attr_wild_mask",
        "_owner_masks",
        "_oid_by_initial",
        "_oid_by_notification",
    )

    def __init__(self, workload: WorkloadAutomata | None = None):
        self.state_count = 0
        self._afa_count = 0
        self.all_mask = 0
        self.terminal_mask = self.not_mask = 0
        self.initial_mask = self.notification_mask = self.not_up_mask = 0
        self._bases: list[int] = []
        self._view = (1 << _SPAN) - 1
        self._eps_masks: list[int] = []
        self._closure_masks: list[int] = []
        self._up_masks: list[int] = []
        self._rank_buckets: list[list[int]] = []
        self._eps_lanes: list[dict[int, list[int]]] = []
        self._eps_lane_count = 0
        self._rev_sources: dict[str, dict[int, int]] = {}
        self._rev_targets_by_label: dict[str, int] = {}
        self._rev_lanes: dict[str, dict[int, int]] = {}
        self._push_by_label: dict[str, tuple[int, dict[int, int], int]] = {}
        self._push_elem_wild = self._push_attr_wild = None
        self._top_masks: dict[str, int] = {}
        self._top_wild_mask = self._top_attr_wild_mask = 0
        self._owner_masks: list[int] = []
        self._oid_by_initial: dict[int, list[str]] = {}
        self._oid_by_notification: dict[int, list[str]] = {}
        if workload is not None:
            self.extend(workload)

    def extend(self, workload: WorkloadAutomata) -> None:
        """Append the rows of the states and AFAs *workload* gained
        since the last call; no row of an older state changes (its
        edges and ε-arcs stay inside its own AFA).  Per-label tables
        gain bits and entries for the new sids only."""
        states = workload.states
        start = self.state_count
        fresh = states[start:]
        n = len(states)
        self.state_count = n
        self.all_mask = (1 << n) - 1

        # Where each fresh sid's AFA starts, its owner row (the whole
        # AFA, early notification strips a notified filter's automaton),
        # and the accept / notification bits.  A retired AFA keeps its
        # initial and notification bits: the transitions must not notice.
        afa_start = self._afa_count
        fresh_afas = workload.afas[afa_start:]
        self._afa_count = len(workload.afas)
        bases, widest = self._bases, 0
        for afa in fresh_afas:
            base, width = afa.state_sids[0], len(afa.state_sids)
            bases.extend([base] * width)
            self._owner_masks.extend([(1 << width) - 1] * width)
            widest = max(widest, width)
            self.initial_mask |= 1 << afa.initial
            if afa.notification >= 0:
                self.notification_mask |= 1 << afa.notification
        self._view |= (1 << (_SPAN + widest)) - 1
        # The oid maps behind t_accept / notification answers are the
        # workload's own, so retiring an oid there is retiring it here.
        self._oid_by_initial = workload._oid_by_initial
        self._oid_by_notification = workload._oid_by_notification

        # Most rows are a single local bit or a copy of another row:
        # build each such int once and let the rows share it (_or_all).
        local_bits = [1 << offset for offset in range(widest)]
        not_mask = 0
        eps_masks, rev_sources = self._eps_masks, self._rev_sources
        # δ⁻¹ (label -> source sids) and ε-parents of the fresh states:
        # no edge or ε-arc leaves its AFA, so only fresh states name them.
        rev: dict[int, dict[str, list[int]]] = {}
        eps_parents: dict[int, list[int]] = {}
        for state in fresh:
            for label, targets in state.edges.items():
                for target in targets:
                    rev.setdefault(target, {}).setdefault(label, []).append(state.sid)
            for child in state.eps:
                eps_parents.setdefault(child, []).append(state.sid)
        rev_lanes, top_masks = self._rev_lanes, self._top_masks
        # Rank-bucketed eval structures: per ε-rank ≥ 1, one candidate
        # mask per connective kind, so eval_closure is a rank-by-rank
        # sweep over (candidates ∩ bucket) with one subset/overlap test
        # per fired state — no sorting, no frozenset allocation.  (A
        # rank-r connective has a rank r-1 ε-successor, so no bucket
        # below the highest is empty.)
        # Beside each bucket, the rank's ε-lanes: ``child − parent`` ->
        # (AND, NOT, OR) masks of the parents with a child that far off.
        buckets, eps_lanes = self._rank_buckets, self._eps_lanes
        for state in fresh:
            sid, base = state.sid, bases[state.sid]
            bit = 1 << sid
            if state.is_terminal:
                self.terminal_mask |= bit
            if state.kind is StateKind.NOT:
                not_mask |= bit
            eps_masks.append(_or_all(local_bits[child - base] for child in state.eps))
            for label, sources in rev.get(sid, {}).items():
                rev_sources.setdefault(label, {})[sid] = _or_all(
                    local_bits[source - base] for source in sources
                )
                lanes = rev_lanes.setdefault(label, {})
                for source in sources:
                    offset = sid - source
                    lanes[offset] = lanes.get(offset, 0) | bit
            for label in state.top_labels:
                top_masks[label] = top_masks.get(label, 0) | bit
            if state.eps:
                while len(buckets) < state.rank:
                    buckets.append([0, 0, 0])
                    eps_lanes.append({})
                kind = 0 if state.kind is StateKind.AND else 1 if state.kind is StateKind.NOT else 2
                buckets[state.rank - 1][kind] |= bit
                lanes = eps_lanes[state.rank - 1]
                for child in state.eps:
                    lane = lanes.setdefault(child - sid, [0, 0, 0])
                    if not lane[kind]:
                        self._eps_lane_count += 1
                    lane[kind] |= bit
        for label, lanes in rev_lanes.items():  # a label's targets: its lanes' union
            self._rev_targets_by_label[label] = _or_all(lanes.values())
        self.not_mask |= not_mask
        self._top_wild_mask = top_masks.get(WILDCARD, 0)
        self._top_attr_wild_mask = top_masks.get(ATTRIBUTE_WILDCARD, 0)

        # Per-sid transitive ε-closures, both directions.  The ε-graph
        # is a DAG (finalize() computed topological ranks over it), so
        # one pass in rank order suffices: a state's closure is itself
        # plus the union of its ε-children's closures, and its upward
        # closure is itself plus its ε-parents' upward closures — all
        # inside one AFA, so all local to its first sid.  These tables
        # turn every runtime closure into a single OR-sweep over the
        # argument's bits — no frontier loop, no revisits.
        by_rank = sorted(fresh, key=lambda s: s.rank)
        closure_masks, up_masks = self._closure_masks, self._up_masks
        closure_masks.extend([0] * len(fresh))
        up_masks.extend([0] * len(fresh))
        for state in by_rank:  # children (lower rank) first
            mask = local_bits[state.sid - bases[state.sid]]
            for child in state.eps:
                mask |= closure_masks[child]
            closure_masks[state.sid] = mask
        for state in reversed(by_rank):  # parents (higher rank) first
            mask = local_bits[state.sid - bases[state.sid]]
            for parent in eps_parents.get(state.sid, ()):
                mask |= up_masks[parent]
            up_masks[state.sid] = mask
        self.not_up_mask = _or_rows(up_masks, bases, not_mask, self.not_up_mask)

        self._extend_push_rows(fresh)

    def _extend_push_rows(self, fresh: list[AfaState]) -> None:
        """Label-edge index for t_push, with the targets' ε-closure
        baked in: per label, the mask of source states carrying that
        label, a per-source table of the already-closed target sets
        (local to the source's AFA, like every row), and the union of
        all of them — t_push is one AND, a sweep over the (few) enabled
        sources and zero closure calls, and when every source for the
        label is enabled (the common case at shallow depths under
        top-down evaluation) the sweep collapses to returning the
        precomputed union.

        The matching wildcard row is folded into every concrete label
        so t_push is a single lookup; the bare wildcard rows stay in
        the table as the fallback for labels with no concrete edge."""
        closure_masks, bases = self._closure_masks, self._bases
        fresh_rows: dict[str, dict[int, int]] = {}
        for state in fresh:
            for label, targets in state.edges.items():
                fresh_rows.setdefault(label, {})[state.sid] = _or_all(
                    closure_masks[target] for target in targets
                )
        if not fresh_rows:
            return
        table = self._push_by_label
        wildcards = (WILDCARD, ATTRIBUTE_WILDCARD)
        # Concrete labels first: a label seen for the first time starts
        # from the wildcard row as it stood, then every label takes the
        # fresh sources of its own row and of its wildcard's.
        for label in (table.keys() | fresh_rows.keys()).difference(wildcards):
            wild = ATTRIBUTE_WILDCARD if label.startswith("@") else WILDCARD
            added = dict(fresh_rows.get(wild, ()))
            for sid, closed in fresh_rows.get(label, {}).items():
                wild_closed = added.get(sid)
                added[sid] = closed if wild_closed is None else wild_closed | closed
            if not added:
                continue
            entry = table.get(label)
            if entry is None and wild in table:
                sources_mask, by_source, union = table[wild]
                entry = (sources_mask, dict(by_source), union)
            table[label] = _with_sources(entry, added, bases)
        for wild in wildcards:
            if wild in fresh_rows:
                table[wild] = _with_sources(table.get(wild), fresh_rows[wild], bases)
        self._push_elem_wild = table.get(WILDCARD)
        self._push_attr_wild = table.get(ATTRIBUTE_WILDCARD)

    # -- set algebra on masks --------------------------------------------

    @staticmethod
    def mask_of(sids: Iterable[int]) -> int:
        """The mask denoting the set *sids*."""
        return _mask_of(sids)

    # -- emit-ready table exports (consumed by repro.afa.codegen) ---------
    # The rows are AFA-local; every export shifts them back to whole
    # width, so its consumer sees the sid space unchanged.

    def rev_rows(self) -> dict[str, dict[int, int]]:
        """δ⁻¹ regrouped by label: ``label -> {target sid -> mask of
        source states}`` — the per-label view the code generator
        specializes pop handlers from."""
        bases = self._bases
        return {
            label: {sid: row << bases[sid] for sid, row in rows.items()}
            for label, rows in self._rev_sources.items()
        }

    def push_rows(self) -> dict[str, tuple[int, dict[int, int], int]]:
        """The t_push label index: ``label -> (sources mask, {source
        sid -> ε-closed targets mask}, union of all target closures)``,
        wildcard rows already folded into concrete labels."""
        bases = self._bases
        return {
            label: (sources_mask, {sid: row << bases[sid] for sid, row in by_source.items()}, union)
            for label, (sources_mask, by_source, union) in self._push_by_label.items()
        }

    def top_rows(self) -> dict[str, int]:
        """⊤-edge owners per label (owners of ``s --a--> ⊤``)."""
        return dict(self._top_masks)

    def eps_rows(self) -> list[int]:
        """Per-sid mask of direct ε-successors."""
        return [row << base for row, base in zip(self._eps_masks, self._bases)]

    def up_rows(self) -> list[int]:
        """Per-sid transitive upward ε-closure masks."""
        return [row << base for row, base in zip(self._up_masks, self._bases)]

    def rank_bucket_rows(self) -> tuple[tuple[int, int, int], ...]:
        """Per ε-rank ≥ 1: (AND, NOT, OR) connective masks."""
        return tuple((ands, nots, ors) for ands, nots, ors in self._rank_buckets)

    def lane_profile(self) -> LaneProfile:
        """How regular the workload's transition relation is, and from
        which popcount ``eval`` therefore takes the lanes."""
        return LaneProfile(
            states=self.state_count,
            eps_lanes=tuple(
                sum(1 for lane in lanes.values() for parents in lane if parents)
                for lanes in self._eps_lanes
            ),
            rev_lanes={label: len(lanes) for label, lanes in self._rev_lanes.items()},
            eval_lane_bits=-(-self._eps_lane_count // _LANES_PER_BIT),
        )

    # -- runtime transitions ---------------------------------------------

    def eval_closure(self, qb_mask: int) -> int:
        """eval(q) of Sec. 3.2: *qb_mask* saturated with every connective
        it implies — an AND when all its ε-successors are present, an OR
        when some is, a NOT when its successor is absent."""
        if qb_mask < 0:
            raise ValueError("negative mask")
        # The sweep visits every present state and every NOT candidate.
        if (qb_mask | self.not_up_mask).bit_count() * _LANES_PER_BIT >= self._eps_lane_count:
            return self._eval_by_lanes(qb_mask)
        return self._eval_by_sweep(qb_mask)

    def _eval_by_lanes(self, result: int) -> int:
        """Rank by rank, all connectives of the rank at once: shifting
        *result* by a lane's offset lines every child up with its
        parent, so an AND fires where no lane misses a child, a NOT
        where its lane does, an OR where some lane finds one."""
        # ``lane ^ (lane & present)`` is ``lane & ~present`` without a
        # negative int, whose two's-complement pass triples the cost.
        for (and_bucket, _, _), lanes in zip(self._rank_buckets, self._eps_lanes):
            missing = fired = 0
            for offset, (ands, nots, ors) in lanes.items():
                present = result >> offset if offset >= 0 else result << -offset
                if ands:
                    missing |= ands ^ (ands & present)
                if nots:
                    fired |= nots ^ (nots & present)
                if ors:
                    fired |= ors & present
            result |= fired | (and_bucket ^ missing)  # missing ⊆ and_bucket
        return result

    def _eval_by_sweep(self, qb_mask: int) -> int:
        """Rank by rank, one subset/overlap test per candidate
        connective against its own row of ε-successors."""
        result = qb_mask
        bases, eps, view = self._bases, self._eps_masks, self._view
        # Candidate connectives: every NOT state plus the upward
        # ε-closure of the present states and of the NOTs (the NOT part
        # is the precomputed ``not_up_mask``).
        seen = _or_rows(self._up_masks, bases, qb_mask, self.not_up_mask)
        for buckets in self._rank_buckets:
            # States of one rank never feed each other, so the rank's
            # candidates are tested against *result* as the rank found
            # it; with none left, no higher rank can fire either.
            pending = seen & ~result
            if not pending:
                break
            fired = 0
            for kind, bucket in enumerate(buckets):
                if bucket & pending:
                    fired = _fire(kind, bucket & pending, eps, bases, view, result, fired)
            result |= fired
        return result

    def delta_inverse(self, evaluated_mask: int, label: str, is_attribute: bool) -> int:
        """δ⁻¹(q, a) = {s' | δ(s', a) ∩ q ≠ ∅}, plus the ⊤-edge states
        for *label* (an element labelled *a* closing always witnesses
        existence edges on *a*)."""
        if evaluated_mask < 0:
            raise ValueError("negative mask")
        out = self._top_masks.get(label, 0)
        out |= self._top_attr_wild_mask if is_attribute else self._top_wild_mask
        for edge in (label, ATTRIBUTE_WILDCARD if is_attribute else WILDCARD):
            hits = evaluated_mask & self._rev_targets_by_label.get(edge, 0)
            if hits:
                lanes = self._rev_lanes[edge]
                if hits.bit_count() * _LANES_PER_BIT >= len(lanes):
                    out = _lift_by_lanes(lanes, hits, out)
                else:
                    out = _or_rows(self._rev_sources[edge], self._bases, hits, out)
        return out

    def push_targets_closure(
        self, enabled_mask: int, label: str, is_attribute: bool
    ) -> int:
        """close(δ(enabled, label)), the states enabled on a child
        labelled *label* (top-down pruning).  The target closures are
        baked into the label index at build time (wildcard rows
        pre-merged), so t_push costs at most one sweep over the enabled
        sources for the label."""
        entry = self._push_by_label.get(label)
        if entry is None:
            entry = self._push_attr_wild if is_attribute else self._push_elem_wild
            if entry is None:
                return 0
        sources_mask, by_source, full_union = entry
        m = enabled_mask & sources_mask
        return full_union if m == sources_mask else _or_rows(by_source, self._bases, m)

    def epsilon_closure(self, mask: int) -> int:
        """close(q): *mask* plus every state its ε-successors reach."""
        return _or_rows(self._closure_masks, self._bases, mask, mask)

    def accepted_oids(self, qb_mask: int) -> frozenset[str]:
        """t_accept: the oids whose initial state is in *qb_mask*."""
        hits = qb_mask & self.initial_mask
        if not hits:
            return _EMPTY_OIDS
        by_initial = self._oid_by_initial
        return frozenset(oid for sid in bits_of(hits) for oid in by_initial[sid])

    def notified_oids(self, noted_mask: int) -> frozenset[str]:
        """The oids whose notification state is in *noted_mask*."""
        by_notification = self._oid_by_notification
        return frozenset(
            oid
            for sid in bits_of(noted_mask & self.notification_mask)
            for oid in by_notification[sid]
        )

    def afa_states(self, noted_mask: int) -> int:
        """Every state of the AFAs owning the states in *noted_mask*
        (early notification strips a notified filter's states)."""
        return _or_rows(self._owner_masks, self._bases, noted_mask)


#: The sweeps gather the AFA-local rows of set bits whose AFAs start
#: within this many sids of the first one into one small int, and
#: shift that into the whole-width result once (see CompiledMasks).
_SPAN = 1024


def _or_rows(
    rows: Sequence[int] | Mapping[int, int], bases: Sequence[int], mask: int, out: int = 0
) -> int:
    """*out* OR-ed with ``rows[sid] << bases[sid]`` for every sid in
    *mask*: rows within ``_SPAN`` sids of each other are OR-ed at their
    offsets into one small int, which is shifted into *out* once."""
    low = acc = 0
    for sid in bits_of(mask):
        at = bases[sid] - low
        if at <= _SPAN:
            acc |= rows[sid] << at
        else:
            out |= acc << low
            low = bases[sid]
            acc = rows[sid]
    return out | acc << low


def _lift_by_lanes(lanes: Mapping[int, int], hits: int, out: int) -> int:
    """*out* OR-ed with the sources of *hits*: each lane's targets step
    back to their sources by the lane's offset, all at once."""
    for offset, targets in lanes.items():
        out |= (hits & targets) >> offset if offset >= 0 else (hits & targets) << -offset
    return out


def _fire(
    kind: int,
    candidates: int,
    eps: Sequence[int],
    bases: Sequence[int],
    view: int,
    result: int,
    out: int,
) -> int:
    """*out* OR-ed with the connectives in *candidates*, all of one
    *kind* (0 AND, 1 NOT, 2 OR), that fire on *result*: an AND when its
    ε-row lies inside *result*, a NOT when the row misses it, an OR when
    the row meets it.  *result* is cut once per span into a small
    *view*-wide window that every candidate of the span tests its
    AFA-local row against."""
    low, high = 0, -1
    fired = window = 0
    for sid in bits_of(candidates):
        at = bases[sid]
        if at > high:
            out |= fired << low
            low, high, fired = at, at + _SPAN, 0
            window = result >> at & view
        row = eps[sid]
        hit = window >> (at - low) & row
        if hit == row if kind == 0 else not hit if kind == 1 else hit:
            fired |= 1 << (sid - low)
    return out | fired << low


def _mask_of(sids: Iterable[int]) -> int:
    mask = 0
    for sid in sids:
        mask |= 1 << sid
    return mask


def _or_all(masks: Iterable[int]) -> int:
    """The OR of *masks*; of exactly one, that very object — a shared
    row is stored once."""
    out = None
    for mask in masks:
        out = mask if out is None else out | mask
    return out or 0


def _with_sources(
    entry: tuple[int, dict[int, int], int] | None,
    added: Mapping[int, int],
    bases: Sequence[int],
) -> tuple[int, dict[int, int], int]:
    """A ``_push_by_label`` entry grown by the *added* (AFA-local)
    source rows; its sources mask and union are whole-width."""
    sources_mask, by_source, union = entry or (0, {}, 0)
    for sid, closed in added.items():
        by_source[sid] = closed
        sources_mask |= 1 << sid
        union |= closed << bases[sid]
    return sources_mask, by_source, union


_EMPTY_OIDS: frozenset[str] = frozenset()

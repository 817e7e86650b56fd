"""Interned XPush states and their transition tables (Sec. 4).

The paper represents an XPush state as "a sorted array of AFA states,
plus a 32 bit signature (hash value)", with all discovered states stored
"in a hash table indexed by their signature", and the six transition
functions as arrays of hash tables hanging off the states.  This module
is the Python equivalent, in one representation for every runtime: a
state set is a single Python int *mask* with bit *sid* set ⇔ AFA state
*sid* present — the sorted array and its signature in one value — and
states are interned by that int, an O(1) hash with no sorting and no
tuple allocation on the cold path.  The ``sids`` view (the paper's
sorted array) is materialised lazily from the mask for repr, tracing,
dot export and the differential tests.

- a bottom-up state (:class:`XPushState`) carries its ``t_pop`` and
  ``t_badd`` memo tables, the precomputed ``t_accept`` answer and the
  early-notification payload;
- a top-down state (:class:`XPushTopState`) carries its ``t_push`` and
  ``t_value`` memo tables (without top-down pruning there is exactly
  one, matching the paper's single-``qt0`` bottom-up machine), and the
  *leaf* memo: for a child that holds only text, the pop entry the
  child's three events end in, keyed by label and the value's answer id;
- :class:`StateStore` is the signature-indexed intern table; it also
  carries the counters (states created, sizes) behind Figs. 6/7/10/11
  and the byte-level memory accounting behind the Sec. 6 memory
  manager (``resident_bytes`` / ``table_entries``).

Interning means state identity *is* set equality, so every memo table
can key on the interned object's ``uid`` — each SAX event costs a few
dict probes once the relevant states exist, which is the O(1) per-event
claim of Sec. 3.1.  Uids are drawn from monotonic counters (never
reused), so a memo entry keyed on an evicted state's uid can go stale
but can never alias a later state.

CLOCK reference bits (``ref``, read by :meth:`StateStore.sweep_epoch`)
are set where a state is *returned*, never where its table is probed:
by an intern (:meth:`StateStore.intern_bottom` / ``intern_top``) and by
the machine on every memo hit's target.  That is enough because of one
invariant.  Within a document every register and stack state —
everything whose tables the machine probes — is one of those, or a
sweep root (``empty``, ``qt0``, the registers ``_qb`` / ``_qt``), and
sweeps run only at document boundaries.  So a probed table's owner was
marked in the current epoch when it became a register, and marking it
again on each probe would change nothing.

Eviction has one routine, :meth:`StateStore.sweep_epoch`: it deports
states — memo tables, intern slot and mask — in clock-hand order and
prunes the surviving entries that named them.  The reference bits pick
the cold states; a *forced* epoch ignores them, for a working set that
outgrew the bound, so the bound holds whatever its size.

Memory accounting is an estimate, deliberately cheap: interning a state
adds a calibrated per-object cost plus the size of its mask — an int
as wide as the workload's highest member sid, whatever the state's
size — and every memo-table insertion adds :data:`ENTRY_BYTES` (a dict
slot plus the small key/value objects a typical entry owns).  The estimates are
calibrated from ``sys.getsizeof`` at import time, and the incremental
bookkeeping is checked against a from-scratch :meth:`StateStore.recount`
walk by the test suite.
"""

from __future__ import annotations

import sys
from typing import Hashable, Iterable

from repro.afa.automaton import CompiledMasks, bits_of

def _dict_slot_bytes() -> int:
    probe: dict = {}
    baseline = sys.getsizeof(probe)
    for i in range(1024):
        probe[i] = None
    return max(32, (sys.getsizeof(probe) - baseline) // 1024)


#: Estimated bytes per memo-table entry: one dict slot (amortised over
#: the table's load factor) plus a typical key object and, for t_pop,
#: the (state, notified) result tuple.
ENTRY_BYTES = _dict_slot_bytes() + 72


class XPushState:
    """One interned bottom-up state: a set of matched AFA subqueries."""

    __slots__ = (
        "uid",
        "mask",
        "size",
        "ref",
        "_sids",
        "pop_table",
        "add_table",
        "_accepts",
        "_masks",
    )

    def __init__(self, uid: int, mask: int, masks: CompiledMasks):
        self.uid = uid
        self.mask = mask
        self._sids: tuple[int, ...] | None = None  # lazy view of the mask
        self.size = mask.bit_count()
        self.ref = True  # CLOCK reference bit (second-chance eviction)
        # t_pop memo: pop key -> (resulting state, oids notified early)
        self.pop_table: dict[Hashable, tuple["XPushState", frozenset[str]]] = {}
        # t_badd memo: other state uid -> resulting state
        self.add_table: dict[Hashable, "XPushState"] = {}
        # t_accept is lazy: almost every interned state is intermediate
        # and never asked for its accepts (only the document-root set
        # is, at endDocument), so computing it per intern is wasted
        # cold-path work.
        self._accepts: frozenset[str] | None = None
        self._masks = masks

    @property
    def accepts(self) -> frozenset[str]:
        """t_accept — the oids of filters this set accepts."""
        accepts = self._accepts
        if accepts is None:
            accepts = self._accepts = self._masks.accepted_oids(self.mask)
        return accepts

    @property
    def sids(self) -> tuple[int, ...]:
        """Sorted sid tuple — the paper's sorted array."""
        sids = self._sids
        if sids is None:
            sids = self._sids = bits_of(self.mask)
        return sids

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        preview = ",".join(str(s) for s in self.sids[:8])
        if len(self.sids) > 8:
            preview += ",…"
        return f"<Qb#{self.uid} {{{preview}}}>"


class XPushTopState:
    """One interned top-down state: the set of *enabled* AFA states.

    ``mask`` (and so ``sids``) is None in the unpruned machine — the
    single top-down state ``qt0`` of Sec. 3.2, where every AFA state
    counts as enabled.

    ``leaf_table[label][key]`` is what ``start_element(label);
    text(v); end_element(label)`` computes under this state, for a
    value *v* whose answer id is *key*: the t_pop entry ``(lifted,
    notified)`` of Fig. 2's three steps, stored once (``XPushMachine.leaf``).
    Each inner entry counts as one memo entry.
    """

    __slots__ = ("uid", "mask", "ref", "_sids", "push_table", "value_table", "leaf_table")

    def __init__(self, uid: int, mask: int | None):
        self.uid = uid
        self.mask = mask
        self._sids: frozenset[int] | None = None  # lazy view of the mask
        self.ref = True  # CLOCK reference bit (second-chance eviction)
        self.push_table: dict[str, "XPushTopState"] = {}  # t_push memo
        self.value_table: dict[int, "XPushState"] = {}  # t_value memo, by answer id
        self.leaf_table: dict[str, dict[int, tuple["XPushState", frozenset[str]]]] = {}

    @property
    def leaf_entries(self) -> int:
        return sum(map(len, self.leaf_table.values()))

    @property
    def sids(self) -> frozenset[int] | None:
        sids = self._sids
        if sids is None and self.mask is not None:
            sids = self._sids = frozenset(bits_of(self.mask))
        return sids

    @property
    def size(self) -> int:
        return self.mask.bit_count() if self.mask is not None else 0

    def __repr__(self) -> str:
        if self.mask is None:
            return f"<Qt#{self.uid} ALL>"
        return f"<Qt#{self.uid} |{self.size}|>"


#: Calibrated per-object base costs (slotted instance + its tables).
BOTTOM_STATE_BYTES = sys.getsizeof(object.__new__(XPushState)) + 2 * sys.getsizeof({})
TOP_STATE_BYTES = sys.getsizeof(XPushTopState(0, None)) + 3 * sys.getsizeof({})


def _bottom_cost(state: XPushState) -> int:
    return BOTTOM_STATE_BYTES + sys.getsizeof(state.mask)


def _top_cost(state: XPushTopState) -> int:
    mask = state.mask
    return TOP_STATE_BYTES + (0 if mask is None else sys.getsizeof(mask))


class StateStore:
    """Intern tables for bottom-up and top-down states, with counters.

    States hash by their mask int; *masks* (the workload's
    :class:`~repro.afa.automaton.CompiledMasks`) answers the two
    questions a state asks about its own mask — ``t_accept`` and
    whether it contains a predicate terminal.

    The store also keeps the memory manager's books: ``resident_bytes``
    estimates the bytes held by interned states plus memo-table
    entries, ``table_entries`` counts live entries.  The machine calls
    :meth:`note_entries` when it inserts an entry; eviction goes
    through :meth:`sweep_epoch` so the books stay balanced.
    """

    def __init__(self, masks: CompiledMasks):
        self._masks = masks
        self._bottom: dict[int, XPushState] = {}
        self._top: dict[int | None, XPushTopState] = {}
        self.bottom_size_total = 0  # sum of |state| over resident states
        # Uids never restart (a reused uid would alias stale memo keys).
        self._next_bottom_uid = 0
        self._next_top_uid = 0
        self.resident_bytes = 0
        self.table_entries = 0
        # CLOCK hands: the uid of the last state each ring's sweep reached.
        self.bottom_hand = self.top_hand = -1
        self.empty = self.intern_bottom(0)

    # -- memory accounting ----------------------------------------------

    def note_entries(self, count: int = 1) -> None:
        """Record *count* memo-table insertions (machine cold path)."""
        self.table_entries += count
        self.resident_bytes += count * ENTRY_BYTES

    def drop_entries(self, count: int) -> None:
        self.table_entries -= count
        self.resident_bytes -= count * ENTRY_BYTES

    def evict_state_tables(self, state: XPushState | XPushTopState) -> int:
        """Clear one state's memo tables; returns the entries dropped."""
        if isinstance(state, XPushState):
            dropped = len(state.pop_table) + len(state.add_table)
            state.pop_table.clear()
            state.add_table.clear()
        else:
            dropped = len(state.push_table) + len(state.value_table) + state.leaf_entries
            state.push_table.clear()
            state.value_table.clear()
            state.leaf_table.clear()
        if dropped:
            self.drop_entries(dropped)
        return dropped

    def prune_removed_entries(
        self, state: XPushState | XPushTopState, removed: set[int]
    ) -> int:
        """Drop one state's memo entries whose target is in *removed*
        (a set of ``id()``\\ s of deported states); returns the entries
        dropped.  Without this, surviving entries would pin the
        deported states' payloads live — the accounting gauge would
        fall while the actual heap did not."""
        dropped = 0
        if isinstance(state, XPushState):
            pop = state.pop_table
            stale = [key for key, (target, _n) in pop.items() if id(target) in removed]
            for key in stale:
                del pop[key]
            dropped += len(stale)
            add = state.add_table
            stale = [key for key, target in add.items() if id(target) in removed]
            for key in stale:
                del add[key]
            dropped += len(stale)
        else:
            push = state.push_table
            stale = [key for key, target in push.items() if id(target) in removed]
            for key in stale:
                del push[key]
            dropped += len(stale)
            value = state.value_table
            stale = [key for key, target in value.items() if id(target) in removed]
            for key in stale:
                del value[key]
            dropped += len(stale)
            for label, row in list(state.leaf_table.items()):
                stale = [key for key, (target, _n) in row.items() if id(target) in removed]
                for key in stale:
                    del row[key]
                dropped += len(stale)
                if not row:
                    del state.leaf_table[label]
        if dropped:
            self.drop_entries(dropped)
        return dropped

    def sweep_epoch(self, roots: Iterable, low: int, force: bool = False) -> tuple[int, int]:
        """One CLOCK epoch over both intern rings, fused into two
        passes; returns ``(entries_dropped, states_dropped)``.

        Pass 1 deports cold states (reference bit clear since the
        previous epoch): starting after each ring's hand (``bottom_hand``
        / ``top_hand``, the uid of the last state the previous epoch
        reached) and stopping as soon as ``resident_bytes`` reaches
        *low*, a cold state loses its memo tables and its intern slot —
        where the real memory lives, in the masks.  The target cap and
        the rotating hand are what make this a second-chance policy
        rather than a purge: a cold state the target spares keeps its
        tables, and wins them back outright if probed before the hand
        comes around again.  *force* ignores the reference bits, for a
        working set that outgrew the bound: every state is then a
        candidate in hand order.  *roots* (registers and the intern
        seeds) are never deported.

        Pass 2 runs only if anything was deported: it drops every
        surviving memo entry whose target left the ring — without this
        the entries would pin the deported payloads live (the gauge
        would fall but the heap would not) — and clears the surviving
        reference bits, opening the next epoch.  No mark-and-sweep
        reachability walk is needed: deportation is explicit, so "gone"
        is exactly the deported set."""
        keep = {id(root) for root in roots if root is not None}
        removed_ids: set[int] = set()
        dropped = 0
        for ring_is_bottom in (True, False):
            if self.resident_bytes <= low:
                break
            table = self._bottom if ring_is_bottom else self._top
            cost = _bottom_cost if ring_is_bottom else _top_cost
            hand = self.bottom_hand if ring_is_bottom else self.top_hand
            states = list(table.values())  # uids are in insertion order
            start = next((i for i, state in enumerate(states) if state.uid > hand), 0)
            for state in states[start:] + states[:start]:
                if self.resident_bytes <= low:
                    break
                hand = state.uid
                if (state.ref and not force) or id(state) in keep:
                    continue
                dropped += self.evict_state_tables(state)
                del table[state.mask]
                self.resident_bytes -= cost(state)
                if ring_is_bottom:
                    self.bottom_size_total -= state.size
                removed_ids.add(id(state))
            if ring_is_bottom:
                self.bottom_hand = hand
            else:
                self.top_hand = hand
        for state in self._bottom.values():
            if removed_ids:
                dropped += self.prune_removed_entries(state, removed_ids)
            state.ref = False
        for state in self._top.values():
            if removed_ids:
                dropped += self.prune_removed_entries(state, removed_ids)
            state.ref = False
        return dropped, len(removed_ids)

    def recount(self) -> tuple[int, int]:
        """(table_entries, resident_bytes) recomputed from scratch — the
        invariant the incremental bookkeeping must match (tests)."""
        entries = 0
        bytes_ = 0
        for state in self._bottom.values():
            entries += len(state.pop_table) + len(state.add_table)
            bytes_ += _bottom_cost(state)
        for state in self._top.values():
            entries += len(state.push_table) + len(state.value_table) + state.leaf_entries
            bytes_ += _top_cost(state)
        return entries, bytes_ + entries * ENTRY_BYTES

    # -- bottom-up -------------------------------------------------------

    def intern_bottom(self, mask: int) -> XPushState:
        """Intern by bitmask: one dict probe on an int key — no sorting,
        no tuple allocation on the cold path."""
        state = self._bottom.get(mask)
        if state is None:
            state = XPushState(self._next_bottom_uid, mask, self._masks)
            self._next_bottom_uid += 1
            self._bottom[mask] = state
            self.bottom_size_total += state.size
            self.resident_bytes += _bottom_cost(state)
        else:
            state.ref = True
        return state

    @property
    def bottom_count(self) -> int:
        return len(self._bottom)

    @property
    def average_bottom_size(self) -> float:
        """Average number of AFA states per XPush state (Figs. 7/11)."""
        if not self._bottom:
            return 0.0
        return self.bottom_size_total / len(self._bottom)

    def bottom_states(self) -> list[XPushState]:
        return list(self._bottom.values())

    # -- top-down --------------------------------------------------------

    def intern_top(self, mask: int | None) -> XPushTopState:
        """*mask* None is the unpruned machine's single ``qt0``."""
        state = self._top.get(mask)
        if state is None:
            state = XPushTopState(self._next_top_uid, mask)
            self._next_top_uid += 1
            self._top[mask] = state
            self.resident_bytes += _top_cost(state)
        else:
            state.ref = True
        return state

    @property
    def top_count(self) -> int:
        return len(self._top)

    def top_states(self) -> list[XPushTopState]:
        return list(self._top.values())

    # -- read-only probes (a predecessor store, XPushMachine.extend) -----

    def find_bottom(self, mask: int) -> XPushState | None:
        """The interned bottom-up state for *mask*, if any: no intern,
        no reference bit — a predecessor store is never written."""
        return self._bottom.get(mask)

    def find_top(self, mask: int | None) -> XPushTopState | None:
        return self._top.get(mask)

    # -- lifecycle -------------------------------------------------------

    def demote(self) -> None:
        """Shrink to what a predecessor is asked.  Only t_pop and
        t_push memos are carried, so t_badd, t_value and leaf entries
        go, and with them every bottom-up state that neither holds a
        t_pop memo nor is named by one — on a warmed store most states
        are intermediate t_badd unions."""
        named = {
            id(target)
            for state in self._bottom.values()
            for target, _notified in state.pop_table.values()
        }
        kept: dict[int, XPushState] = {}
        for mask, state in self._bottom.items():
            state.add_table.clear()
            if state.pop_table or id(state) in named:
                kept[mask] = state
        self._bottom = kept
        for top in self._top.values():
            top.value_table.clear()
            top.leaf_table.clear()
        self.bottom_size_total = sum(state.size for state in kept.values())
        self.table_entries, self.resident_bytes = self.recount()

    def close(self) -> None:
        """Drop every state and table.  The memo tables are cleared one
        by one: states point at each other through them, and a store
        that is merely forgotten is cyclic garbage only a full
        collection frees; emptied, reference counting frees it at
        once."""
        for state in self._bottom.values():
            state.pop_table.clear()
            state.add_table.clear()
        for top in self._top.values():
            top.push_table.clear()
            top.value_table.clear()
            top.leaf_table.clear()
        self._bottom.clear()
        self._top.clear()
        self.bottom_size_total = 0
        self.resident_bytes = 0
        self.table_entries = 0

    def reset(self) -> None:
        """Drop every state and table and start over — the paper's
        "brute force" update path (Sec. 8): equivalent to flushing an
        entire cache."""
        self.close()
        self.bottom_hand = self.top_hand = -1
        self.empty = self.intern_bottom(0)

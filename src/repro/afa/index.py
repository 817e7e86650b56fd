"""The atomic predicate index of Sec. 2.

Basic operation: *given a data value v, find which predicates from a
given collection of atomic predicates are true on v*.  The paper uses a
binary search tree over the predicate constants with the answer stored
per elementary interval; we implement the same idea with sorted arrays,
bisection and bitmasks.  Payloads are **bit positions** (the XPush
machine passes AFA terminal sids) and an answer is an int mask over
them, which is the machine's own state-set representation.

Table layout, built once by :meth:`AtomicPredicateIndex.freeze`:

- one :class:`_OrderedDomain` for the **numeric** constants and one for
  the **string** constants.  Each holds an ``=`` table and a ``!=``
  table (constant → bit positions, plus the all-``!=`` mask), and, over
  the sorted constants that actually carry ``< <= > >=``, the answer of
  those four operators on every elementary interval — ``gap[i]`` below
  the i-th such constant, ``on[i]`` exactly on it — built from
  suffix-ORs (``<``, ``<=``) and prefix-ORs (``>``, ``>=``).  A lookup
  in a domain is one bisection, two dict probes and a few int ORs;
  a workload that is almost all ``=`` pays almost nothing for the
  ordering tables;
- the mask of predicates true on **every** value (``TRUE``, and
  ``contains`` / ``starts-with`` with an empty pattern);
- per distinct ``contains`` pattern its bit positions, resolved with an
  Aho–Corasick automaton (the adaptation suggested in Sec. 2), and per
  distinct ``starts-with`` prefix its bit positions, probed once per
  distinct prefix *length*.

Numeric predicates are false on values that do not parse as numbers.
``nan`` does parse, compares unequal to everything, and so satisfies
exactly the numeric ``!=`` predicates; it is ordered against nothing,
so no elementary interval holds it.

The key of a value (:meth:`AtomicPredicateIndex.key_of`) is a small
int naming its *answer*: two values get equal ids exactly when the same
predicates are true on them.  That is the coarsest exact key, so a memo
keyed on it (the machine's ``t_value`` and leaf rows) holds one entry
per distinct answer, however many elementary intervals share it, and
an int hashes and compares in one step.  Ids are issued on first touch
(lazily, like XPush states), or eagerly for every elementary interval
(Sec. 4, "State Precomputation") in O(m log m), and are never reused:
every table behind them is bounded, and once one is cleared a known
answer gets a fresh id, so a memo entry keyed on an old id goes cold
but never aliases.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Generic, Iterable, TypeVar

from repro.afa.ahocorasick import AhoCorasick
from repro.afa.automaton import bits_of
from repro.afa.predicates import (
    STRING_OPS,
    AtomicPredicate,
    canonical_value,
    parse_number,
)

#: Bound of each table behind the answer ids: raw value -> id, and
#: answer mask <-> id.  Past it the table is cleared (stream values are
#: unbounded, and so are answers once substring predicates combine).
KEY_CACHE_LIMIT = 16_384

C = TypeVar("C", float, str)


class _OrderedDomain(Generic[C]):
    """The relational predicates over one ordered domain (the numbers
    or the strings), laid out for O(log m) lookups."""

    __slots__ = ("constants", "_eq", "_ne", "_ne_all", "_ordering", "_gap", "_on")

    def __init__(self, entries: list[tuple[str, C, int]]) -> None:
        """*entries* are ``(relational op, constant, bit position)``."""
        self._eq: dict[C, list[int]] = {}
        self._ne: dict[C, list[int]] = {}
        self._ne_all = 0
        # ``< <=`` hold for constants above the value, ``> >=`` below;
        # the inclusive two also hold on the constant itself.
        above: dict[C, int] = {}
        below: dict[C, int] = {}
        inclusive: dict[C, int] = {}
        for op, constant, bit in entries:
            if op == "=":
                self._eq.setdefault(constant, []).append(bit)
            elif op == "!=":
                self._ne.setdefault(constant, []).append(bit)
                self._ne_all |= 1 << bit
            else:
                side = above if op[0] == "<" else below
                side[constant] = side.get(constant, 0) | 1 << bit
                if len(op) == 2:
                    inclusive[constant] = inclusive.get(constant, 0) | 1 << bit
        self._ordering: list[C] = sorted(above.keys() | below.keys())
        #: Every distinct constant, sorted: the elementary intervals
        #: :meth:`AtomicPredicateIndex.precompute` visits.
        self.constants: list[C] = sorted(
            self._eq.keys() | self._ne.keys() | set(self._ordering)
        )
        suffix = [0] * (len(self._ordering) + 1)
        for i in range(len(self._ordering) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | above.get(self._ordering[i], 0)
        prefix = 0
        self._gap: list[int] = []
        self._on: list[int] = []
        for i, constant in enumerate(self._ordering):
            self._gap.append(prefix | suffix[i])
            self._on.append(prefix | suffix[i + 1] | inclusive.get(constant, 0))
            prefix |= below.get(constant, 0)
        self._gap.append(prefix)

    def mask(self, value: C) -> int:
        """The predicates of this domain that are true on *value*."""
        if value != value:  # nan: unequal to, and unordered against, everything
            return self._ne_all
        ordering = self._ordering
        position = bisect_left(ordering, value)
        if position < len(ordering) and ordering[position] == value:
            mask = self._on[position]
        else:
            mask = self._gap[position]
        mask |= self._ne_all
        for bit in self._eq.get(value, ()):
            mask |= 1 << bit
        for bit in self._ne.get(value, ()):
            mask ^= 1 << bit  # set by _ne_all just above, and by nothing else
        return mask


class AtomicPredicateIndex:
    """Maps data values to the mask of satisfied predicates.

    A payload is the bit position its predicate owns in the answer (the
    XPush machine passes AFA terminal sids).  Call :meth:`add`
    repeatedly, then :meth:`freeze`, then :meth:`lookup_mask` /
    :meth:`key_of`.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[AtomicPredicate, int]] = []
        self._frozen = False
        self._always = 0
        self._numbers: _OrderedDomain[float] = _OrderedDomain([])
        self._strings: _OrderedDomain[str] = _OrderedDomain([])
        self._contains: list[list[int]] = []  # pattern id -> bit positions
        self._matcher: AhoCorasick | None = None
        self._prefixes: dict[str, list[int]] = {}
        self._prefix_lengths: list[int] = []
        # The answer ids: raw value -> id, and answer mask <-> id.
        self._key_cache: dict[str, int] = {}
        self._ids: dict[int, int] = {}
        self._masks: dict[int, int] = {}
        self._next_id = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------

    def add(self, predicate: AtomicPredicate, payload: int) -> None:
        if self._frozen:
            raise RuntimeError("index is frozen")
        self._entries.append((predicate, payload))

    def freeze(self) -> "AtomicPredicateIndex":
        """Build the search structures; the index becomes immutable."""
        if self._frozen:
            return self
        numbers: list[tuple[str, float, int]] = []
        strings: list[tuple[str, str, int]] = []
        patterns: dict[str, list[int]] = {}
        for predicate, bit in self._entries:
            op, constant = predicate.op, predicate.constant
            if predicate.is_true or (constant == "" and op in STRING_OPS):
                self._always |= 1 << bit  # every value contains/starts with ""
            elif op == "contains":
                patterns.setdefault(constant, []).append(bit)
            elif op == "starts-with":
                self._prefixes.setdefault(constant, []).append(bit)
            elif isinstance(constant, str):
                strings.append((op, constant, bit))
            else:
                numbers.append((op, float(constant), bit))
        self._numbers = _OrderedDomain(numbers)
        self._strings = _OrderedDomain(strings)
        if patterns:
            self._matcher = AhoCorasick(patterns)
            self._contains = list(patterns.values())
        self._prefix_lengths = sorted({len(prefix) for prefix in self._prefixes})
        self._frozen = True
        return self

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def predicate_count(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def key_of(self, raw_value: str) -> int:
        """The id of *raw_value*'s answer: equal ids exactly when the
        same predicates are true on the two values.  Memoised per raw
        value — the machine asks once per text event, and stream values
        repeat far more often than answers change — so a miss pays one
        answer computation (:meth:`_answer`) and a hit one dict probe."""
        key = self._key_cache.get(raw_value)
        if key is None:
            key = self._identify(raw_value)
        return key

    def _identify(self, raw_value: str) -> int:
        """:meth:`key_of` on a raw-value miss: compute the answer, and
        issue it an id if it has none."""
        if not self._frozen:
            raise RuntimeError("freeze() the index before lookups")
        mask = self._answer(canonical_value(raw_value))
        key = self._ids.get(mask)
        if key is None:
            if len(self._ids) >= KEY_CACHE_LIMIT:
                # Raw values name ids through the answer table: all go.
                self._ids.clear()
                self._masks.clear()
                self._key_cache.clear()
            key = self._next_id
            self._next_id = key + 1
            self._ids[mask] = key
            self._masks[key] = mask
        if len(self._key_cache) >= KEY_CACHE_LIMIT:
            self._key_cache.clear()
        self._key_cache[raw_value] = key
        return key

    def _answer(self, value: str) -> int:
        """The mask of every predicate true on the canonical *value*:
        one bisection per ordered domain that has constants, one
        Aho–Corasick scan when ``contains`` predicates exist, one probe
        per distinct ``starts-with`` prefix length."""
        mask = self._always
        if self._numbers.constants:
            number = parse_number(value)
            if number is not None:
                mask |= self._numbers.mask(number)
        if self._strings.constants:
            mask |= self._strings.mask(value)
        if self._matcher is not None:
            contains = self._contains
            for pattern_id in self._matcher.match_set(value):
                for bit in contains[pattern_id]:
                    mask |= 1 << bit
        for length in self._prefix_lengths:
            if length > len(value):
                break  # the lengths are sorted
            bits = self._prefixes.get(value[:length])
            if bits is not None:
                for bit in bits:
                    mask |= 1 << bit
        return mask

    def mask_of(self, key: int) -> int:
        """The answer *key* names.  Only ids :meth:`key_of` returned
        since the tables last cleared are known: ask right after it."""
        return self._masks[key]

    def lookup_mask(self, raw_value: str) -> int:
        """The mask of all payloads whose predicate is true on
        *raw_value*; a hit is a lookup whose answer already had an id."""
        self.lookups += 1
        key = self._key_cache.get(raw_value)
        if key is None:
            issued = self._next_id
            key = self._identify(raw_value)
            if key < issued:
                self.hits += 1
        else:
            self.hits += 1
        return self._masks[key]

    def lookup(self, raw_value: str) -> frozenset[int]:
        """:meth:`lookup_mask` as a set of payloads, for set-based callers."""
        return frozenset(bits_of(self.lookup_mask(raw_value)))

    # ------------------------------------------------------------------

    def precompute(self) -> int:
        """Eagerly issue an id to the answer of every elementary
        interval (Sec. 4 "State Precomputation"), O(m log m).  Only
        exhaustive for workloads without substring predicates; returns
        the number of answers with an id.
        """
        if not self._frozen:
            raise RuntimeError("freeze() the index before precompute()")
        if self._matcher is not None or self._prefixes:
            return len(self._ids)  # substring answers are data-dependent
        for representative in self._representatives(self._numbers.constants, numeric=True):
            self.key_of(representative)
        for representative in self._representatives(self._strings.constants, numeric=False):
            self.key_of(representative)
        # A value below or between every constant that is no number.
        self.key_of("\x00repro-no-such-value\x00")
        return len(self._ids)

    def precomputed_items(self) -> list[tuple[int, int]]:
        """Snapshot of the ``(id, mask)`` answers that hold an id.

        This is the supported way to enumerate them — e.g. to seed
        ``t_value`` states after :meth:`precompute` or after a machine
        table flush; the ids are the ones later :meth:`key_of` calls
        return for values with those answers.
        """
        return list(self._masks.items())

    @staticmethod
    def _representatives(constants: list[Any], numeric: bool) -> Iterable[str]:
        """One witness value inside every elementary interval.

        For numbers: below the least constant, each constant itself,
        each gap midpoint, above the greatest.  For strings: the empty
        string (below everything), each constant, and each constant's
        immediate successor ``c + "\\x00"`` (inside the gap above c, or
        equal to the next constant when the gap is empty)."""
        if not constants:
            return
        for i, constant in enumerate(constants):
            if numeric:
                yield repr(
                    (constants[i - 1] + constant) / 2.0 if i else constant - 1.0
                )
                yield repr(constant)
            else:
                yield constants[i - 1] + "\x00" if i else ""
                yield constant
        if numeric:
            yield repr(constants[-1] + 1.0)
        else:
            yield constants[-1] + "\x00"

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

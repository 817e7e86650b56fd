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
exactly the numeric ``!=`` predicates; it is ordered against nothing
and gets a numeric key of its own (:data:`NAN_KEY`).

Two values with equal keys (:meth:`AtomicPredicateIndex.key_of`)
satisfy exactly the same predicates, so answers are memoised per key:
the one memo holds ``key → mask``, is filled on first touch (lazily,
like XPush states) and can be filled eagerly for every elementary
interval (Sec. 4, "State Precomputation") in O(m log m).
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

#: ``key_of`` memoises raw value -> key up to this many distinct values;
#: past it the memo is cleared (stream values are unbounded, keys are not).
KEY_CACHE_LIMIT = 16_384

#: Numeric key of ``nan``: no elementary interval contains it.
NAN_KEY = (-1, False)

C = TypeVar("C", float, str)

#: (insertion point among a domain's constants, exactly on a constant).
IntervalKey = tuple[int, bool]
#: (numeric interval, string interval, (``contains`` pattern ids,
#: ``starts-with`` prefixes) matched); a part is None when its tables
#: have nothing to say about the value.
Key = tuple[
    IntervalKey | None,
    IntervalKey | None,
    tuple[frozenset[int], tuple[str, ...]] | None,
]


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
        #: behind :meth:`key`.
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

    def key(self, value: C) -> IntervalKey | None:
        """The elementary interval *value* falls in."""
        constants = self.constants
        if not constants:
            return None
        if value != value:
            return NAN_KEY
        position = bisect_left(constants, value)
        return (position, position < len(constants) and constants[position] == value)

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
        self._cache: dict[Key, int] = {}
        self._key_cache: dict[str, Key] = {}
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

    def key_of(self, raw_value: str) -> Key:
        """Canonical key: values with equal keys satisfy the same
        predicates.  The key is cheap — O(log m) bisections plus one
        Aho–Corasick scan when ``contains`` predicates exist — and
        memoised per raw value: the machine asks once per text event,
        and stream values repeat far more often than keys change."""
        cached = self._key_cache.get(raw_value)
        if cached is not None:
            return cached
        if not self._frozen:
            raise RuntimeError("freeze() the index before lookups")
        value = canonical_value(raw_value)
        number = parse_number(value)
        numeric_key = self._numbers.key(number) if number is not None else None
        string_key = self._strings.key(value)
        substring_key = None
        if self._matcher is not None or self._prefixes:
            matched = self._matcher.match_set(value) if self._matcher else frozenset()
            prefixes = tuple(
                value[:length]
                for length in self._prefix_lengths
                if length <= len(value) and value[:length] in self._prefixes
            )
            substring_key = (matched, prefixes)
        key: Key = (numeric_key, string_key, substring_key)
        if len(self._key_cache) >= KEY_CACHE_LIMIT:
            self._key_cache.clear()
        self._key_cache[raw_value] = key
        return key

    def lookup_mask(self, raw_value: str) -> int:
        """The mask of all payloads whose predicate is true on
        *raw_value*, memoised per key."""
        key = self.key_of(raw_value)
        self.lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        # A None key part says its tables have nothing for this value.
        numeric_key, string_key, substring_key = key
        value = canonical_value(raw_value)
        mask = self._always
        if numeric_key is not None:
            mask |= self._numbers.mask(float(value))
        if string_key is not None:
            mask |= self._strings.mask(value)
        if substring_key is not None:
            matched, prefixes = substring_key
            for pattern_id in matched:
                for bit in self._contains[pattern_id]:
                    mask |= 1 << bit
            for prefix in prefixes:
                for bit in self._prefixes[prefix]:
                    mask |= 1 << bit
        self._cache[key] = mask
        return mask

    def lookup(self, raw_value: str) -> frozenset[int]:
        """:meth:`lookup_mask` as a set of payloads, for set-based callers."""
        return frozenset(bits_of(self.lookup_mask(raw_value)))

    # ------------------------------------------------------------------

    def precompute(self) -> int:
        """Eagerly materialise the answer for every elementary interval
        (Sec. 4 "State Precomputation"), O(m log m).  Only exact for
        workloads without substring predicates; returns the number of
        cached keys.
        """
        if not self._frozen:
            raise RuntimeError("freeze() the index before precompute()")
        if self._matcher is not None or self._prefixes:
            return len(self._cache)  # substring keys are data-dependent
        for representative in self._representatives(self._numbers.constants, numeric=True):
            self.lookup_mask(representative)
        for representative in self._representatives(self._strings.constants, numeric=False):
            self.lookup_mask(representative)
        # The "matches nothing" key for non-numeric values.
        self.lookup_mask("\x00repro-no-such-value\x00")
        return len(self._cache)

    def precomputed_items(self) -> list[tuple[Key, int]]:
        """Snapshot of the materialised (key, mask) answers.

        This is the supported way to enumerate the cache — e.g. to seed
        ``t_value`` states after :meth:`precompute` or after a machine
        table flush — without reaching into the private ``_cache``.
        """
        return list(self._cache.items())

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

"""Tests for the atomic predicate index (vs. brute-force scans)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afa import index as index_module
from repro.afa.index import AtomicPredicateIndex
from repro.afa.predicates import AtomicPredicate


def build_index(predicates):
    index = AtomicPredicateIndex()
    for i, predicate in enumerate(predicates):
        index.add(predicate, i)
    return index.freeze(), predicates


def brute(predicates, value):
    return frozenset(i for i, p in enumerate(predicates) if p.test(value))


def test_numeric_intervals():
    index, predicates = build_index(
        [
            AtomicPredicate("=", 1),
            AtomicPredicate(">", 2),
            AtomicPredicate("<", 5),
            AtomicPredicate(">=", 2),
            AtomicPredicate("!=", 1),
        ]
    )
    for value in ["0", "1", "1.5", "2", "3", "5", "6", "-7", "1e3"]:
        assert index.lookup(value) == brute(predicates, value), value


def test_paper_value_index():
    # The Fig. 3 T_value: predicates = 1 and > 2.
    index, predicates = build_index([AtomicPredicate("=", 1), AtomicPredicate(">", 2)])
    assert index.lookup("0.5") == frozenset()  # (-inf, 1)
    assert index.lookup("1") == {0}  # {1}
    assert index.lookup("1.5") == frozenset()  # (1, 2]
    assert index.lookup("2") == frozenset()
    assert index.lookup("3") == {1}  # (2, inf)


def test_string_predicates():
    index, predicates = build_index(
        [
            AtomicPredicate("=", "john"),
            AtomicPredicate(">", "m"),
            AtomicPredicate("<=", "zz"),
        ]
    )
    for value in ["adam", "john", "mary", "zz", "zzz", ""]:
        assert index.lookup(value) == brute(predicates, value), value


def test_mixed_numeric_and_string():
    index, predicates = build_index(
        [AtomicPredicate("=", 5), AtomicPredicate("=", "5"), AtomicPredicate("<", "9")]
    )
    # "5" is numeric AND a string: both equality predicates fire.
    assert index.lookup("5") == brute(predicates, "5") == {0, 1, 2}
    assert index.lookup("5.0") == brute(predicates, "5.0")  # numeric = only


def test_substring_predicates():
    index, predicates = build_index(
        [
            AtomicPredicate("contains", "ell"),
            AtomicPredicate("starts-with", "he"),
            AtomicPredicate("=", "hello"),
        ]
    )
    for value in ["hello", "shell", "he", "x"]:
        assert index.lookup(value) == brute(predicates, value), value


def test_key_identifies_equivalence_classes():
    index, predicates = build_index([AtomicPredicate(">", 2), AtomicPredicate("<", 7)])
    assert index.key_of("3") == index.key_of("4")
    assert index.key_of("3") != index.key_of("2")
    assert index.key_of("2") != index.key_of("8")


def test_cache_hits_accumulate():
    index, _ = build_index([AtomicPredicate("=", 1)])
    index.lookup("1")
    index.lookup("1")
    index.lookup(" 1 ")  # same canonical key
    assert index.lookups == 3
    assert index.hits == 2
    assert 0 < index.hit_ratio < 1


def test_precompute_covers_all_intervals():
    index, predicates = build_index(
        [AtomicPredicate("=", 1), AtomicPredicate(">", 2), AtomicPredicate("=", "abc")]
    )
    cached = index.precompute()
    # Eight elementary intervals, four distinct answers: {}, {=1},
    # {>2}, {="abc"}; an id names an answer, not an interval.
    assert cached == 4
    # Lookups after precompute are all hits for in-range values.
    before = index.hits
    index.lookup("1")
    index.lookup("3")
    assert index.hits == before + 2


def test_add_after_freeze_rejected():
    index, _ = build_index([AtomicPredicate("=", 1)])
    with pytest.raises(RuntimeError):
        index.add(AtomicPredicate("=", 2), 99)


def test_lookup_before_freeze_rejected():
    index = AtomicPredicateIndex()
    index.add(AtomicPredicate("=", 1), 0)
    with pytest.raises(RuntimeError):
        index.lookup("1")


def test_randomised_against_brute_force():
    rng = random.Random(11)
    predicates = []
    for _ in range(40):
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        if rng.random() < 0.5:
            predicates.append(AtomicPredicate(op, rng.randint(-5, 5)))
        else:
            predicates.append(AtomicPredicate(op, rng.choice("abcde") * rng.randint(1, 3)))
    index, _ = build_index(predicates)
    values = [str(rng.randint(-6, 6)) for _ in range(30)]
    values += ["".join(rng.choice("abcdef") for _ in range(rng.randint(0, 4))) for _ in range(30)]
    for value in values:
        assert index.lookup(value) == brute(predicates, value), value


@pytest.mark.parametrize("order", [("nan", "0", "nan"), ("0", "nan", "0")])
def test_nan_does_not_share_a_key_with_small_numbers(order):
    # nan parses as a number but is ordered against nothing: it
    # satisfies exactly the numeric != predicates, whichever of nan and
    # a number below the least constant reaches the memo first.
    index, predicates = build_index(
        [
            AtomicPredicate("<", 5),
            AtomicPredicate("!=", 3),
            AtomicPredicate("<=", 3),
            AtomicPredicate("!=", "nan"),
        ]
    )
    assert index.key_of("nan") != index.key_of("0")
    for value in order:
        assert index.lookup(value) == brute(predicates, value), value
    assert index.lookup("nan") == {1}
    assert index.lookup("0") == {0, 1, 2, 3}


def test_lookup_mask_is_the_memoised_answer():
    index, predicates = build_index(
        [AtomicPredicate("=", 1), AtomicPredicate(">", 2), AtomicPredicate.TRUE]
    )
    assert index.lookup_mask("1") == 0b101
    assert index.lookup_mask("7") == 0b110
    assert index.lookup_mask("x") == 0b100
    assert index.lookup("7") == {1, 2}  # the set view of the same memo
    assert (index.lookups, index.hits) == (4, 1)
    # The key is the answer's id: a small int, one per answer.
    key = index.key_of("7")
    assert isinstance(key, int) and index.key_of("8") == key != index.key_of("1")
    assert index.mask_of(key) == 0b110
    assert dict(index.precomputed_items())[key] == 0b110


def test_empty_substring_patterns_are_always_true():
    index, predicates = build_index(
        [
            AtomicPredicate("contains", ""),
            AtomicPredicate("starts-with", ""),
            AtomicPredicate("starts-with", "ab"),
            AtomicPredicate("starts-with", "abc"),
            AtomicPredicate("starts-with", "xy"),
            AtomicPredicate("contains", "bc"),
            AtomicPredicate("contains", "bc"),
        ]
    )
    for value in ["", "a", "ab", "abc", "abcd", "xy", "xbc", "bcx"]:
        assert index.lookup(value) == brute(predicates, value), value


# -- answer ids ------------------------------------------------------------

ANSWER_PREDICATES = st.one_of(
    st.builds(
        AtomicPredicate,
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.sampled_from([-2, 0, 1, 2.5, float("inf"), "1", "a", "ab", "b", "nan", "inf"]),
    ),
    st.builds(
        AtomicPredicate,
        st.sampled_from(["contains", "starts-with"]),
        st.sampled_from(["a", "ab", "b", "1", "n", " a"]),
    ),
)
ANSWER_VALUES = [
    "nan", " nan ", "NaN", "inf", " inf", "-inf", "0", " 0 ", "-0", "1", "1.0",
    " 1 ", "2.5", "3", "-2", "a", " a", "ab", "abc", "b", "ba", "x a", "", "   ",
]  # fmt: skip


def _oracle(predicates, value):
    return sum(1 << i for i, predicate in enumerate(predicates) if predicate.test(value))


@given(st.lists(ANSWER_PREDICATES, max_size=12), st.permutations(ANSWER_VALUES))
@settings(max_examples=200, deadline=None)
def test_answer_ids_are_equal_exactly_when_answers_are(predicates, values):
    index, _ = build_index(predicates)
    ids = {value: index.key_of(value) for value in values}
    masks = {value: index.lookup_mask(value) for value in values}
    for a in values:
        assert masks[a] == _oracle(predicates, a), a
        assert index.mask_of(ids[a]) == masks[a]
        for b in values:
            assert (ids[a] == ids[b]) == (masks[a] == masks[b]), (a, b)


@given(
    st.lists(ANSWER_PREDICATES, min_size=1, max_size=12),
    st.lists(st.sampled_from(ANSWER_VALUES), min_size=1, max_size=60),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_answer_ids_are_never_reused_across_clears(predicates, values, limit):
    index, _ = build_index(predicates)
    named: dict[int, int] = {}  # every id ever issued -> its answer
    with mock.patch.object(index_module, "KEY_CACHE_LIMIT", limit):
        for value in values:
            key = index.key_of(value)
            mask = index.mask_of(key)
            assert named.setdefault(key, mask) == mask == _oracle(predicates, value)
            assert len(index.precomputed_items()) <= limit  # the tables stay bounded


def test_a_known_answer_gets_a_fresh_id_after_a_clear():
    index, _ = build_index([AtomicPredicate("=", 1), AtomicPredicate("=", 2)])
    with mock.patch.object(index_module, "KEY_CACHE_LIMIT", 2):
        first = index.key_of("1")
        assert index.key_of(" 1 ") == first  # same answer, same id
        issued = {first, index.key_of("2"), index.key_of("x")}  # "x": the tables clear
        again = index.key_of("1")
    assert len(issued) == 3 and again not in issued
    assert index.mask_of(again) == 0b01


@given(st.lists(ANSWER_PREDICATES.filter(lambda p: p.op not in ("contains", "starts-with")),
                max_size=12), st.permutations(ANSWER_VALUES))
@settings(max_examples=150, deadline=None)
def test_precomputed_ids_are_the_ones_lookups_return(predicates, values):
    index, _ = build_index(predicates)
    index.precompute()
    precomputed = dict(index.precomputed_items())
    by_answer = {mask: key for key, mask in precomputed.items()}
    assert len(by_answer) == len(precomputed)  # one id per answer
    for value in values:
        mask = _oracle(predicates, value)
        key = index.key_of(value)
        assert index.lookup_mask(value) == mask
        if mask in by_answer:
            assert key == by_answer[mask], value
        else:
            assert key not in precomputed

"""Properties of the atomic predicate index vs. brute force."""

import string

from hypothesis import given, settings, strategies as st

from repro.afa.index import AtomicPredicateIndex
from repro.afa.predicates import AtomicPredicate, canonical_value

relational_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
constants = st.one_of(
    st.integers(-20, 20),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4),
)
predicates = st.builds(AtomicPredicate, relational_ops, constants)

substring_predicates = st.builds(
    AtomicPredicate,
    st.sampled_from(["contains", "starts-with"]),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3),
)

values = st.one_of(
    st.integers(-25, 25).map(str),
    st.text(alphabet=string.ascii_lowercase + "0123456789 ", max_size=6),
)


def build(preds):
    index = AtomicPredicateIndex()
    for i, predicate in enumerate(preds):
        index.add(predicate, i)
    return index.freeze()


@given(st.lists(st.one_of(predicates, substring_predicates), max_size=25), st.lists(values, max_size=15))
@settings(max_examples=200, deadline=None)
def test_lookup_equals_brute_force(preds, vals):
    index = build(preds)
    for value in vals:
        want = frozenset(i for i, p in enumerate(preds) if p.test(value))
        assert index.lookup(value) == want


@given(st.lists(predicates, max_size=20), values, values)
@settings(max_examples=200, deadline=None)
def test_equal_keys_imply_equal_answers(preds, a, b):
    index = build(preds)
    if index.key_of(a) == index.key_of(b):
        assert index.lookup(a) == index.lookup(b)


@given(st.lists(predicates, max_size=20), values)
@settings(max_examples=100, deadline=None)
def test_key_is_canonicalisation_invariant(preds, value):
    index = build(preds)
    assert index.key_of(value) == index.key_of("  " + value + " ")
    assert index.lookup(value) == index.lookup("  " + value + " ")


@given(st.lists(predicates, min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_precompute_then_lookup_all_hits(preds):
    index = build(preds)
    index.precompute()
    probes = []
    for predicate in preds:
        if predicate.is_numeric:
            probes += [str(float(predicate.constant)), str(float(predicate.constant) + 0.5)]
        else:
            probes += [predicate.constant, predicate.constant + "z"]
    before_misses = index.lookups - index.hits
    for probe in probes:
        index.lookup(probe)
    assert index.lookups - index.hits == before_misses  # zero new misses


# ----------------------------------------------------------------------
# The mask-emitting tables against the predicate-by-predicate oracle,
# over everything the index special-cases.

wide_constants = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([0.5, -2.5, 1e3, float("inf")]),
    st.sampled_from(["5", "-0", "nan", "", "a", "ab", "abc", "b", "é"]),
)
wide_predicates = st.one_of(
    st.builds(AtomicPredicate, relational_ops, wide_constants),
    st.just(AtomicPredicate.TRUE),
    st.builds(
        AtomicPredicate,
        st.sampled_from(["contains", "starts-with"]),
        st.sampled_from(["", "a", "ab", "abc", "b", "bc", "é", "3"]),
    ),
)
SPECIAL_VALUES = [
    "nan", "-nan", "NaN", "inf", "-inf", "-0", "0", "1e3", "1_0", " 3 ", "", "  ",
    "é", "日本語", "abcé", "٣",
]  # fmt: skip


@st.composite
def indexes_and_probes(draw):
    preds = draw(st.lists(wide_predicates, max_size=25))
    probes = list(SPECIAL_VALUES)
    for predicate in preds:
        constant = predicate.constant
        if isinstance(constant, str):
            probes += [constant, constant + "a", constant[:-1], "b" + constant]
        elif constant is not None:
            probes += [repr(constant), repr(constant - 1), repr(constant + 0.5), f" {constant} "]
    return preds, draw(st.permutations(probes)), draw(st.permutations(probes))


@given(indexes_and_probes())
@settings(max_examples=300, deadline=None)
def test_lookup_mask_equals_oracle_in_any_order(case):
    preds, first_pass, second_pass = case
    index = build(preds)
    by_key = {}
    # Twice, in two orders: whichever value reaches a key first fills
    # its memo, so a key shared by values that differ shows up here.
    for value in first_pass + second_pass:
        want = sum(1 << i for i, p in enumerate(preds) if p.test(value))
        got = index.lookup_mask(value)
        assert got == want, (value, [str(p) for p in preds])
        assert by_key.setdefault(index.key_of(value), got) == got
        assert index.lookup(value) == frozenset(i for i in range(len(preds)) if want >> i & 1)

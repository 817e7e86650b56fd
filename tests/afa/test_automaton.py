"""Tests for WorkloadAutomata runtime operations: eval closure, δ⁻¹,
and the bit-enumeration primitive under the mask twins."""

import random
import signal
from contextlib import contextmanager

import pytest

from repro.afa.automaton import (
    _PEEL_BITS,
    _PEEL_WIDTH,
    CompiledMasks,
    StateKind,
    WorkloadAutomata,
    bits_of,
)
from repro.afa.build import build_workload_automata
from repro.afa.predicates import AtomicPredicate
from repro.xpath.parser import parse_xpath


def build(*sources):
    return build_workload_automata(
        [parse_xpath(s, f"o{i}") for i, s in enumerate(sources)]
    )


def find(workload, kind, index=0):
    found = [s for s in workload.states if s.kind is kind and s.is_connective]
    return found[index]


def test_eval_adds_and_state_when_all_children_present():
    workload = build("/a[b = 1 and c = 2]")
    and_state = find(workload, StateKind.AND)
    children = list(and_state.eps)
    partial = workload.eval_closure([children[0]])
    assert and_state.sid not in partial
    full = workload.eval_closure(children)
    assert and_state.sid in full


def test_eval_adds_or_state_when_any_child_present():
    workload = build("/a[b = 1 or c = 2]")
    or_state = next(
        s for s in workload.states if s.kind is StateKind.OR and len(s.eps) == 2
    )
    assert or_state.sid in workload.eval_closure([or_state.eps[0]])
    assert or_state.sid in workload.eval_closure([or_state.eps[1]])
    assert or_state.sid not in workload.eval_closure([])


def test_eval_not_fires_on_absence():
    workload = build("/a[not(b = 1)]")
    (not_sid,) = workload.not_sids
    child = workload.states[not_sid].eps[0]
    assert not_sid in workload.eval_closure([])
    assert not_sid not in workload.eval_closure([child])


def test_eval_handles_double_negation_in_one_pass():
    workload = build("/a[not(not(b = 1))]")
    outer, inner = sorted(
        workload.not_sids, key=lambda sid: workload.states[sid].rank, reverse=True
    )
    # Inner child present → inner NOT absent → outer NOT present.
    inner_child = workload.states[inner].eps[0]
    closure = workload.eval_closure([inner_child])
    assert inner not in closure
    assert outer in closure
    # Nothing present → inner NOT fires → outer NOT must not.
    closure = workload.eval_closure([])
    assert inner in closure
    assert outer not in closure


def test_eval_nested_connectives():
    workload = build("/a[(b = 1 or c = 2) and d = 3]")
    and_state = find(workload, StateKind.AND)
    or_state = next(
        s for s in workload.states if s.kind is StateKind.OR and len(s.eps) == 2
    )
    d_branch = next(c for c in and_state.eps if c != or_state.sid)
    closure = workload.eval_closure([or_state.eps[0], d_branch])
    assert and_state.sid in closure


def test_delta_inverse_follows_labels_and_wildcards(running_filters):
    workload = build_workload_automata(running_filters)
    # From the paper's Example 3.4: tpop(q1, b) with q1 = {=1 terminals}
    # reaches the two b-navigation states.
    terminals_eq1 = [
        sid
        for sid in workload.terminals
        if workload.states[sid].predicate == AtomicPredicate("=", 1)
    ]
    lifted = workload.delta_inverse(frozenset(terminals_eq1), "b", False)
    assert len(lifted) == 2
    for sid in lifted:
        assert "b" in workload.states[sid].edges


def test_delta_inverse_self_loops(running_filters):
    workload = build_workload_automata(running_filters)
    init = workload.afas[0].initial
    # The *-self-loop keeps the initial state alive across any element close.
    assert init in workload.delta_inverse(frozenset([init]), "zzz", False)
    # ... but not across an attribute close (@* vs *).
    assert init not in workload.delta_inverse(frozenset([init]), "@zzz", True)


def test_delta_inverse_includes_top_edges():
    workload = build("/a[b]")
    lifted = workload.delta_inverse(frozenset(), "b", False)
    assert lifted  # existence edge fires even from the empty set
    assert not workload.delta_inverse(frozenset(), "c", False)


def test_accepted_oids(running_filters):
    workload = build_workload_automata(running_filters)
    both = frozenset(afa.initial for afa in workload.afas)
    assert workload.accepted_oids(both) == {"o1", "o2"}
    assert workload.accepted_oids(frozenset()) == frozenset()
    assert workload.accepted_oids(frozenset([workload.afas[0].initial])) == {"o1"}


def test_epsilon_closure():
    workload = build("/a[b = 1 and c = 2]")
    and_state = find(workload, StateKind.AND)
    closure = workload.epsilon_closure({and_state.sid})
    for child in and_state.eps:
        assert child in closure


def test_push_targets(running_filters):
    workload = build_workload_automata(running_filters)
    init = {afa.initial for afa in workload.afas}
    after_a = workload.push_targets(init, "a", False)
    # both AND states reached, plus the self-loops keep the inits alive
    kinds = {workload.states[sid].kind for sid in after_a}
    assert StateKind.AND in kinds
    assert init <= after_a  # * self-loops
    after_zzz = workload.push_targets(init, "zzz", False)
    assert after_zzz == init


def test_ranks_monotone():
    workload = build("/a[not(b = 1 and not(c = 2))]")
    for state in workload.states:
        for child in state.eps:
            assert state.rank > workload.states[child].rank


# -- bits_of: the one enumeration primitive --------------------------------


def naive_bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def random_mask(rng, width, bits):
    """A mask exactly *width* bits wide with exactly *bits* bits set."""
    mask = 1 << (width - 1)
    for position in rng.sample(range(width - 1), bits - 1):
        mask |= 1 << position
    return mask


@contextmanager
def deadline(seconds):
    """Turn a hang into a failure (no pytest-timeout in tier 1)."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "mask",
    [
        0,
        1,
        1 << 63,
        1 << 64,
        (1 << 64) - 1,
        (1 << 128) | 1,
        1 << 12_000,  # a lone top bit: wide, nearly empty
        (1 << 12_000) | ((1 << 64) - 1) << 64,  # one full word below it
        (1 << 4_096) - 1,  # dense
        int("10" * 2_048, 2),
    ],
    ids=lambda m: f"{m.bit_length()}w{m.bit_count()}b",
)
def test_bits_of_word_boundaries(mask):
    assert bits_of(mask) == naive_bits(mask)
    assert CompiledMasks.mask_of(bits_of(mask)) == mask


def test_bits_of_on_both_sides_of_the_narrow_wide_decision():
    rng = random.Random(20)
    widths = (1, 63, 64, 65, _PEEL_WIDTH - 1, _PEEL_WIDTH, _PEEL_WIDTH + 1, 3 * _PEEL_WIDTH)
    counts = (1, 2, _PEEL_BITS, _PEEL_BITS + 1, 4 * _PEEL_BITS)
    for width in widths:
        for bits in counts:
            if bits <= width:
                mask = random_mask(rng, width, bits)
                assert bits_of(mask) == naive_bits(mask), (width, bits)
    for _ in range(50):
        mask = rng.getrandbits(rng.randrange(1, 6_000)) & rng.getrandbits(6_000)
        assert bits_of(mask) == naive_bits(mask)


def test_negative_mask_is_rejected_not_peeled_forever():
    """``-1 ^ 1 == -2``, ``-2 ^ 2 == -4``, …: peeling a negative int
    never reaches zero and the int grows without bound."""
    masks = build("/a[b = 1 and not(c)]").masks
    wide_negative = -(random_mask(random.Random(3), 3 * _PEEL_WIDTH, 4 * _PEEL_BITS))
    with deadline(5):
        for negative in (-1, -(1 << 70), wide_negative):
            for reject in (bits_of, CompiledMasks.sids_of, masks.epsilon_closure, masks.eval_closure):
                with pytest.raises(ValueError, match="negative mask"):
                    reject(negative)

"""Tests for WorkloadAutomata runtime operations: eval closure, δ⁻¹,
the bit-enumeration primitive under the mask twins, and the wall that
holds the two paths of a ``t_pop`` miss — word-parallel lanes and the
bit sweep — to each other and to the frozenset spec."""

import random
import signal
from contextlib import contextmanager

import pytest

from repro.afa import automaton
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
from repro.errors import WorkloadError
from repro.xmlstream.dom import parse_document
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions


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
    never reaches zero and the int grows without bound.  ``eval`` and
    δ⁻¹ refuse it whichever path the popcount would have picked."""
    masks = build("/a[b = 1 and not(c)]").masks
    wide_negative = -(random_mask(random.Random(3), 3 * _PEEL_WIDTH, 4 * _PEEL_BITS))
    rejecting = (
        bits_of,
        CompiledMasks.sids_of,
        masks.epsilon_closure,
        masks.eval_closure,
        lambda mask: masks.delta_inverse(mask, "b", False),
    )
    with deadline(5):
        for negative in (-1, -(1 << 70), wide_negative):
            for path in (None, "lanes", "sweep"):
                for reject in rejecting:
                    with forced_path(path), pytest.raises(ValueError, match="negative mask"):
                        reject(negative)


# -- one t_pop miss, two paths: lanes and sweep ------------------------------

#: ``//``, ``*``, ``@*``, ``a//text()``, ``not()``, ``or``, nesting, and
#: — ``//*//*`` — a δ⁻¹ row with two sources on one label.
LANE_SOURCES = {
    "desc": "//a[b = 1 and .//c[@d > 1]]",
    "wild": "/a/*[@* = 'x' or not(b)]",
    "nest": "//b[c[d = 2 and not(@a)] or a/text() = 'x']",
    "flat": "/a[b = 1 and c = 2 and d]",
    "attr": "//c/@b",
    "deep": "//d[not(a or b[c])]//a",
    "text": "/a[b//text() = 1]",
    "multi": "//*//*[b = 1]",
}
LANE_LABELS = ("a", "b", "c", "d", "@a", "@b", "@d", "zz", "@zz")
LANE_DOCS = (
    "<a><b>1</b><c d='2'/></a>",
    "<a><x a='x'><b>1</b></x><d/></a>",
    "<b><c><d>2</d></c><a>x</a></b>",
    "<a><b><c>1</c></b><c>2</c><d><a/></d></a>",
    "<d><c b='1'><d><a><b>1</b></a></d></c></d>",
    "<a><b>1</b><c>2</c><d/></a>",
)
VARIANTS = (
    XPushOptions(),
    XPushOptions(top_down=True),
    XPushOptions(top_down=True, early=True),
)


@contextmanager
def forced_path(path):
    """Pin the lanes-or-sweep decision of every call to one side
    (``None``: leave it to the popcount)."""
    saved = automaton._LANES_PER_BIT
    if path is not None:
        automaton._LANES_PER_BIT = {"lanes": 1 << 62, "sweep": 0}[path]
    try:
        yield
    finally:
        automaton._LANES_PER_BIT = saved


def naive_mask(sids):
    return sum(1 << sid for sid in set(sids))


def reached_masks(workload, docs):
    """The bottom-up states basic, TD and TD+early machines intern on
    *docs*, each machine held to the oracle's answers on the way."""
    filters = parse_workload({afa.oid: afa.source for afa in workload.afas if not afa.retired})
    masks = set()
    for options in VARIANTS:
        machine = XPushMachine(workload, options)
        for doc in docs:
            assert machine.filter_document(doc) == matching_oids(filters, doc)
        masks.update(state.mask for state in machine.store.bottom_states())
    return sorted(masks)


def with_submasks(masks, state_count, rng):
    """*masks*, a random half and a random sixteenth of each, and
    random subsets of the whole sid space at both densities."""
    def thin():
        return rng.getrandbits(state_count) & rng.getrandbits(state_count)

    out = list(masks)
    out += [m & rng.getrandbits(state_count) for m in masks]
    out += [m & thin() & thin() for m in masks]
    out += [rng.getrandbits(state_count), thin() & thin() & thin(), 0]
    return out


def check_transition_paths(workload, masks, labels=LANE_LABELS):
    """``eval`` and δ⁻¹ by lanes == by sweep == as decided == the
    frozenset spec, on every mask; returns how many ``eval`` calls the
    popcount sent each way."""
    compiled = workload.masks
    lane_bits = compiled.lane_profile().eval_lane_bits
    taken = {"lanes": 0, "sweep": 0}
    for mask in masks:
        sids = naive_bits(mask)
        evaluated = workload.eval_closure(sids)
        want = naive_mask(evaluated)
        assert compiled._eval_by_lanes(mask) == want, ("lanes", mask)
        assert compiled._eval_by_sweep(mask) == want, ("sweep", mask)
        assert compiled.eval_closure(mask) == want, mask
        taken["lanes" if (mask | compiled.not_up_mask).bit_count() >= lane_bits else "sweep"] += 1
        for label in labels:
            attr = label.startswith("@")
            lifted = naive_mask(workload.delta_inverse(evaluated, label, attr))
            for path in ("lanes", "sweep", None):
                with forced_path(path):
                    assert compiled.delta_inverse(want, label, attr) == lifted, (path, mask, label)
    return taken


@pytest.fixture(scope="module")
def lane_workload():
    return build_workload_automata(parse_workload(LANE_SOURCES))


@pytest.fixture(scope="module")
def lane_docs():
    return [parse_document(xml) for xml in LANE_DOCS]


def test_lanes_equal_sweep_equal_spec_on_both_sides_of_the_decision(lane_workload, lane_docs):
    profile = lane_workload.masks.lane_profile()
    assert profile.states == lane_workload.state_count
    assert sum(profile.eps_lanes) > 4 and max(profile.rev_lanes.values()) > 1
    filters = parse_workload(LANE_SOURCES)
    assert set().union(*(matching_oids(filters, doc) for doc in lane_docs)) == set(LANE_SOURCES)
    masks = with_submasks(
        reached_masks(lane_workload, lane_docs), lane_workload.state_count, random.Random(23)
    )
    taken = check_transition_paths(lane_workload, masks)
    assert taken["lanes"] and taken["sweep"], taken


def test_multi_source_rows_and_self_loops_are_lanes_too(lane_workload):
    """``//*//*`` puts two sources (offsets 0 and 1) on one ``*`` row."""
    multi = next(afa for afa in lane_workload.afas if afa.oid == "multi")
    rows = [lane_workload.states[sid].rev.get("*", ()) for sid in multi.state_sids]
    assert any(len(sources) > 1 for sources in rows)
    assert {0, 1} <= lane_workload.masks._rev_lanes["*"].keys()


def test_wide_masks_take_the_same_answers_down_both_paths(lane_workload, lane_docs):
    """4 100 states: lanes and shifted results cross many words."""
    copies = 4100 // lane_workload.state_count + 1
    wide = build_workload_automata(
        parse_workload({f"{oid}{i}": x for i in range(copies) for oid, x in LANE_SOURCES.items()})
    )
    assert wide.state_count >= 4100
    rng = random.Random(41)
    masks = with_submasks(rng.sample(reached_masks(wide, lane_docs), 12), wide.state_count, rng)
    assert any(m.bit_length() > _PEEL_WIDTH and m.bit_count() > _PEEL_BITS for m in masks)
    # Replicas bring no offset the one copy did not have: the lanes do
    # not grow with the workload, the NOT cone a sweep must visit does.
    assert wide.masks.lane_profile().eps_lanes == lane_workload.masks.lane_profile().eps_lanes
    taken = check_transition_paths(wide, masks, rng.sample(LANE_LABELS, 4))
    assert taken == {"lanes": len(masks), "sweep": 0}


def test_lanes_of_a_grown_workload_equal_those_built_at_once(lane_docs):
    """Three ``extend`` calls, one retiring a filter and one defining
    its oid anew: the passenger keeps every transition, so the lanes
    are those of the same filters compiled in one go."""
    filters = parse_workload(LANE_SOURCES)
    again = parse_xpath("//a[not(b = 1)]", filters[1].oid)
    grown = WorkloadAutomata().extend(filters[:3])
    grown.extend(filters[3:5], retire=[filters[0].oid])
    grown.extend(filters[5:] + [again], retire=[again.oid])
    whole = WorkloadAutomata().extend(
        filters[:5] + filters[5:] + [parse_xpath(again.source, "again")]
    )
    assert grown.retired_filters == 2 and whole.retired_filters == 0
    assert grown.masks._eps_lanes == whole.masks._eps_lanes
    assert grown.masks._rev_lanes == whole.masks._rev_lanes
    assert grown.masks.lane_profile() == whole.masks.lane_profile()
    masks = with_submasks(reached_masks(grown, lane_docs), grown.state_count, random.Random(5))
    check_transition_paths(grown, masks)


def irregular_workload(shapes=200):
    """One filter whose *shapes* conjuncts all differ in size: every
    ε-arc of its AND has its own ``child − parent`` offset and the
    ``x`` edges have one ``target − source`` offset per predicate
    count, so the lanes far outnumber the bits of any reached state."""
    conjuncts = [
        "x" + f"[k = {i}]" * (i % 24) + "/y" * (1 + i // 24) + f" = {i}" for i in range(shapes)
    ]
    return build_workload_automata(
        parse_workload({"irregular": "/r[" + " and ".join(conjuncts) + "]", "plain": "//x[k = 1]"})
    )


def test_an_irregular_workload_stays_on_the_sweep(monkeypatch):
    workload = irregular_workload()
    profile = workload.masks.lane_profile()
    assert sum(profile.eps_lanes) >= 200 and profile.rev_lanes["x"] >= 24
    docs = [
        parse_document(xml)
        for xml in (
            "<r><x><k>1</k><y>1</y></x><x><y><y>25</y></y></x></r>",
            "<r><x><k>1</k><k>1</k><y>2</y></x></r>",
            "<x><k>1</k></x>",
        )
    ]
    masks = reached_masks(workload, docs)
    assert max(m.bit_count() for m in masks) < profile.eval_lane_bits
    assert check_transition_paths(workload, masks, ("x", "y", "k", "r"))["lanes"] == 0

    def lanes_taken(*args):
        raise AssertionError("the lanes outnumber the bits: the sweep is the cheaper path")

    x_lanes, lift_by_lanes = workload.masks._rev_lanes["x"], automaton._lift_by_lanes

    def lift_spy(lanes, hits, out):  # the one-lane labels still shift
        return lanes_taken() if lanes is x_lanes else lift_by_lanes(lanes, hits, out)

    monkeypatch.setattr(CompiledMasks, "_eval_by_lanes", lanes_taken)
    monkeypatch.setattr(automaton, "_lift_by_lanes", lift_spy)
    with deadline(20):
        assert reached_masks(workload, docs) == masks


@pytest.mark.parametrize("table", ["_eps_lanes", "_rev_lanes"])
def test_the_wall_catches_a_lane_offset_off_by_one(lane_docs, table):
    """Seed the mutation: file one lane under ``offset + 1``."""
    workload = build_workload_automata(parse_workload(LANE_SOURCES))
    rng = random.Random(11)
    masks = with_submasks(reached_masks(workload, lane_docs), workload.state_count, rng)
    check_transition_paths(workload, masks)
    lanes = getattr(workload.masks, table)
    lanes = lanes[0] if table == "_eps_lanes" else lanes["b"]
    offset = max(lanes)
    lanes[offset + 1] = lanes.pop(offset)
    with pytest.raises(AssertionError):
        check_transition_paths(workload, masks)


def test_a_filter_too_deep_to_compile_leaves_the_workload_as_it_was(lane_workload):
    workload = build_workload_automata(parse_workload(LANE_SOURCES))
    with pytest.raises(WorkloadError, match="too deep"):
        workload.extend([parse_xpath("//e", "fine"), parse_xpath("/a" + "/b" * 3000, "bottomless")])
    assert workload.state_count == lane_workload.state_count
    assert len(workload.afas) == len(lane_workload.afas)
    assert workload.masks.lane_profile() == lane_workload.masks.lane_profile()
    workload.extend([parse_xpath("//e", "fine")])
    assert workload.accepted_oids([workload.afas[-1].initial]) == {"fine"}

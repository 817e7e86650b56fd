"""Tests for the transition algebra: the oracle's eval closure and δ⁻¹,
the bit-enumeration primitive under the mask tables, and the wall that
holds the two paths of a ``t_pop`` miss — word-parallel lanes and the
bit sweep — to each other and to the frozenset oracle."""

import random
import signal
import sys
import tracemalloc
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
from repro.bench.workloads import standard_workload
from repro.errors import WorkloadError
from repro.xmlstream.dom import parse_document
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

from tests import oracle


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
    partial = oracle.eval_closure(workload, [children[0]])
    assert and_state.sid not in partial
    full = oracle.eval_closure(workload, children)
    assert and_state.sid in full


def test_eval_adds_or_state_when_any_child_present():
    workload = build("/a[b = 1 or c = 2]")
    or_state = next(
        s for s in workload.states if s.kind is StateKind.OR and len(s.eps) == 2
    )
    assert or_state.sid in oracle.eval_closure(workload, [or_state.eps[0]])
    assert or_state.sid in oracle.eval_closure(workload, [or_state.eps[1]])
    assert or_state.sid not in oracle.eval_closure(workload, [])


def test_eval_not_fires_on_absence():
    workload = build("/a[not(b = 1)]")
    (not_sid,) = bits_of(workload.masks.not_mask)
    child = workload.states[not_sid].eps[0]
    assert not_sid in oracle.eval_closure(workload, [])
    assert not_sid not in oracle.eval_closure(workload, [child])


def test_eval_handles_double_negation_in_one_pass():
    workload = build("/a[not(not(b = 1))]")
    outer, inner = sorted(
        bits_of(workload.masks.not_mask), key=lambda sid: workload.states[sid].rank, reverse=True
    )
    # Inner child present → inner NOT absent → outer NOT present.
    inner_child = workload.states[inner].eps[0]
    closure = oracle.eval_closure(workload, [inner_child])
    assert inner not in closure
    assert outer in closure
    # Nothing present → inner NOT fires → outer NOT must not.
    closure = oracle.eval_closure(workload, [])
    assert inner in closure
    assert outer not in closure


def test_eval_nested_connectives():
    workload = build("/a[(b = 1 or c = 2) and d = 3]")
    and_state = find(workload, StateKind.AND)
    or_state = next(
        s for s in workload.states if s.kind is StateKind.OR and len(s.eps) == 2
    )
    d_branch = next(c for c in and_state.eps if c != or_state.sid)
    closure = oracle.eval_closure(workload, [or_state.eps[0], d_branch])
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
    lifted = oracle.delta_inverse(workload, frozenset(terminals_eq1), "b", False)
    assert len(lifted) == 2
    for sid in lifted:
        assert "b" in workload.states[sid].edges


def test_delta_inverse_self_loops(running_filters):
    workload = build_workload_automata(running_filters)
    init = workload.afas[0].initial
    # The *-self-loop keeps the initial state alive across any element close.
    assert init in oracle.delta_inverse(workload, frozenset([init]), "zzz", False)
    # ... but not across an attribute close (@* vs *).
    assert init not in oracle.delta_inverse(workload, frozenset([init]), "@zzz", True)


def test_delta_inverse_includes_top_edges():
    workload = build("/a[b]")
    lifted = oracle.delta_inverse(workload, frozenset(), "b", False)
    assert lifted  # existence edge fires even from the empty set
    assert not oracle.delta_inverse(workload, frozenset(), "c", False)


def test_accepted_oids(running_filters):
    workload = build_workload_automata(running_filters)
    both = frozenset(afa.initial for afa in workload.afas)
    assert workload.accepted_oids(both) == {"o1", "o2"}
    assert workload.accepted_oids(frozenset()) == frozenset()
    assert workload.accepted_oids(frozenset([workload.afas[0].initial])) == {"o1"}


def test_epsilon_closure():
    workload = build("/a[b = 1 and c = 2]")
    and_state = find(workload, StateKind.AND)
    closure = oracle.epsilon_closure(workload, {and_state.sid})
    for child in and_state.eps:
        assert child in closure


def test_push_targets(running_filters):
    workload = build_workload_automata(running_filters)
    init = {afa.initial for afa in workload.afas}
    after_a = oracle.push_targets(workload, init, "a", False)
    # both AND states reached, plus the self-loops keep the inits alive
    kinds = {workload.states[sid].kind for sid in after_a}
    assert StateKind.AND in kinds
    assert init <= after_a  # * self-loops
    after_zzz = oracle.push_targets(workload, init, "zzz", False)
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


def replicas(sources, copies):
    """*copies* replicas of *sources* (oid -> xpath) under distinct
    oids, replica *i* spelled with *i* trailing blanks: the same paths,
    but no two sources alike, so each compiles its own AFA (copies of
    one source text share one)."""
    return parse_workload(
        {f"{oid}{i}": xpath + " " * i for i in range(copies) for oid, xpath in sources.items()}
    )


def reached_masks(workload, docs):
    """The bottom-up states basic, TD and TD+early machines intern on
    *docs*, each machine held to the oracle's answers on the way."""
    filters = parse_workload(
        {
            oid: afa.source
            for afa in workload.afas
            for oid in workload.accepted_oids((afa.initial,))
        }
    )
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
        evaluated = oracle.eval_closure(workload, sids)
        want = naive_mask(evaluated)
        assert compiled._eval_by_lanes(mask) == want, ("lanes", mask)
        assert compiled._eval_by_sweep(mask) == want, ("sweep", mask)
        assert compiled.eval_closure(mask) == want, mask
        taken["lanes" if (mask | compiled.not_up_mask).bit_count() >= lane_bits else "sweep"] += 1
        for label in labels:
            attr = label.startswith("@")
            lifted = naive_mask(oracle.delta_inverse(workload, evaluated, label, attr))
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
    reverse = oracle.reverse_edges(lane_workload)
    rows = [reverse[sid].get("*", ()) for sid in multi.state_sids]
    assert any(len(sources) > 1 for sources in rows)
    assert {0, 1} <= lane_workload.masks._rev_lanes["*"].keys()


def test_wide_masks_take_the_same_answers_down_both_paths(lane_workload, lane_docs):
    """4 100 states: lanes and shifted results cross many words."""
    copies = 4100 // lane_workload.state_count + 1
    wide = build_workload_automata(replicas(LANE_SOURCES, copies))
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


# -- copies of one source share one AFA ----------------------------------------

SHARED = "//a[b = 1 and not(c)]"
OTHER = "/a/c"


def answering(workload, afa):
    """The oids *afa* accepts and notifies for."""
    return workload.accepted_oids((afa.initial,)), oracle.notified_oids(workload, (afa.notification,))


def oid_maps(workload):
    return (
        dict(workload._live),
        {sid: list(oids) for sid, oids in workload._oid_by_initial.items()},
        {sid: list(oids) for sid, oids in workload._oid_by_notification.items()},
    )


def test_copies_of_a_source_share_one_afa():
    workload = WorkloadAutomata().extend(
        parse_workload({"x": SHARED, "y": OTHER, "x2": SHARED, "x3": SHARED})
    )
    alone = build_workload_automata(parse_workload({"x": SHARED, "y": OTHER}))
    assert (len(workload.afas), workload.state_count) == (2, alone.state_count)
    shared, other = workload.afas
    assert answering(workload, shared) == ({"x", "x2", "x3"},) * 2
    assert answering(workload, other) == ({"y"},) * 2
    # A later call shares too.  A filter without a source, or whose path
    # is not the one its source parsed to, compiles its own.
    path = parse_xpath(SHARED).path
    workload.extend(
        [
            parse_xpath(SHARED, "x4"),
            XPathFilter(path, oid="anonymous"),
            XPathFilter(parse_xpath(OTHER).path, oid="impostor", source=SHARED),
        ]
    )
    assert len(workload.afas) == 4
    assert workload.accepted_oids((shared.initial,)) == {"x", "x2", "x3", "x4"}
    assert [workload.accepted_oids((afa.initial,)) for afa in workload.afas[2:]] == [
        {"anonymous"},
        {"impostor"},
    ]


def test_an_afa_becomes_a_passenger_with_its_last_oid():
    workload = WorkloadAutomata().extend(
        parse_workload({"x": SHARED, "x2": SHARED, "x3": SHARED})
    )
    (afa,) = workload.afas
    workload.extend(retire=["x"])
    assert workload.retired_filters == 0 and not afa.retired
    assert answering(workload, afa) == ({"x2", "x3"},) * 2
    workload.extend(retire=["x2", "x3"])
    assert (workload.retired_filters, workload.retired_states) == (1, workload.state_count)
    assert afa.retired and answering(workload, afa) == (frozenset(),) * 2
    # A passenger takes no copy: its source compiles anew.
    workload.extend([parse_xpath(SHARED, "x")])
    assert len(workload.afas) == 2 and workload.state_count == 2 * len(afa.state_sids)
    assert answering(workload, workload.afas[1]) == ({"x"},) * 2


@pytest.mark.parametrize("copies", [1, 2])
def test_an_oid_retired_and_defined_anew_with_its_own_source(copies):
    """With one copy the AFA keeps no oid outside *retire*: it becomes a
    passenger and the oid compiles anew, and a second new copy in the
    same call shares that.  With two the other copy keeps it live and
    the oid rejoins it: nothing compiles, nothing retires."""
    sources = {f"x{i}": SHARED for i in range(copies)}
    workload = WorkloadAutomata().extend(parse_workload(sources))
    states = workload.state_count
    workload.extend(parse_workload({"x0": SHARED, "z": SHARED}), retire=["x0"])
    assert workload.retired_filters == (copies == 1)
    assert workload.state_count == states * (2 if copies == 1 else 1)
    assert answering(workload, workload.afas[-1]) == ({*sources, "z"},) * 2
    assert not workload.afas[-1].retired


def test_an_oid_retired_and_defined_anew_with_another_source():
    workload = WorkloadAutomata().extend(
        parse_workload({"x0": SHARED, "x1": SHARED, "y": OTHER})
    )
    shared, other = workload.afas
    states = workload.state_count
    workload.extend([parse_xpath(OTHER, "x0")], retire=["x0"])
    assert (len(workload.afas), workload.state_count, workload.retired_filters) == (2, states, 0)
    assert answering(workload, shared) == ({"x1"},) * 2
    assert answering(workload, other) == ({"y", "x0"},) * 2


def test_a_filter_that_does_not_compile_leaves_the_oid_maps_as_they_were():
    """The copies in a failing call join nothing, the retirements in it
    happen not, and the next call shares as if it never ran."""
    workload = WorkloadAutomata().extend(parse_workload({"x": SHARED, "y": OTHER}))
    before = oid_maps(workload)
    states, afas = workload.state_count, len(workload.afas)
    failing = parse_workload(
        {"x2": SHARED, "z": "//z", "z2": "//z", "y2": OTHER, "bad": "/a/text()/b"}
    )
    with pytest.raises(WorkloadError):
        workload.extend(failing, retire=["y"])
    assert oid_maps(workload) == before
    assert (workload.state_count, len(workload.afas), workload.retired_filters) == (states, afas, 0)
    workload.extend(failing[:4], retire=["y"])
    assert workload.retired_filters == 1  # "y" was its AFA's only oid
    assert [workload.accepted_oids((afa.initial,)) for afa in workload.afas] == [
        {"x", "x2"},
        frozenset(),
        {"z", "z2"},
        {"y2"},
    ]


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


# -- AFA-local rows ----------------------------------------------------------


def afa_workload(*afas, edges=()):
    """A hand-laid workload: one terminal state per sid, *afas* as
    ``(oid, state sids)`` and *edges* as ``(source, label, target)``."""
    workload = WorkloadAutomata()
    for sid in range(sum(len(sids) for _, sids in afas)):
        workload.new_state(StateKind.OR, AtomicPredicate("=", sid))
    for index, (oid, sids) in enumerate(afas):
        workload.afas.append(automaton.AFA(oid, sids[0], state_sids=tuple(sids)))
        for sid in sids:
            workload.states[sid].owner = index
    for source, label, target in edges:
        workload.states[source].add_edge(label, target)
    return workload


@pytest.mark.parametrize(
    "afas, edges, reason",
    [
        ((("x", (0, 2)), ("y", (1,))), (), "contiguous"),
        ((("x", (1, 0)), ("y", (2,))), (), "contiguous"),
        ((("x", (1, 2)), ("y", (0,))), (), "contiguous"),
        ((("x", (0, 1)), ("y", (2,))), ((1, "a", 2),), "outside"),
    ],
)
def test_finalize_refuses_an_afa_that_is_not_one_run_of_its_own_sids(afas, edges, reason):
    """The compiled rows are stored relative to each AFA's first sid:
    that layout is checked before anything is indexed."""
    workload = afa_workload(*afas, edges=edges)
    with pytest.raises(WorkloadError, match=reason):
        workload.finalize()
    assert workload.masks is None and not workload.terminals
    laid_out = afa_workload(("x", (0, 1)), ("y", (2,)), edges=((0, "a", 1),)).finalize()
    assert laid_out.masks.state_count == 3


def test_finalize_refuses_a_state_no_afa_owns():
    workload = afa_workload(("x", (0, 1)))
    workload.new_state(StateKind.OR, AtomicPredicate("=", 2))
    with pytest.raises(WorkloadError, match="without an owning AFA: \\[2\\]"):
        workload.finalize()


def reconstructed_rows(workload):
    """``eps_rows`` / ``up_rows`` / ``rev_rows`` / ``push_rows``, rebuilt
    whole-width from ``AfaState.eps`` / ``edges`` alone."""
    states = workload.states
    parents = {state.sid: [] for state in states}
    for state in states:
        for child in state.eps:
            parents[child].append(state.sid)
    up = []
    for state in states:
        closure, stack = {state.sid}, [state.sid]
        while stack:
            for parent in parents[stack.pop()]:
                if parent not in closure:
                    closure.add(parent)
                    stack.append(parent)
        up.append(naive_mask(closure))
    rev = {}
    for state, row in zip(states, oracle.reverse_edges(workload)):
        for label, sources in row.items():
            rev.setdefault(label, {})[state.sid] = naive_mask(sources)
    push = {}
    labels = {label for state in states for label in state.edges}
    for label in labels:
        wildcard = label if label in ("*", "@*") else "@*" if label.startswith("@") else "*"
        by_source = {
            state.sid: naive_mask(
                oracle.epsilon_closure(workload, 
                    set(state.edges.get(label, ())) | set(state.edges.get(wildcard, ()))
                )
            )
            for state in states
            if label in state.edges or wildcard in state.edges
        }
        union = 0
        for row in by_source.values():
            union |= row
        push[label] = (naive_mask(by_source), by_source, union)
    return [naive_mask(state.eps) for state in states], up, rev, push


def exported_rows(masks):
    return masks.eps_rows(), masks.up_rows(), masks.rev_rows(), masks.push_rows()


def test_exported_rows_are_whole_width_whether_built_at_once_or_appended():
    filters = parse_workload(
        {f"{oid}{i}": x for i in range(3) for oid, x in LANE_SOURCES.items()}
    )
    whole = WorkloadAutomata().extend(filters)
    grown = WorkloadAutomata()
    for cut in range(0, len(filters), 5):
        grown.extend(filters[cut : cut + 5])
    want = reconstructed_rows(whole)
    assert exported_rows(whole.masks) == want
    assert reconstructed_rows(grown) == want
    assert exported_rows(grown.masks) == want


def scattered_masks(workload, rng, count=6):
    """One bit in every AFA, then one in every other one, …"""
    return [
        naive_mask(rng.choice(afa.state_sids) for afa in workload.afas[::stride])
        for stride in range(1, count + 1)
    ]


def clustered_masks(workload, rng, count=6):
    """A few AFAs, far apart, each bringing several of its bits."""
    out = []
    for _ in range(count):
        afas = rng.sample(workload.afas, 3)
        out.append(
            naive_mask(sid for afa in afas for sid in afa.state_sids if rng.random() < 0.6)
        )
    return out + [naive_mask(workload.afas[0].state_sids + workload.afas[-1].state_sids)]


@pytest.fixture(scope="module")
def wide_lane_workload():
    copies = 4100 // build_workload_automata(parse_workload(LANE_SOURCES)).state_count + 1
    return build_workload_automata(replicas(LANE_SOURCES, copies))


@pytest.mark.parametrize("span", [0, 5, automaton._SPAN])
@pytest.mark.parametrize("shape", ["scattered", "clustered"])
def test_sweeps_over_local_rows_equal_their_frozenset_twins(
    wide_lane_workload, monkeypatch, span, shape
):
    """Every sweep gathers local rows span by span and shifts them into
    place; a span of 0 shifts once per AFA.  Each must equal its spec."""
    monkeypatch.setattr(automaton, "_SPAN", span)
    workload, compiled = wide_lane_workload, wide_lane_workload.masks
    rng = random.Random(span * 7 + len(shape))
    masks = (scattered_masks if shape == "scattered" else clustered_masks)(workload, rng)
    masks.append(compiled.all_mask)
    for mask in masks:
        sids = set(naive_bits(mask))
        assert compiled.epsilon_closure(mask) == naive_mask(oracle.epsilon_closure(workload, sids))
        assert compiled.afa_states(mask) == naive_mask(oracle.afa_states_of(workload, sids))
        for label in LANE_LABELS:
            attr = label.startswith("@")
            targets = oracle.push_targets(workload, sids, label, attr)
            assert compiled.push_targets_closure(mask, label, attr) == naive_mask(
                oracle.epsilon_closure(workload, targets)
            ), (label, mask)
    check_transition_paths(workload, masks, LANE_LABELS)


def row_table_bytes(masks):
    """Python bytes of the per-sid row tables, each shared object once."""
    seen, total = set(), 0

    def count(obj):
        nonlocal total
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)

    rows = (masks._bases, masks._eps_masks, masks._closure_masks, masks._up_masks)
    tables = [*rows, masks._owner_masks, *masks._rev_sources.values()]
    tables += [by_source for _, by_source, _ in masks._push_by_label.values()]
    for table in tables:
        count(table)
        for row in table.values() if isinstance(table, dict) else table:
            count(row)
    return total


def test_the_row_tables_grow_linearly_with_the_workload():
    """Every row is as wide as one AFA, not as the workload: the bytes
    per AFA state stay flat from 500 to 2 000 filters (whole-width rows
    read ×2.7 here, 16.7 MB at 2 000)."""
    per_state = []
    for queries in (500, 2000):
        workload = build_workload_automata(standard_workload(queries)[0])
        per_state.append(row_table_bytes(workload.masks) / workload.state_count)
    assert per_state[1] <= per_state[0] * 1.25, per_state


@pytest.mark.slow
def test_the_compiled_workload_grows_linearly_at_paper_scale():
    """The paper runs 50k-200k queries.  A doubling from 5 000 to
    10 000 filters may at most ×2.2 the build's Python allocations
    (whole-width rows read ×3.2-3.5 in RSS)."""
    peaks = []
    for queries in (5000, 10000):
        filters = standard_workload(queries)[0]
        tracemalloc.start()
        try:
            build_workload_automata(filters)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] * 2.2, peaks

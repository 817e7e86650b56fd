"""Differential wall at the transition-kernel seam.

The whole-machine walls (``test_runtime_differential``) compare
answers along the option diagonals a machine can be built with; this
one compares the two kernels of :mod:`repro.xpush.kernels` with the
oracle's directly, transition by transition, on masks harvested from a
real run (every bottom/top state of a warmed machine, plus random
sub-masks) — every (``order`` × ``early`` × ``codegen``) cell,
including ``pop_early`` without an enabled set, which no machine
configuration reaches.  ``tests.oracle.OracleKernel`` is the spec the
other two must equal.

The second half repeats the comparison on a workload wider than 4 096
AFA states — masks that cross many 64-bit word boundaries and reach
the word-slicing path of :func:`repro.afa.automaton.bits_of` — and
holds every :class:`~repro.afa.automaton.CompiledMasks` sweep to its
set twin in the oracle, converting int↔set with a naive shift-and-test
so the spec side never leans on the primitive under test.
"""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afa import automaton
from repro.afa.automaton import _PEEL_BITS, _PEEL_WIDTH, bits_of
from repro.afa.build import build_workload_automata
from repro.xmlstream.dom import parse_document
from repro.xmlstream.dtd import DTD, PCDATA, ElementDecl, elem, seq
from repro.xpath.parser import parse_workload
from repro.xpush.kernels import CodegenKernel, MaskKernel
from repro.xpush.machine import XPushMachine, compute_precedence
from repro.xpush.options import XPushOptions

from tests import oracle
from tests.afa.test_automaton import naive_bits, replicas
from tests.property.test_machine_properties import documents as gen_documents

#: ``//``, ``*``, ``@*``, ``not()``, ``or``, nested predicates — over the
#: label vocabulary the generated documents use.
SOURCES = {
    "desc": "//a[b = 1 and .//c[@d > 1]]",
    "wild": "/a/*[@* = 'x' or not(b)]",
    "nest": "//b[c[d = 2 and not(@a)] or a/text() = 'x']",
    "flat": "/a[b = 1 and c = 2 and d]",
    "attr": "//c/@b",
    "deep": "//d[not(a or b[c])]//a",
}
LABELS = ["a", "b", "c", "d", "@a", "@b", "@d", "zz", "@zz"]
TD_EARLY = XPushOptions(top_down=True, early=True)


def ordered_dtd() -> DTD:
    """Sibling order b ≺ c ≺ d under a, so ``flat`` has precedences."""
    return DTD(
        "a",
        [
            ElementDecl("a", seq(elem("b", "?"), elem("c", "?"), elem("d", "*"))),
            ElementDecl("b", PCDATA),
            ElementDecl("c", PCDATA),
            ElementDecl("d", PCDATA),
        ],
    )


@pytest.fixture(scope="module")
def workload():
    return build_workload_automata(parse_workload(SOURCES))


@pytest.fixture(scope="module")
def prec(workload):
    prec = compute_precedence(workload, ordered_dtd())
    assert prec, "the wall needs a non-empty precedence relation"
    return prec


@pytest.fixture(scope="module")
def kernel_families(workload, prec):
    """``[(sets, mask, codegen)]`` without and with order precedence."""
    handlers = workload.compiled_handlers()
    assert handlers is not None
    return [
        (
            oracle.OracleKernel(workload, p),
            MaskKernel(workload.masks, p),
            CodegenKernel(workload.masks, handlers, p),
        )
        for p in (None, prec)
    ]


def harvest(workload, docs, seed: int) -> tuple[list[int], list[int]]:
    """``(bottom masks, enabled masks)`` of a machine warmed on *docs*,
    each followed by a few random sub-masks."""
    machine = XPushMachine(workload, TD_EARLY)
    for doc in docs:
        if not doc.has_mixed_content():
            machine.filter_document(doc)
    rng = random.Random(seed)

    def with_submasks(masks: list[int]) -> list[int]:
        return masks + [m & rng.getrandbits(workload.state_count) for m in masks]

    return (
        with_submasks([s.mask for s in machine.store.bottom_states()]),
        with_submasks([s.mask for s in machine.store.top_states()]),
    )


@given(st.lists(gen_documents, min_size=1, max_size=3), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_kernels_agree_on_harvested_masks(workload, kernel_families, docs, seed):
    bottoms, enabled_sets = harvest(workload, docs, seed)
    rng = random.Random(seed)
    for sets, mask, codegen in kernel_families:
        assert sets.initial_enabled() == mask.initial_enabled() == codegen.initial_enabled()
        for enabled in enabled_sets:
            for label in LABELS:
                want = sets.push(enabled, label)
                assert mask.push(enabled, label) == want, (enabled, label)
                assert codegen.push(enabled, label) == want, (enabled, label)
        for bottom in bottoms:
            label = rng.choice(LABELS)
            want = sets.pop(bottom, label)
            assert mask.pop(bottom, label) == want, (bottom, label)
            assert codegen.pop(bottom, label) == want, (bottom, label)
            for enabled in (None, rng.choice(enabled_sets)):
                for parent in (None, rng.choice(enabled_sets)):
                    early = sets.pop_early(bottom, label, enabled, parent)
                    args = (bottom, label, enabled, parent)
                    assert mask.pop_early(*args) == early, args
                    assert codegen.pop_early(*args) == early, args
            aux = rng.choice(bottoms)
            want = sets.badd(bottom, aux)
            assert mask.badd(bottom, aux) == want, (bottom, aux)
            assert codegen.badd(bottom, aux) == want, (bottom, aux)


def test_order_precedence_reaches_every_kernel(kernel_families, prec):
    """``flat``'s c-branch may only merge once its b-branch matched: a
    kernel built with the precedence drops it until then, one built
    without keeps it — identically in all three."""
    sid, required = next(iter(prec.items()))
    gated = 1 << sid
    siblings = sum(1 << s for s in required)
    for kernel in kernel_families[0]:
        assert kernel.badd(0, gated) == gated
    for kernel in kernel_families[1]:
        assert kernel.badd(0, gated) == 0
        assert kernel.badd(siblings, gated) == siblings | gated


def test_declined_codegen_runs_the_mask_kernel(workload):
    docs = [
        "<a><b>1</b><c d='2'/></a>",
        "<a><x a='x'/><d/></a>",
        "<b><c><d>2</d></c></b>",
    ]
    reference = XPushMachine(workload, TD_EARLY)
    with pytest.warns(RuntimeWarning):
        declined = XPushMachine(
            workload,
            XPushOptions(
                top_down=True,
                early=True,
                runtime="codegen",
                codegen_max_handlers=1,
            ),
        )
    assert type(declined.kernel) is MaskKernel
    assert type(XPushMachine(workload, TD_EARLY).kernel) is MaskKernel
    for xml in docs:
        assert declined.filter_stream(xml) == reference.filter_stream(xml)
    stats = declined.stats
    assert stats.codegen_fallbacks == stats.push_computed + stats.pop_computed > 0
    assert reference.stats.codegen_fallbacks == 0


# -- the same wall, wider than one word --------------------------------------

#: Bit positions either side of the first two word boundaries.
BOUNDARY_BITS = (63, 64, 127, 128)


def naive_mask(sids) -> int:
    return sum(1 << sid for sid in set(sids))


@pytest.fixture(scope="module")
def wide_workload(workload):
    """``SOURCES`` replicated under distinct oids and spellings until
    the state masks are wider than 4 096 bits."""
    copies = 2 * _PEEL_WIDTH // workload.state_count + 1
    wide = build_workload_automata(replicas(SOURCES, copies))
    assert wide.state_count > 4096
    return wide


@pytest.fixture(scope="module")
def wide_kernels(wide_workload):
    prec = compute_precedence(wide_workload, ordered_dtd())
    assert prec
    return oracle.OracleKernel(wide_workload, prec), MaskKernel(wide_workload.masks, prec)


def wide_masks(workload, docs, seed: int, count: int = 8) -> list[int]:
    """A sample of harvested masks (every replica carries the same
    states, so they are wide *and* populated), each also as a random
    sub-mask forced to hold the word-boundary bits and the top bit."""
    rng = random.Random(seed)
    bottoms, tops = harvest(workload, docs, seed)
    forced = naive_mask(BOUNDARY_BITS) | 1 << workload.state_count - 1
    pool = bottoms + tops
    sample = rng.sample(pool, min(count, len(pool)))
    return sample + [m & rng.getrandbits(workload.state_count) | forced for m in sample]


def check_sweeps(workload, masks: list[int], rng: random.Random) -> None:
    """Every ``CompiledMasks`` sweep against its set twin on *masks*."""
    compiled = workload.masks
    for mask in masks:
        sids = naive_bits(mask)
        assert bits_of(mask) == sids
        assert compiled.eval_closure(mask) == naive_mask(oracle.eval_closure(workload, sids))
        assert compiled.epsilon_closure(mask) == naive_mask(oracle.epsilon_closure(workload, sids))
        assert compiled.accepted_oids(mask) == workload.accepted_oids(sids)
        assert compiled.notified_oids(mask) == oracle.notified_oids(workload, sids)
        assert compiled.afa_states(mask) == naive_mask(oracle.afa_states_of(workload, sids))
        for label in rng.sample(LABELS, 3):
            attr = label.startswith("@")
            assert compiled.delta_inverse(mask, label, attr) == naive_mask(
                oracle.delta_inverse(workload, sids, label, attr)
            ), (mask, label)
            assert compiled.push_targets_closure(mask, label, attr) == naive_mask(
                oracle.epsilon_closure(workload, oracle.push_targets(workload, sids, label, attr))
            ), (mask, label)


@given(st.lists(gen_documents, min_size=1, max_size=3), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_wide_sweeps_equal_their_set_twins(wide_workload, docs, seed):
    masks = wide_masks(wide_workload, docs, seed)
    assert any(
        m.bit_length() > _PEEL_WIDTH and m.bit_count() > _PEEL_BITS for m in masks
    ), "no mask reached the word-slicing path"
    check_sweeps(wide_workload, masks, random.Random(seed))


@given(st.lists(gen_documents, min_size=1, max_size=3), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_wide_mask_kernel_equals_sets_kernel(wide_workload, wide_kernels, docs, seed):
    sets, mask = wide_kernels
    masks = wide_masks(wide_workload, docs, seed)
    rng = random.Random(seed)
    for bottom in masks:
        label = rng.choice(LABELS)
        assert mask.pop(bottom, label) == sets.pop(bottom, label), (bottom, label)
        for enabled in (None, rng.choice(masks)):
            for parent in (None, rng.choice(masks)):
                args = (bottom, label, enabled, parent)
                assert mask.pop_early(*args) == sets.pop_early(*args), args
        aux = rng.choice(masks)
        assert mask.badd(bottom, aux) == sets.badd(bottom, aux), (bottom, aux)


def test_the_wall_catches_an_off_by_one_word_base(wide_workload, monkeypatch):
    """Seed ``base += 63`` into the word loop: the sweeps must disagree
    with their set twins (the wall would be blind to the wide path if
    they did not)."""
    source = inspect.getsource(bits_of)
    assert source.count("base += 64") == 1
    scope = dict(vars(automaton))
    exec(source.replace("base += 64", "base += 63"), scope)
    docs = [
        parse_document(xml)
        for xml in ("<a><b>1</b><c d='2'/></a>", "<a><x a='x'/><d/></a>", "<b><c><d>2</d></c></b>")
    ]
    masks = wide_masks(wide_workload, docs, seed=7)
    check_sweeps(wide_workload, masks, random.Random(7))
    monkeypatch.setattr(automaton, "bits_of", scope["bits_of"])
    with pytest.raises(AssertionError):
        check_sweeps(wide_workload, masks, random.Random(7))

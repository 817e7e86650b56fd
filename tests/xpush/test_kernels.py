"""Differential wall at the transition-kernel seam.

The whole-machine walls (``test_runtime_differential``) compare
answers along the option diagonals a machine can be built with; this
one compares the three kernels of :mod:`repro.xpush.kernels` directly,
transition by transition, on masks harvested from a real run (every
bottom/top state of a warmed machine, plus random sub-masks) — every
(``order`` × ``early`` × ``codegen``) cell, including ``pop_early``
without an enabled set, which no machine configuration reaches.
``SetsKernel`` is the spec the other two must equal.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afa.build import build_workload_automata
from repro.xmlstream.dtd import DTD, PCDATA, ElementDecl, elem, seq
from repro.xpath.parser import parse_workload
from repro.xpush.kernels import CodegenKernel, MaskKernel, SetsKernel
from repro.xpush.machine import XPushMachine, compute_precedence
from repro.xpush.options import XPushOptions

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
TD_EARLY = XPushOptions(top_down=True, early=True, precompute_values=False)


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
            SetsKernel(workload, p),
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
                precompute_values=False,
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

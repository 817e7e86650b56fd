"""Property: the order optimisation never changes answers on
DTD-valid documents, for hypothesis-generated DTDs and flat workloads.

This is the optimisation's exact soundness condition — it prunes
states whose DTD-mandated predecessors can no longer appear, so it is
only claimed correct for conforming documents (Sec. 5).  What it saves
is bits, not states: at every event its bottom-up register is a subset
of the plain machine's.
"""

import random
import string

from hypothesis import example, given, settings, strategies as st

from repro.afa.build import build_workload_automata
from repro.xmlstream.dom import parse_document
from repro.xmlstream.dtd import DTD, AttributeDecl, ElementDecl, PCDATA, elem, seq
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
    events_of_document,
)
from repro.xpath.generator import flat_workload
from repro.xpath.parser import parse_workload
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions


def flat_dtd(occurrences: list[str], root: str = "root") -> tuple[DTD, list[str]]:
    """A *root* with one PCDATA child ``cN`` per occurrence, in DTD order."""
    labels = [f"c{i}" for i in range(len(occurrences))]
    particles = [elem(label, occurrence) for label, occurrence in zip(labels, occurrences)]
    declarations = [ElementDecl(root, seq(*particles), (AttributeDecl("id"),))]
    declarations += [ElementDecl(label, PCDATA) for label in labels]
    return DTD(root, declarations), labels


@st.composite
def flat_dtds(draw):
    """A root with 3-6 optional/repeated PCDATA children, in DTD order."""
    count = draw(st.integers(3, 6))
    return flat_dtd([draw(st.sampled_from(["?", "*", ""])) for _ in range(count)])


@st.composite
def scenario(draw):
    dtd, labels = draw(flat_dtds())
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    values = [str(v) for v in range(4)]
    k = draw(st.integers(1, min(3, len(labels))))
    filters = flat_workload("root", labels, draw(st.integers(1, 6)), k, values, rng)
    documents = [
        dtd.generate(rng, lambda label, r: r.choice(values))
        for _ in range(draw(st.integers(1, 5)))
    ]
    return dtd, filters, documents


@given(scenario())
@settings(max_examples=120, deadline=None)
def test_order_optimisation_preserves_answers(data):
    dtd, filters, documents = data
    workload = build_workload_automata(filters)
    ordered = XPushMachine(workload, XPushOptions(order=True), dtd=dtd)
    for document in documents:
        dtd.validate(document)  # precondition of the optimisation
        assert ordered.filter_document(document) == matching_oids(filters, document)


#: A scenario where the ordered machine interns more states than the
#: plain one (11 against 9): a pruned subset can be a state the plain
#: machine never builds, so no bound on the count follows from pruning.
PRUNED_SUBSETS_ARE_NEW_STATES = (
    flat_dtd(["", "*", "*", "", "", "*"], root="doc")[0],
    parse_workload(
        [
            "/doc[c0/text() = 2 and c1/text() = 0]",
            "/doc[c1/text() = 0 and c3/text() = 1]",
            "/doc[c3/text() = 2 and c4/text() = 1]",
            "/doc[c1/text() = 0 and c3/text() = 2]",
            "/doc[c3/text() = 1 and c4/text() = 3]",
        ]
    ),
    [
        parse_document(xml)
        for xml in (
            "<doc><c0>3</c0><c1>3</c1><c1>0</c1><c2>2</c2><c3>2</c3><c4>0</c4></doc>",
            "<doc><c0>0</c0><c2>3</c2><c2>3</c2><c3>2</c3><c4>0</c4><c5>1</c5></doc>",
        )
    ],
)


def _step(machine: XPushMachine, event) -> None:
    """Drive *machine* by one event through its public SAX callbacks."""
    kind = type(event)
    if kind is StartDocument:
        machine.start_document()
    elif kind is StartElement:
        machine.start_element(event.label)
    elif kind is Text:
        machine.text(event.value)
    elif kind is EndElement:
        machine.end_element(event.label)
    else:
        assert kind is EndDocument
        machine.end_document()


@given(scenario())
@example(PRUNED_SUBSETS_ARE_NEW_STATES)
@settings(max_examples=60, deadline=None)
def test_order_optimisation_never_inflates_states(data):
    """No state of the ordered machine is larger than the plain one's
    at the same event: the optimisation only removes bits.  (Flat
    workloads without ``not`` keep ``eval`` monotone, which the
    invariant needs.)  The state *count* has no such bound."""
    dtd, filters, documents = data
    workload = build_workload_automata(filters)
    plain = XPushMachine(workload, XPushOptions())
    ordered = XPushMachine(workload, XPushOptions(order=True), dtd=dtd)
    for document in documents:
        dtd.validate(document)
        for index, event in enumerate(events_of_document(document)):
            _step(plain, event)
            _step(ordered, event)
            extra = ordered._qb.mask & ~plain._qb.mask
            assert not extra, f"event {index} ({event}): ordered register has bits {extra:#x}"
    assert ordered.results() == plain.results()


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_full_stack_on_random_flat_scenarios(data):
    """All optimisations together on the generated DTD-valid streams."""
    dtd, filters, documents = data
    machine = XPushMachine(
        build_workload_automata(filters),
        XPushOptions(top_down=True, order=True, early=True, train=True),
        dtd=dtd,
    )
    for document in documents:
        assert machine.filter_document(document) == matching_oids(filters, document)

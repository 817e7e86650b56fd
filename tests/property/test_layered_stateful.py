"""Stateful property test: the layered engine under arbitrary
insert / remove / re-insert / compact / filter interleavings (runs of
filtering with no update included, so deltas idle out) always
answers like the reference evaluator over its *current* filter set —
which is what a brute-force rebuild at that step would answer — in
every machine variant and on both the production kernel and the
oracle (id ``sets``), at ``end_document`` and through ``on_match``
alike.  Streamed steps sample the scanner — expat or the oracle one
(``tests/scanner_oracle.py``, id ``"python"``) — so both scanners'
fused ``leaf`` delivery meets generated schedules, against references
that replay the classic start/text/end triples.

An engine has three layer states — a base alone, a delta alone (grown
by ``subscribe`` from empty), both — and two ways to drive them: the
parser on the one machine directly, or the fan-out over the two.  They
must agree on the *event*, not only on the answer: every emission's
``(doc_index, event_index)`` is checked against a bare
:class:`XPushMachine` built over the live filters.

Layers grow in place (``XPushMachine.extend``) and answer memo misses
partly from the store they had before, so the pools put ``not(...)``,
``//``, ``*`` and existence tests into the carried block: those are the
states that fire spuriously when the kernel sweeps only the remainder.
Copies of a source share one AFA per layer, so schedules subscribe
copies of live filters too, and unsubscribe and re-subscribe them: a
copy that joins a carried AFA must be named by the notification sets
the old store memoised for the original.
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.xmlstream.dom import parse_document
from repro.xmlstream.dtdparser import parse_dtd
from repro.xmlstream.events import events_of_document
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

from tests import oracle
from tests.scanner_oracle import scanning

# The order optimisation is sound on documents that conform to the
# DTD, so the closed world has one.
DTD = parse_dtd(
    """
    <!ELEMENT r (a*, b*, c?)>
    <!ELEMENT a (b*, d?, a?)>
    <!ATTLIST a k CDATA #IMPLIED>
    <!ELEMENT b (#PCDATA)>
    <!ELEMENT c (a*)>
    <!ELEMENT d (#PCDATA)>
    """,
    root="r",
)
# A small closed world so interactions (duplicates, overlaps) happen.
FILTER_POOL = [
    "//a",
    "//a[b = 1]",
    "/r/a/b",
    "//b[text() = 2]",
    "/r/a[not(b = 1)]",
    "//a[b = 1 or b = 2]",
    "//*[@k = 'x']",
    "//a[not(.//d)]",
    "/r/*/d",
    "/r/a[b = 1 and d = 3]",
    "//c//a[b = 3 and a]",
    "//a[d]",
    "/r[not(c)]",
]
DOC_POOL = [
    "<r><a><b>1</b></a></r>",
    "<r><a><b>2</b><d>3</d></a><b>2</b></r>",
    "<r/>",
    "<r><b>2</b></r>",
    '<r><a k="x"><b>1</b><d>3</d></a></r>',
    "<r><c><a><b>3</b><a><d>3</d></a></a></c></r>",
    "<r><a><a><b>1</b></a></a><c/></r>",
]
DOCUMENTS = [parse_document(xml) for xml in DOC_POOL]
for _document in DOCUMENTS:
    DTD.validate(_document)

#: Every engine starts with these in its base layer, so the first fold
#: already carries a block holding ``not(...)``, ``//``, ``*`` and an
#: existence test.
SEED_FILTERS = {
    "s0": "/r/a[not(b = 1)]",
    "s1": "//a[not(.//d)]",
    "s2": "/r/*/d",
    "s3": "//a[d]",
    "s4": "/r[not(c)]",
}

VARIANTS = {
    "default": XPushOptions(),
    "top_down": XPushOptions(top_down=True),
    "top_down+early": XPushOptions(top_down=True, early=True),
    "order": XPushOptions(order=True),
}
RUNTIMES = ("bitmask", "sets")
#: ``compact_threshold`` of every engine here: low, so folds are
#: frequent, and below ``len(DOC_POOL)``, so a check of every document
#: idles a delta out.
THRESHOLD = 3
#: How a check feeds the documents: as event objects (``None``), or as
#: text through ``filter_stream`` on that scanner.
FEEDS = (None, "python", "expat")


def seeded_engines():
    """One engine per variant and kernel over :data:`SEED_FILTERS`."""
    seeds = [parse_xpath(source, oid) for oid, source in SEED_FILTERS.items()]
    engines = dict.fromkeys((name, runtime) for name in VARIANTS for runtime in RUNTIMES)
    for (name, runtime), _ in each(engines):
        options = oracle.options_for(VARIANTS[name], runtime)
        engines[name, runtime] = LayeredFilterEngine(seeds, options, dtd=DTD, compact_threshold=THRESHOLD)
    return engines


def each(engines):
    """``(key, engine)`` pairs, the oracle's patched in while the caller holds one."""
    for key, engine in engines.items():
        with oracle.under(key[1]):
            yield key, engine


def grown_engines(check):
    """One engine per variant that starts empty and subscribes
    :data:`SEED_FILTERS` one by one, ``check(engines, live)`` after
    each: the first two leave a delta and no base."""
    engines = {
        (name, "grown"): LayeredFilterEngine([], options, dtd=DTD, compact_threshold=THRESHOLD)
        for name, options in VARIANTS.items()
    }
    live: dict[str, str] = {}
    check(engines, live)
    for oid, source in SEED_FILTERS.items():
        for engine in engines.values():
            engine.subscribe(oid, source)
        live[oid] = source
        check(engines, live)
    return engines


#: The ``(has base, has delta)`` pairs :func:`check_answers` has seen.
LAYER_STATES: set[tuple[bool, bool]] = set()
ALL_DOCUMENTS = range(len(DOCUMENTS))


def reference_emissions(options, live, documents):
    """``(doc_index, event_index, oid)`` of every match, as a machine
    built over exactly the *live* filters decides them."""
    machine = XPushMachine.from_xpath(dict(live), options, dtd=DTD)
    emitted = []
    machine.on_match = lambda oid, doc, event: emitted.append((doc, event, oid))
    machine.process_events(e for document in documents for e in events_of_document(document))
    return sorted(emitted)


def check_answers(engines, live, indexes, feed=None):
    """In one filter call over the documents at *indexes* (parsed from
    text by the *feed* scanner, when one is named), every engine answers like the reference
    evaluator over *live* (oid -> xpath) and emits exactly that through
    ``on_match``: each oid once, at the document and event a bare
    machine over the live filters decides it."""
    documents = [DOCUMENTS[index] for index in indexes]
    filters = [parse_xpath(source, oid) for oid, source in live.items()]
    expected = [matching_oids(filters, document) for document in documents]
    events = {
        name: reference_emissions(options, live, documents) for name, options in VARIANTS.items()
    }
    for key, engine in each(engines):
        LAYER_STATES.add((engine._base is not None, engine._delta is not None))
        emitted = []
        engine.on_match = lambda oid, doc, event: emitted.append((doc, event, oid))
        if feed is not None:
            text = "".join(DOC_POOL[index] for index in indexes)
            with scanning(feed):
                answers = engine.filter_stream(text)
        else:
            answers = engine.filter_events(
                e for document in documents for e in events_of_document(document)
            )
        assert answers == expected, key
        assert sorted(emitted) == events[key[0]], key
        assert sorted((doc, oid) for doc, _, oid in emitted) == sorted(
            (doc, oid) for doc, matched in enumerate(expected) for oid in matched
        ), key


def run_seeded_schedule():
    """A fixed schedule over the seeded engines, every document checked
    after every step: grow the delta, fold, retire a carried ``not``
    filter, bring its oid back under another definition (a passenger
    and a live AFA then share the oid), fold again, and subscribe and
    unsubscribe copies of a carried filter.  Returns, per engine, the
    most carried hits, passengers and copies sharing an AFA its stats
    and layers ever showed (a renumbering starts the first two from
    zero)."""
    engines = seeded_engines()
    engines.update(grown_engines(lambda grown, live: check_answers(grown, live, ALL_DOCUMENTS)))
    live = dict(SEED_FILTERS)
    peaks = {key: {"carried": 0, "retired_filters": 0, "copies": 0} for key in engines}
    feeds = itertools.cycle(("python", None, "expat", None))

    def step(*updates):
        for verb, *args in updates:
            for _, engine in each(engines):
                getattr(engine, verb)(*args)
            if verb == "subscribe":
                live[args[0]] = args[1]
            elif verb == "unsubscribe":
                del live[args[0]]
        # Every document meets the layers the updates left in one call
        # first; the one-document calls after it find the delta idle
        # and fold it, so updates that must meet in one delta share a
        # step.
        check_answers(engines, live, ALL_DOCUMENTS, feed=next(feeds))
        for index in ALL_DOCUMENTS:
            check_answers(engines, live, [index])
        for key, engine in engines.items():
            assert engine._base is None or engine._delta is None, key
            stats = {**engine.stats(), "copies": copies(engine)}
            for name, peak in peaks[key].items():
                peaks[key][name] = max(peak, stats[name])

    step(("compact",))
    step(("subscribe", "n0", "//a[b = 1]"))
    step(
        ("subscribe", "n1", "/r/a[b = 1 and d = 3]"),
        ("subscribe", "n2", "//*[@k = 'x']"),
        ("subscribe", "n4", "//a[d]"),  # the third insertion folds
    )
    step(("subscribe", "n3", "//c//a[b = 3 and a]"), ("unsubscribe", "n3"))  # tombstoned in the delta
    step(("unsubscribe", "s0"))
    step(
        ("subscribe", "s0", "//b[text() = 2]"),  # shadows the tombstoned base s0
        ("unsubscribe", "n1"),
        ("subscribe", "n3", "//c//a[b = 3 and a]"),
        ("unsubscribe", "n3"),
        ("subscribe", "n3", "/r/a/b"),  # redefined inside the delta
    )
    step(("compact",))
    step(("unsubscribe", "s0"))
    step(("subscribe", "s0", "/r/a[not(b = 1)]"))  # two retired s0 AFAs ride in the base
    step(("compact",))
    # Copies of the carried n0: two share one delta AFA, the fold joins
    # them to n0's, and the AFA outlives the original.
    step(("subscribe", "n5", "//a[b = 1]"), ("subscribe", "n6", "//a[b = 1]"))
    step(("unsubscribe", "n0"), ("unsubscribe", "n5"))
    step(("compact",))
    return peaks


def copies(engine):
    """How many oids of the engine's layers answer through an AFA that
    another oid of the layer answers through too."""
    count = 0
    for machine in (engine._base, engine._delta):
        if machine is not None:
            workload = machine.workload
            rows = [workload.accepted_oids((afa.initial,)) for afa in workload.afas]
            count += sum(len(oids) - 1 for oids in rows if oids)
    return count


def test_seeded_schedule_matches_reference_at_every_step():
    # The schedule is only a wall for the carry if the carry happened,
    # for passengers if some rode along, and for the two ways of driving
    # the layers if it was checked with a base alone, a delta alone and
    # both (the first two are the direct path, the last the fan-out).
    LAYER_STATES.clear()
    for key, peak in run_seeded_schedule().items():
        assert peak["carried"] > 0 and peak["retired_filters"] > 0 and peak["copies"] > 0, key
    assert LAYER_STATES == {(False, False), (True, False), (False, True), (True, True)}


class LayeredEngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engines = seeded_engines()
        self.engines.update(
            grown_engines(lambda grown, live: check_answers(grown, live, [0, 4], feed="expat"))
        )
        self.live: dict[str, str] = dict(SEED_FILTERS)  # oid -> xpath
        self.removed: list[str] = []
        self.counter = 0

    def _subscribe(self, oid, source):
        for _, engine in each(self.engines):
            engine.subscribe(oid, source)
        self.live[oid] = source

    @rule(source=st.sampled_from(FILTER_POOL))
    def insert(self, source):
        self.counter += 1
        self._subscribe(f"f{self.counter}", source)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        for _, engine in each(self.engines):
            engine.unsubscribe(oid)
        del self.live[oid]
        self.removed.append(oid)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def subscribe_copy(self, data):
        """A new oid on a live filter's source: it shares that filter's
        AFA in the layer holding it, or from the next fold."""
        self.counter += 1
        source = data.draw(st.sampled_from(sorted(set(self.live.values()))))
        self._subscribe(f"f{self.counter}", source)

    @precondition(lambda self: self.removed)
    @rule(data=st.data(), source=st.sampled_from(FILTER_POOL))
    def resubscribe(self, data, source):
        """An oid comes back, usually with another definition: its old
        AFA may be tombstoned in either layer or a retired passenger."""
        oid = data.draw(st.sampled_from(self.removed))
        self.removed.remove(oid)
        self._subscribe(oid, source)

    @rule()
    def compact(self):
        for _, engine in each(self.engines):
            engine.compact()

    @rule(feed=st.sampled_from(FEEDS))
    def filter_documents_with_no_update(self, feed):
        """One call a document, one more than the threshold: a delta
        left beside the base idles out before the last call."""
        for index in range(THRESHOLD + 1):
            check_answers(self.engines, self.live, [index], feed)
        for key, engine in self.engines.items():
            assert engine._base is None or engine._delta is None, key

    @rule(
        indexes=st.lists(st.sampled_from(ALL_DOCUMENTS), min_size=1, max_size=3),
        feed=st.sampled_from(FEEDS),
    )
    def filter_matches_reference(self, indexes, feed):
        check_answers(self.engines, self.live, indexes, feed)

    @invariant()
    def count_is_consistent(self):
        for engine in self.engines.values():
            assert engine.filter_count == len(self.live)


TestLayeredEngine = LayeredEngineMachine.TestCase
TestLayeredEngine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)

"""Tests for the stats counters and their invariants."""

import pytest

from repro.errors import MixedContentError
from repro.xmlstream.dom import parse_document
from repro.xmlstream.parser import parse_events
from repro.xmlstream.writer import document_to_xml
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.stats import MachineStats

from tests.conftest import make_workload


def test_snapshot_and_reset():
    stats = MachineStats()
    stats.events = 5
    stats.lookups = 10
    stats.misses = 6  # hits are derived: lookups - misses
    stats.evictions = 1
    snap = stats.snapshot()
    assert snap["events"] == 5
    assert (snap["hits"], snap["misses"]) == (4, 6)
    assert snap["hit_ratio"] == 0.4
    assert snap["evictions"] == 1
    stats.reset()
    assert stats.events == 0
    assert stats.hit_ratio == 0.0


def test_hits_never_exceed_lookups_and_computations_balance():
    machine = XPushMachine.from_xpath(
        {"q": "/a[b = 1 and c = 2]"}, options=XPushOptions(top_down=True)
    )
    for i in range(10):
        machine.filter_document(parse_document(f"<a><b>{i % 2}</b><c>2</c></a>"))
    stats = machine.stats
    assert stats.hits <= stats.lookups
    # Every miss triggered exactly one computation.
    misses = stats.lookups - stats.hits
    computed = (
        stats.pop_computed + stats.add_computed + stats.value_computed + stats.push_computed
    )
    assert misses == computed
    assert stats.documents == 10
    # per doc: startDoc+endDoc (2) + three start/end tag pairs (6) + two texts
    assert stats.events == 10 * (2 + 6 + 2)


def test_event_count_matches_stream():
    machine = XPushMachine.from_xpath({"q": "//x"})
    machine.filter_stream("<a><x/></a>")
    # startDoc, a, x, /x, /a, endDoc
    assert machine.stats.events == 6
    assert machine.stats.bytes_processed == len("<a><x/></a>")


# ----------------------------------------------------------------------
# The hit path's books: one lookups write per probe, misses on the miss
# path only, events settled per document.
# ----------------------------------------------------------------------


def test_warm_passes_keep_the_books(protein, protein_docs):
    stream = "".join(document_to_xml(doc) for doc in protein_docs)
    classic = parse_events(stream)
    machine = XPushMachine.from_filters(
        make_workload(protein, 60), XPushOptions(top_down=True), dtd=protein.dtd
    )
    machine.filter_stream(stream)
    machine.process_events(classic)
    stats = machine.stats
    # Fed fused leaves, and fed the start/text/end triples they stand
    # for: the same events, and the probes each feed has always made.
    for feed, probes in (
        (lambda: machine.filter_stream(stream), 3314),
        (lambda: machine.process_events(classic), 5033),
    ):
        lookups, misses, events = stats.lookups, stats.misses, stats.events
        feed()
        assert stats.misses == misses  # warm: every probe hits
        assert stats.hits == stats.lookups - stats.misses
        assert stats.events - events == len(classic) == 3776
        assert stats.lookups - lookups == probes


@pytest.mark.parametrize("backend", ["python", "expat"])
@pytest.mark.parametrize(
    "text", ["<r><c>1</c>tail</r>", "<r>x<c>1</c></r>"], ids=["text-after-leaf", "leaf-after-text"]
)
def test_an_abandoned_document_counts_the_events_it_consumed(backend, text):
    fed_leaves = XPushMachine.from_xpath({"q": "//c"})
    fed_triples = XPushMachine.from_xpath({"q": "//c"})
    for machine in (fed_leaves, fed_triples):
        machine.filter_stream("<r><c>1</c></r>")
    with pytest.raises(MixedContentError):
        fed_leaves.filter_stream(text, backend=backend)
    with pytest.raises(MixedContentError):
        fed_triples.process_events(parse_events(text))
    # Up to and including the refused event, counted as triples.
    consumed = {"<r><c>1</c>tail</r>": 6, "<r>x<c>1</c></r>": 4}[text]
    assert fed_leaves.stats.events == fed_triples.stats.events == 7 + consumed
    fed_leaves.filter_stream("<r/>")  # the next document starts clean
    assert fed_leaves.stats.events == 7 + consumed + 4
    assert fed_leaves.stats.documents == 2


def test_clock_marks_what_a_probe_returns_not_the_table_it_probes():
    machine = XPushMachine.from_xpath({"q": "//a[b = 1]"}, XPushOptions(top_down=True))
    machine.filter_stream("<a><b>1</b></a>")
    store = machine.store
    for state in store.bottom_states() + store.top_states():
        state.ref = False
    machine.filter_stream("<a><b>1</b></a>")
    pushed = machine.qt0.push_table["a"]
    assert pushed.ref  # the hit's target is marked …
    assert not machine.qt0.ref  # … its owner, a sweep root, is not

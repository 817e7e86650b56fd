"""Tests for the stats counters and their invariants."""

from repro.xmlstream.dom import parse_document
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.stats import MachineStats


def test_snapshot_and_reset():
    stats = MachineStats()
    stats.events = 5
    stats.lookups = 10
    stats.hits = 4
    stats.evictions = 1
    snap = stats.snapshot()
    assert snap["events"] == 5
    assert snap["hit_ratio"] == 0.4
    assert snap["evictions"] == 1
    stats.reset()
    assert stats.events == 0
    assert stats.hit_ratio == 0.0


def test_hits_never_exceed_lookups_and_computations_balance():
    machine = XPushMachine.from_xpath(
        {"q": "/a[b = 1 and c = 2]"}, options=XPushOptions(precompute_values=False)
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

"""Unit tests for the lazy XPush machine's behaviour."""

import pytest

from repro.errors import MixedContentError, WorkloadError
from repro.xmlstream.dom import parse_document
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions


def machine_for(sources, **kwargs):
    return XPushMachine.from_xpath(sources, **kwargs)


def run(machine, xml):
    return machine.filter_document(parse_document(xml))


def test_single_filter_basics():
    machine = machine_for({"q": "/a[b = 1]"})
    assert run(machine, "<a><b>1</b></a>") == {"q"}
    assert run(machine, "<a><b>2</b></a>") == frozenset()
    assert run(machine, "<x><b>1</b></x>") == frozenset()


def test_attribute_plus_text_document():
    """The Sec. 3.2 promise: <a c="2"> 1 </a> is processed (our t_value
    merges instead of overwriting — DESIGN.md deviation #2)."""
    machine = machine_for({"q": "/a[@c = 2 and text() = 1]"})
    assert run(machine, '<a c="2"> 1 </a>') == {"q"}
    assert run(machine, '<a c="3"> 1 </a>') == frozenset()
    assert run(machine, '<a c="2"> 5 </a>') == frozenset()


def test_mixed_content_rejected():
    machine = machine_for({"q": "/a[b = 1]"})
    with pytest.raises(MixedContentError):
        run(machine, "<a> 1 <b>2</b> </a>")


def test_stream_of_documents():
    machine = machine_for({"q": "//b[text() = 1]"})
    results = machine.filter_stream("<a><b>1</b></a><a><b>2</b></a><b>1</b>")
    assert results == [frozenset({"q"}), frozenset(), frozenset({"q"})]


def test_results_accumulate_and_clear():
    machine = machine_for({"q": "/a"})
    machine.filter_stream("<a/><b/>")
    assert len(machine.results()) == 2
    machine.clear_results()
    assert machine.results() == []


def test_state_reuse_across_documents():
    machine = machine_for({"q": "/a[b = 1 and c = 2]"})
    xml = "<a><b>1</b><c>2</c></a>"
    run(machine, xml)
    states_after_first = machine.state_count
    lookups_first = machine.stats.lookups
    hits_first = machine.stats.hits
    run(machine, xml)
    # Second identical document creates no states and hits every table.
    assert machine.state_count == states_after_first
    assert machine.stats.hits - hits_first == machine.stats.lookups - lookups_first


def test_deterministic_state_counts():
    a = machine_for({"q": "/a[b = 1 and c = 2]"})
    b = machine_for({"q": "/a[b = 1 and c = 2]"})
    xml = "<a><c>2</c><b>1</b></a>"
    run(a, xml)
    run(b, xml)
    assert a.state_count == b.state_count
    assert a.average_state_size == b.average_state_size


def test_not_filter_universal_on_stream():
    machine = machine_for({"q": "/a[not(b = 1)]"})
    assert run(machine, "<a><b>2</b></a>") == {"q"}
    assert run(machine, "<a><b>2</b><b>1</b></a>") == frozenset()
    assert run(machine, "<a/>") == {"q"}
    assert run(machine, "<b/>") == frozenset()  # wrong root entirely


def test_deep_recursion_with_descendants():
    machine = machine_for({"q": "//x[y = 1]"})
    xml = "<r>" + "<x>" * 5 + "<y>1</y>" + "</x>" * 5 + "</r>"
    assert run(machine, xml) == {"q"}


def test_multiple_filters_share_predicates():
    machine = machine_for(
        {
            "p1": "//a[b/text()=1 and .//a[@c>2]]",
            "p2": "//a[@c>2 and b/text()=1]",
            "p3": "//a[b/text()=1]",
        }
    )
    got = run(machine, '<a><b>1</b><a c="3"><b>1</b></a></a>')
    assert got == {"p1", "p2", "p3"}


def test_order_requires_dtd():
    with pytest.raises(WorkloadError):
        machine_for({"q": "/a"}, options=XPushOptions(order=True))


def test_early_requires_top_down():
    with pytest.raises(ValueError):
        XPushOptions(early=True)


def test_reset_tables():
    machine = machine_for(
        {"q": "/a[b = 1]"}, options=XPushOptions(precompute_values=False)
    )
    run(machine, "<a><b>1</b></a>")
    assert machine.state_count > 1
    machine.reset_tables()
    assert machine.state_count == 1  # just the empty state
    # Still correct after the flush.
    assert run(machine, "<a><b>1</b></a>") == {"q"}


def test_reset_tables_reseeds_precomputed_values():
    machine = machine_for(
        {"q": "/a[b = 1]"}, options=XPushOptions(precompute_values=True)
    )
    seeded = machine.state_count
    machine.reset_tables()
    assert machine.state_count == seeded  # t_value states re-seeded
    assert run(machine, "<a><b>1</b></a>") == {"q"}


def test_memory_bound_sweeps_at_document_boundaries():
    # Many distinct constants force many distinct t_value/union states.
    sources = {f"q{i}": f"//a[b = {i}]" for i in range(20)}
    machine = machine_for(
        sources, options=XPushOptions(precompute_values=False, max_memory_bytes=1)
    )
    for i in range(20):
        j = (i + 7) % 20
        xml = f"<r><a><b>{i}</b><b>{j}</b></a></r>"
        # Never mid-document: both values' states survive to the answer …
        assert run(machine, xml) == {f"q{i}", f"q{j}"}, i
        # … and the bound is enforced at every document boundary.
        assert machine.state_count == 2  # the empty state and the last register
    assert machine.stats.gc_states > 20
    # A capped machine still answers exactly like an uncapped one.
    uncapped = machine_for(sources)
    for i in range(20):
        xml = f"<r><a><b>{i}</b></a></r>"
        assert run(machine, xml) == run(uncapped, xml)


def test_empty_document_stream():
    machine = machine_for({"q": "/a"})
    assert machine.filter_stream("") == []


def test_filters_on_attributes_only():
    machine = machine_for({"q": "//@id"})
    assert run(machine, '<x id="1"/>') == {"q"}
    assert run(machine, "<x/>") == frozenset()
    assert run(machine, '<x><y id="z"/></x>') == {"q"}


def test_describe_smoke():
    machine = machine_for({"q": "/a"})
    assert "XPushMachine" in machine.describe()


def test_process_events_returns_per_document(running_filters, running_document):
    from repro.xmlstream.events import events_of_document

    machine = XPushMachine.from_filters(running_filters)
    events = events_of_document(running_document) * 2
    results = machine.process_events(events)
    assert len(results) == 2
    assert results[0] == results[1] == {"o1", "o2"}


def test_unbalanced_event_streams_rejected():
    from repro.errors import EventStreamError
    from repro.xmlstream.events import (
        EndDocument,
        EndElement,
        StartDocument,
        StartElement,
    )

    machine = machine_for({"q": "//a"})
    with pytest.raises(EventStreamError):
        machine.process_events([StartDocument(), EndElement("a")])
    with pytest.raises(EventStreamError):
        machine.process_events(
            [StartDocument(), StartElement("a"), EndDocument()]
        )
    # Still usable afterwards.
    assert machine.filter_stream("<a/>") == [frozenset({"q"})]


def test_on_result_callback():
    machine = machine_for({"q": "//a"})
    seen = []
    machine.on_result = lambda index, oids: seen.append((index, sorted(oids)))
    machine.filter_stream("<a/><b/><a/>")
    assert seen == [(0, ["q"]), (1, []), (2, ["q"])]


def test_clone_is_independent_but_equivalent():
    machine = machine_for({"q": "/a[b = 1]"})
    run(machine, "<a><b>1</b></a>")
    twin = machine.clone()
    assert twin.workload is machine.workload  # shared immutable automata
    assert twin.state_count < machine.state_count or twin.state_count >= 1
    assert run(twin, "<a><b>1</b></a>") == {"q"}
    assert twin.results() == [frozenset({"q"})]
    assert len(machine.results()) == 1  # the clone's runs don't leak over


def test_value_precompute_on_basic_machine():
    machine = machine_for(
        {"q": "/a[b = 1]"}, options=XPushOptions(precompute_values=True)
    )
    # The t_value states already exist: a fresh value lookup is a hit.
    lookups = machine.stats.lookups
    hits = machine.stats.hits
    run(machine, "<a><b>1</b></a>")
    assert machine.stats.hits > hits

"""Tests for the execution tracer against the paper's Fig. 3 trace."""

from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.trace import render_trace, trace_document


def test_trace_matches_fig3_shape(running_filters, running_document):
    machine = XPushMachine.from_filters(running_filters)
    accepted, rows = trace_document(machine, running_document)
    assert accepted == {"o1", "o2"}

    by_event = {row.event: row for row in rows}
    # After the first text(1): two matched terminals, stack holds two
    # empty frames (paper: current q1, stack (…, ∅, ∅)).
    first_text = next(row for row in rows if row.event == "text(1)")
    assert len(first_text.state_sids) == 2
    assert first_text.stack_sids == ((), ())
    # After the final endElement(a): the paper's q15 with both initial
    # states — the row accepts both filters.
    final_close = [row for row in rows if row.event == "endElement(a)"][-1]
    assert len(final_close.state_sids) == 3
    assert final_close.accepts == ("o1", "o2")
    # Stack depth returns to zero at the end.
    assert rows[-1].stack_sids == ()


def test_trace_records_every_event(running_filters, running_document):
    machine = XPushMachine.from_filters(running_filters)
    _, rows = trace_document(machine, running_document)
    # 2 document events + 4 elements (a,b,a,b) × 2 + @c × 2 + 3 texts.
    assert len(rows) == 2 + 8 + 2 + 3
    assert rows[0].event == "startDocument()"
    assert rows[-1].event == "endDocument()"


def test_trace_shows_enabled_counts_with_top_down(running_filters, running_document):
    machine = XPushMachine.from_filters(
        running_filters, options=XPushOptions(top_down=True)
    )
    _, rows = trace_document(machine, running_document)
    enabled = [row.enabled for row in rows if row.enabled is not None]
    assert enabled and all(isinstance(n, int) for n in enabled)
    # Without pruning the column is None.
    plain = XPushMachine.from_filters(running_filters)
    _, rows = trace_document(plain, running_document)
    assert all(row.enabled is None for row in rows)


def test_render_trace(running_filters, running_document):
    machine = XPushMachine.from_filters(running_filters)
    _, rows = trace_document(machine, running_document)
    text = render_trace(rows)
    assert "startElement(a)" in text
    assert "accepts=o1,o2" in text
    assert text.count("\n") == len(rows) - 1


def test_trace_is_a_normal_run(running_filters, running_document):
    """Tracing must not change behaviour or state accounting."""
    traced = XPushMachine.from_filters(running_filters)
    plain = XPushMachine.from_filters(running_filters)
    accepted, _ = trace_document(traced, running_document)
    assert accepted == plain.filter_document(running_document)
    assert traced.state_count == plain.state_count

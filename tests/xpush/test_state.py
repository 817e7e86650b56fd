"""Tests for state interning and the (mask-keyed) state store."""

import pytest

from repro.afa.build import build_workload_automata
from repro.xpath.parser import parse_workload
from repro.xpush.kernels import mask_of
from repro.xpush.state import StateStore


@pytest.fixture()
def masks():
    return build_workload_automata(
        parse_workload({"x": "//a[b = 1]", "y": "/c[d and e]"})
    ).masks


def test_interning_identity(masks):
    s = StateStore(masks)
    a = s.intern_bottom(mask_of([3, 1, 2]))
    b = s.intern_bottom(mask_of((1, 2, 3)))
    c = s.intern_bottom(0b1110)
    assert a is b is c
    assert a.mask == 0b1110
    assert a.sids == (1, 2, 3)  # the paper's sorted array, as a lazy view
    assert set(a.sids) == {1, 2, 3}
    assert s.bottom_count == 2  # the empty state plus {1,2,3}


def test_empty_state(masks):
    s = StateStore(masks)
    assert s.empty.sids == ()
    assert len(s.empty) == 0
    assert s.intern_bottom(0) is s.empty


def test_average_size_accounting(masks):
    s = StateStore(masks)
    s.intern_bottom(mask_of([1]))
    s.intern_bottom(mask_of([1, 2, 3]))
    # states: {}, {1}, {1,2,3} → sizes 0,1,3
    assert s.bottom_count == 3
    assert s.average_bottom_size == pytest.approx(4 / 3)
    # Re-interning changes nothing.
    s.intern_bottom(mask_of([1, 2, 3]))
    assert s.average_bottom_size == pytest.approx(4 / 3)
    assert (s.table_entries, s.resident_bytes) == s.recount()


def test_accepts_computed_lazily_and_once():
    class SpyMasks:
        def __init__(self):
            self.calls = []

        def accepted_oids(self, mask):
            self.calls.append(mask)
            return frozenset({"x"}) if mask else frozenset()

    spy = SpyMasks()
    s = StateStore(spy)
    a = s.intern_bottom(0b10)
    s.intern_bottom(0b10)
    assert spy.calls == []  # intermediate states never pay for t_accept
    assert a.accepts == {"x"}
    assert a.accepts == {"x"}
    assert spy.calls == [0b10]


def test_top_state_interning(masks):
    s = StateStore(masks)
    unpruned = s.intern_top(None)
    assert unpruned.mask is None and unpruned.sids is None
    assert unpruned.size == 0
    assert s.intern_top(None) is unpruned
    pruned = s.intern_top(0b110)
    assert pruned.sids == {1, 2}
    assert pruned.size == 2
    assert s.intern_top(mask_of({1, 2})) is pruned
    assert len(s.top_states()) == 2


def test_reset(masks):
    s = StateStore(masks)
    s.intern_bottom(0b110)
    s.intern_top(0b10)
    s.reset()
    assert s.bottom_count == 1  # fresh empty state
    assert s.top_states() == []
    assert s.empty.sids == ()
    assert (s.table_entries, s.resident_bytes) == s.recount()

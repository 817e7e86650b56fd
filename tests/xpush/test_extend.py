"""Append-only growth: ``WorkloadAutomata.extend`` /
``CompiledMasks.extend`` / ``XPushMachine.extend`` and the predecessor
store that carries a grown machine's memo across (Sec. 8)."""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import replace

import pytest

from repro.afa.automaton import CompiledMasks, WorkloadAutomata
from repro.afa.build import build_workload_automata
from repro.errors import EventStreamError, WorkloadError
from repro.xmlstream.dom import parse_document
from repro.xmlstream.writer import document_to_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush import machine as machine_module
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

from tests import oracle
from tests.conftest import make_workload

TD = XPushOptions(top_down=True, precompute_values=False)
EARLY = XPushOptions(top_down=True, early=True, precompute_values=False)


def doc(xml):
    return parse_document(xml)


# ----------------------------------------------------------------------
# The workload and its compiled tables
# ----------------------------------------------------------------------


def test_growing_in_chunks_builds_the_tables_of_one_shot(protein):
    filters = make_workload(protein, 60, seed=5)
    whole = build_workload_automata(filters)
    grown = WorkloadAutomata()
    for start, stop in ((0, 1), (1, 2), (2, 30), (30, 31), (31, 60)):
        grown.extend(filters[start:stop])
    for slot in CompiledMasks.__slots__:
        assert getattr(grown.masks, slot) == getattr(whole.masks, slot), slot
    for name in ("terminals", "initial_sids", "_live"):
        assert getattr(grown, name) == getattr(whole, name), name
    rows = [(oracle.reverse_edges(w), oracle.eps_parents(w)) for w in (grown, whole)]
    for ours, theirs in zip(grown.states, whole.states):
        sid = ours.sid
        assert (ours.rank, rows[0][0][sid], rows[0][1][sid], ours.owner) == (
            theirs.rank,
            rows[1][0][sid],
            rows[1][1][sid],
            theirs.owner,
        )


def test_retired_afa_keeps_its_transitions_and_loses_its_name():
    workload = build_workload_automata(
        [parse_xpath("//a[b = 1]", "x"), parse_xpath("//a", "y")]
    )
    old_block, old_initial = workload.masks.all_mask, workload.masks.initial_mask
    old_x = workload.afas[0]
    assert workload.masks.accepted_oids(old_block) == {"x", "y"}
    workload.extend([parse_xpath("//c", "x")], retire=["x"])
    assert old_x.retired
    assert (workload.retired_filters, workload.retired_states) == (1, len(old_x.state_sids))
    # Same bits as before, one name fewer; the new "x" is another AFA.
    assert workload.masks.initial_mask & old_block == old_initial
    assert workload.masks.accepted_oids(old_block) == {"y"}
    assert workload.accepted_oids(range(workload.state_count)) == {"x", "y"}
    assert workload.masks.accepted_oids(workload.masks.all_mask) == {"x", "y"}


def test_extend_refuses_duplicates_and_leaves_no_half_built_afa():
    workload = build_workload_automata([parse_xpath("//a", "x")])
    states = workload.state_count
    with pytest.raises(WorkloadError):
        workload.extend([parse_xpath("//b", "x")])
    with pytest.raises(WorkloadError):
        workload.extend([parse_xpath("//b", "y"), parse_xpath("//c", "y")])
    with pytest.raises(WorkloadError):
        workload.extend(retire=["ghost"])
    with pytest.raises(WorkloadError):  # not(⊤) is refused mid-compilation
        workload.extend([parse_xpath("//b", "y"), parse_xpath("//a[not(.)]", "z")])
    assert (workload.state_count, len(workload.afas)) == (states, 1)
    workload.extend([parse_xpath("//b", "y")])
    assert workload.masks.accepted_oids(workload.masks.all_mask) == {"x", "y"}


def test_growth_drops_the_per_workload_caches(protein):
    filters = make_workload(protein, 12, seed=3)
    workload = build_workload_automata(filters[:8])
    handlers = workload.compiled_handlers()
    assert workload.compiled_handlers() is handlers
    workload.extend(filters[8:])
    assert workload.compiled_handlers() is not handlers


# ----------------------------------------------------------------------
# The machine: differential against a rebuild, in every variant
# ----------------------------------------------------------------------

VARIANTS = [
    XPushOptions(),
    TD,
    EARLY,
    XPushOptions(order=True),
]


@pytest.mark.parametrize("runtime", ["bitmask", "sets", "codegen"])
@pytest.mark.parametrize("options", VARIANTS, ids=lambda o: o.describe())
def test_extended_machine_answers_like_a_rebuilt_one(options, runtime, protein, protein_docs):
    options = replace(oracle.options_for(options, runtime), retain_results=False)
    filters = make_workload(protein, 50, seed=11)
    with oracle.under(runtime):
        machine = XPushMachine(build_workload_automata(filters[:30]), options, dtd=protein.dtd)
        for document in protein_docs[:6]:
            machine.filter_document(document)
        # Retire, grow, and redefine an oid in one step.
        redefined = parse_xpath(filters[45].source, filters[12].oid)
        leaving = [f.oid for f in filters[:5]] + [redefined.oid]
        machine.extend(filters[30:40] + [redefined], retire=leaving)
    live = [f for f in filters[5:40] if f.oid != redefined.oid] + [redefined]
    rebuilt = XPushMachine(build_workload_automata(live), options, dtd=protein.dtd)
    for document in protein_docs[:10]:
        emitted: list[str] = []
        machine.on_match = lambda oid, _seq, _event: emitted.append(oid)
        answer = machine.filter_document(document)
        assert answer == rebuilt.filter_document(document) == matching_oids(live, document)
        assert sorted(emitted) == sorted(answer)
    assert machine.stats.carried > 0
    store = machine.store
    assert store.recount() == (store.table_entries, store.resident_bytes)


def test_extend_is_refused_inside_a_document():
    machine = XPushMachine.from_xpath({"x": "//a"})
    machine.start_document()
    machine.start_element("a")
    with pytest.raises(EventStreamError):
        machine.extend([parse_xpath("//b", "y")])


# ----------------------------------------------------------------------
# The carry
# ----------------------------------------------------------------------


def _warmed_then_extended(options, protein, protein_docs, seen):
    filters = make_workload(protein, 40, seed=23)
    machine = XPushMachine(build_workload_automata(filters[:30]), options, dtd=protein.dtd)
    for document in protein_docs[:seen]:
        machine.filter_document(document)
    machine.extend(filters[30:])
    return machine


@pytest.mark.parametrize("options", [XPushOptions(), TD, EARLY], ids=lambda o: o.describe())
def test_kernel_never_sweeps_a_block_the_predecessor_memoised(options, protein, protein_docs):
    """On documents the grown machine's own store has not seen: a pop
    miss the predecessor has the memo for reaches the kernel stripped
    of the old block, any other goes whole — never a mix — and
    ``carried`` counts exactly the former."""
    machine = _warmed_then_extended(options, protein, protein_docs, seen=8)
    predecessor, covered = machine._predecessor, machine._covered
    swept: list[tuple[int, ...]] = []
    kernel = machine.kernel
    if options.early:
        plain = kernel.pop_early
        kernel.pop_early = lambda *args: swept.append((args[0], args[2], args[3])) or plain(*args)
    else:
        plain = kernel.pop
        kernel.pop = lambda *args: swept.append((args[0],)) or plain(*args)
    compute_pop = machine._compute_pop
    expected_carries = 0

    def checked(qb, label, qt, parent_qt, pop_key):
        nonlocal expected_carries
        old = predecessor.find_bottom(qb.mask & covered)
        key = label
        if options.early and old is not None:
            tops = [predecessor.find_top(top.mask & covered) for top in (qt, parent_qt)]
            key = None if None in tops else (label, tops[0].uid, tops[1].uid)
        memoised = old is not None and key in old.pop_table
        expected_carries += memoised
        entry = compute_pop(qb, label, qt, parent_qt, pop_key)
        masks = swept.pop()
        if memoised:
            assert not any(mask & covered for mask in masks)
        else:
            assert masks[0] == qb.mask
        return entry

    machine._compute_pop = checked
    carried_pushes = machine.stats.carried  # none yet
    for document in protein_docs[:14]:  # 8 the predecessor saw, 6 it did not
        machine.filter_document(document)
    assert carried_pushes == 0 and expected_carries > 0
    pushes = machine.stats.carried - expected_carries
    assert 0 <= pushes <= machine.stats.push_computed
    # Everything the predecessor saw is answered from it (without early
    # notification the memo key is the label alone).
    if not options.early:
        assert expected_carries >= machine.stats.pop_computed // 2


def test_unmasked_remainder_sweep_is_caught_by_the_wall(monkeypatch):
    """Mutation: without ``& rest`` the spurious NOT / ⊤-edge states of
    the covered block leak into the carried answer, and the seeded
    layered schedule must go red."""
    from tests.property.test_layered_stateful import run_seeded_schedule

    source = textwrap.dedent(inspect.getsource(XPushMachine._compute_pop))
    assert "lifted = lifted & rest | carried[0]" in source
    namespace: dict = {}
    exec(  # noqa: S102 - the mutant of our own method
        source.replace("lifted & rest | carried[0]", "lifted | carried[0]"),
        vars(machine_module),
        namespace,
    )
    monkeypatch.setattr(XPushMachine, "_compute_pop", namespace["_compute_pop"])
    with pytest.raises(AssertionError):
        run_seeded_schedule()


def test_memoised_notifications_never_name_a_retired_definition():
    """Early notification memoises oids inside pop entries.  Retire
    ``x`` and define it anew: the predecessor's entries still say
    ``x`` for the old definition, and must not be believed."""
    machine = XPushMachine.from_xpath({"x": "/r/a[b]", "y": "/r/a"}, replace(EARLY, retain_results=False))
    hit = doc("<r><a><b>1</b></a></r>")
    assert machine.filter_document(hit) == {"x", "y"}
    machine.extend([parse_xpath("/r/c", "x")], retire=["x"])
    emitted: list[str] = []
    machine.on_match = lambda oid, _seq, _event: emitted.append(oid)
    assert machine.filter_document(hit) == {"y"}
    assert emitted == ["y"] and machine.stats.carried > 0
    assert machine.filter_document(doc("<r><c/></r>")) == {"x"}


def test_growing_by_nothing_keeps_the_warmed_store(protein, protein_docs):
    """``extend()`` with no filter and no retirement — a ``compact()``
    on an untouched layer — replaces nothing: the store stays live,
    ``t_value`` / ``t_badd`` memos included."""
    machine = XPushMachine(
        build_workload_automata(make_workload(protein, 30, seed=23)),
        replace(TD, retain_results=False),
    )
    for document in protein_docs[:8]:
        machine.filter_document(document)
    store, held = machine.store, machine.resident_bytes
    machine.extend()
    machine.extend([], retire=iter(()))
    assert machine.store is store and machine._predecessor is None
    assert machine.resident_bytes == held
    stats = machine.stats
    misses = stats.lookups - stats.hits
    machine.filter_document(protein_docs[0])
    assert stats.lookups - stats.hits == misses  # still all hits


def test_predecessor_is_counted_and_is_the_first_thing_dropped(protein, protein_docs):
    texts = [document_to_xml(d) for d in protein_docs[:12]]
    filters = make_workload(protein, 40, seed=23)
    free = XPushMachine(build_workload_automata(filters[:30]), replace(TD, retain_results=False))
    for text in texts:
        free.filter_stream(text)
    held = free.store.resident_bytes
    free.extend(filters[30:])
    kept = free._predecessor.resident_bytes
    assert 0 < kept <= held  # demoted: t_badd / t_value memos are not carried
    assert free._predecessor.recount() == (free._predecessor.table_entries, kept)
    assert free.resident_bytes == free.store.resident_bytes + kept
    assert free.table_entries == free.store.table_entries + free._predecessor.table_entries

    # Bounded so that the live store fits and the two together do not.
    bound = held + kept // 2
    bounded = XPushMachine(
        build_workload_automata(filters[:30]),
        replace(TD, retain_results=False, max_memory_bytes=bound),
    )
    for text in texts:
        bounded.filter_stream(text)
    bounded.extend(filters[30:])
    assert bounded._predecessor is not None
    answers = [bounded.filter_stream(text) for text in texts]
    assert bounded._predecessor is None  # dropped on the way ...
    assert bounded.stats.evictions == 0  # ... and nothing else
    assert bounded.stats.resident_bytes == bounded.store.resident_bytes <= bound
    assert answers == [free.filter_stream(text) for text in texts]


def test_close_clears_the_books_and_breaks_the_cycles(protein, protein_docs):
    import gc

    from repro.xpush.state import XPushState

    def live_states():
        return sum(isinstance(obj, XPushState) for obj in gc.get_objects())

    gc.collect()
    gc.disable()  # what is freed below is freed by reference counting
    try:
        before = live_states()
        machine = _warmed_then_extended(TD, protein, protein_docs, seen=6)
        machine.filter_document(protein_docs[0])
        store, predecessor = machine.store, machine._predecessor
        assert live_states() > before + store.bottom_count
        machine.close()
        for closed in (store, predecessor):
            assert closed.recount() == (0, 0)
            assert (closed.table_entries, closed.resident_bytes) == (0, 0)
        del machine, store, predecessor, closed
        assert live_states() == before
    finally:
        gc.enable()

"""Memory-manager tests (Sec. 6) and leak-fix regressions.

The contract under test: bounding the machine's memory changes *when*
tables are recomputed, never *what* the machine answers.  The
differential wall drives bounded machines (both runtimes, every
optimisation combination) against the unbounded machine's answers; the
soak test checks the resident-bytes gauge actually respects the
watermark over a long stream; and each of the
unbounded-stream leak fixes (results retention, mid-stream result
collection, warm-up vs. management, stats reset) keeps a dedicated
regression.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import replace

import pytest

from repro.afa.build import build_workload_automata
from repro.bench.workloads import locality_stream, standard_stream, standard_workload
from repro.xmlstream.writer import document_to_xml
from repro.xpath.parser import parse_workload
from repro.xpush.machine import LOW_WATERMARK_RATIO, XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.state import BOTTOM_STATE_BYTES, ENTRY_BYTES, TOP_STATE_BYTES
from repro.xpush.stats import MachineStats

from tests import oracle
from tests.conftest import make_workload
from tests.xpush.test_differential import ALL_OPTION_COMBOS

TD = XPushOptions(top_down=True, precompute_values=False)


@pytest.fixture(scope="module")
def memory_workload(protein):
    return make_workload(protein, 30, seed=17)


@pytest.fixture(scope="module")
def memory_stream(protein_docs):
    return "".join(document_to_xml(doc) for doc in protein_docs)


def _tight_bound(workload, options, dtd, stream) -> int:
    """A bound the unbounded machine crosses repeatedly: 40% of its
    converged residency (floored so registers + seeds always fit)."""
    machine = XPushMachine(workload, options, dtd=dtd)
    machine.filter_stream(stream)
    return max(32 * 1024, int(machine.store.resident_bytes * 0.4))


# ----------------------------------------------------------------------
# Differential wall: eviction is invisible to correctness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("options", ALL_OPTION_COMBOS, ids=lambda o: o.describe())
def test_bounded_answers_equal_unbounded_all_variants(
    options, memory_workload, memory_stream, protein
):
    workload = build_workload_automata(memory_workload)
    reference = XPushMachine(workload, options, dtd=protein.dtd)
    expected = reference.filter_stream(memory_stream)
    bound = max(32 * 1024, int(reference.store.resident_bytes * 0.4))
    machine = XPushMachine(workload, replace(options, max_memory_bytes=bound), dtd=protein.dtd)
    # Two passes: the second runs against tables the first pass's
    # sweeps already evicted from, the regime the manager lives in.
    assert machine.filter_stream(memory_stream) == expected
    assert machine.filter_stream(memory_stream) == expected


@pytest.mark.parametrize("runtime", ["bitmask", "sets"])
def test_bounded_answers_equal_unbounded_both_runtimes(
    runtime, memory_workload, memory_stream, protein
):
    options = oracle.options_for(TD, runtime)
    workload = build_workload_automata(memory_workload)
    with oracle.under(runtime):
        expected = XPushMachine(workload, options, dtd=protein.dtd).filter_stream(memory_stream)
        bound = _tight_bound(workload, options, protein.dtd, memory_stream)
        machine = XPushMachine(workload, replace(options, max_memory_bytes=bound), dtd=protein.dtd)
    assert machine.filter_stream(memory_stream) == expected
    assert machine.filter_stream(memory_stream) == expected


def test_bounded_answers_from_persisted_workload(memory_workload, memory_stream):
    """A workload rebuilt from its persisted form — its XPath sources —
    answers identically under a memory bound (manager state is
    per-machine, not persisted)."""
    workload = build_workload_automata(memory_workload)
    expected = XPushMachine(workload, TD).filter_stream(memory_stream)
    reloaded = build_workload_automata(
        parse_workload({afa.oid: afa.source for afa in workload.afas})
    )
    machine = XPushMachine(reloaded, replace(TD, max_memory_bytes=64 * 1024))
    assert machine.filter_stream(memory_stream) == expected


# ----------------------------------------------------------------------
# Soak: the watermark actually holds
# ----------------------------------------------------------------------


def test_state_bytes_charge_the_mask_a_state_holds():
    """A state holds a dense mask as wide as the workload, whatever its
    size: the masks' share of ``resident_bytes`` is their real size."""
    machine = XPushMachine(build_workload_automata(standard_workload(2000)[0]))
    machine.filter_stream(standard_stream(100_000))
    store, bottoms, tops = machine.store, machine.store.bottom_states(), machine.store.top_states()
    real = sum(sys.getsizeof(s.mask) for s in bottoms + tops if s.mask is not None)
    bases = len(bottoms) * BOTTOM_STATE_BYTES + len(tops) * TOP_STATE_BYTES
    charged = store.resident_bytes - store.table_entries * ENTRY_BYTES - bases
    assert abs(charged - real) <= 0.1 * real, (charged, real)


def test_soak_resident_bytes_stay_under_bound():
    stream = locality_stream(120_000)
    filters, _dataset = standard_workload(150, mean_predicates=1.15)
    workload = build_workload_automata(filters)

    unbounded = XPushMachine(workload, TD)
    expected = unbounded.filter_stream(stream)
    assert len(expected) > 20  # the soak needs a long document sequence
    bound = max(32 * 1024, int(unbounded.store.resident_bytes * 0.35))

    machine = XPushMachine(workload, replace(TD, max_memory_bytes=bound))
    samples: list[int] = []
    machine.on_result = lambda index, oids: samples.append(
        machine.stats.resident_bytes
    )
    assert machine.filter_stream(stream) == expected
    assert machine.filter_stream(stream) == expected  # steady state
    # Every post-management sample respects the hard bound.
    assert max(samples) <= bound
    assert machine.stats.evictions > 0
    assert machine.stats.gc_states > 0
    # The incremental books must equal a from-scratch recount.
    entries, resident = machine.store.recount()
    assert machine.store.table_entries == entries
    assert machine.store.resident_bytes == resident
    assert machine.stats.resident_bytes == resident


@pytest.mark.parametrize(
    "options",
    [replace(TD, early=True), XPushOptions(top_down=True), XPushOptions()],
    ids=lambda o: o.describe(),
)
def test_a_sweep_after_every_document_changes_no_emission(
    options, memory_workload, memory_stream, protein
):
    """CLOCK marks only what probes return: at a bound every document
    boundary sweeps under, answers and every ``on_match`` emission are
    the unbounded machine's, and the books balance."""
    workload = build_workload_automata(memory_workload)

    def run(machine):
        emitted = []
        machine.on_match = lambda oid, doc, event: emitted.append((doc, event, oid))
        return machine.filter_stream(memory_stream), sorted(emitted)

    expected = run(XPushMachine(workload, options, dtd=protein.dtd))
    machine = XPushMachine(workload, replace(options, max_memory_bytes=1), dtd=protein.dtd)
    swept = []
    machine.on_result = lambda index, oids: swept.append(machine.stats.gc_states)
    assert run(machine) == expected
    # on_result runs before its document's sweep: each sample is one
    # sweep later than the last, and every sweep collects states.
    assert all(later > earlier for earlier, later in zip(swept, swept[1:]))
    entries, resident = machine.store.recount()
    assert (machine.store.table_entries, machine.store.resident_bytes) == (entries, resident)


def test_clock_survives_bound_below_working_set(memory_workload, memory_stream):
    """A bound smaller than the working set cannot be honoured by the
    plain epoch alone — the forced epoch must still terminate, keep the
    books balanced and the answers right."""
    workload = build_workload_automata(memory_workload)
    expected = XPushMachine(workload, TD).filter_stream(memory_stream)
    machine = XPushMachine(workload, replace(TD, max_memory_bytes=40 * 1024))
    assert machine.filter_stream(memory_stream) == expected
    entries, resident = machine.store.recount()
    assert (machine.store.table_entries, machine.store.resident_bytes) == (
        entries,
        resident,
    )


@pytest.mark.parametrize("bound_kb", [32, 40])
def test_bound_below_the_working_set_holds_at_every_boundary(bound_kb):
    """The forced epoch deports states, not just their tables: after
    every document's management step the gauge is at or under
    ``max_memory_bytes``, even where the plain epoch cannot get there."""
    stream = locality_stream(200_000)
    workload = build_workload_automata(standard_workload(300)[0])
    expected = XPushMachine(workload, TD).filter_stream(stream)
    bound = bound_kb * 1024
    machine = XPushMachine(workload, replace(TD, max_memory_bytes=bound))
    samples: list[int] = []
    machine.on_result = lambda index, oids: samples.append(machine.stats.resident_bytes)
    assert machine.filter_stream(stream) == expected
    samples.append(machine.stats.resident_bytes)
    # Each on_result sees the previous boundary's post-management gauge.
    post = samples[1:]
    assert len(post) == len(expected) > 100
    assert max(post) <= bound
    assert machine.store.recount() == (machine.store.table_entries, machine.store.resident_bytes)


# ----------------------------------------------------------------------
# The sweep itself: second chance, root pinning, entry pruning
# ----------------------------------------------------------------------


def _warmed_machine() -> XPushMachine:
    machine = XPushMachine.from_xpath(
        {"q1": "//a[b/text()=1]", "q2": "//a[@c>2]"}, options=TD
    )
    for i in range(8):
        machine.filter_stream(f'<a c="{i + 3}"><b>1</b><d>{i}</d></a>')
    return machine


def test_sweep_epoch_deports_cold_and_spares_referenced():
    machine = _warmed_machine()
    store = machine.store
    bottoms = store.bottom_states()
    assert len(bottoms) > 2
    hot = next(s for s in bottoms if s is not store.empty and s.pop_table)
    for state in bottoms + store.top_states():
        state.ref = False
    hot.ref = True
    roots = [store.empty, machine.qt0]
    dropped, removed = store.sweep_epoch(roots, 0)
    assert removed > 0
    survivors = store.bottom_states()
    assert hot in survivors  # the referenced state earned its second chance
    assert store.empty in survivors and machine.qt0 in store.top_states()
    # Pass 2 opened the next epoch and pruned entries into the deported.
    removed_gone = {id(s) for s in bottoms} - {id(s) for s in survivors}
    for state in survivors:
        assert not state.ref
        for target, _notified in state.pop_table.values():
            assert id(target) not in removed_gone
        for target in state.add_table.values():
            assert id(target) not in removed_gone
    entries, resident = store.recount()
    assert (store.table_entries, store.resident_bytes) == (entries, resident)


def test_sweep_epoch_stops_at_the_low_watermark():
    machine = _warmed_machine()
    store = machine.store
    for state in store.bottom_states() + store.top_states():
        state.ref = False
    low = store.resident_bytes - 1  # one state's worth is enough
    _d, removed = store.sweep_epoch([store.empty, machine.qt0], low)
    # The cap makes it a second-chance policy, not a purge: only enough
    # cold states to reach the target are deported.
    assert 0 < removed < len(machine.store.bottom_states()) + removed


def _leaf_targets(store):
    return [
        target
        for top in store.top_states()
        for row in top.leaf_table.values()
        for target, _notified in row.values()
    ]


def test_leaf_entries_are_counted_evicted_and_collected():
    """Leaf memo entries are memo entries: in the books, pruned with
    their deported targets under a plain or a forced epoch, and dropped
    with their owner's tables."""
    machine = _warmed_machine()
    store = machine.store
    assert _leaf_targets(store)  # @c, <b> and <d> came as leaves
    assert store.recount() == (store.table_entries, store.resident_bytes)

    # A forced epoch ignores reference bits: everything but its roots,
    # the leaf owners, is deported, and no leaf entry is left naming a
    # deported state; the books stay balanced.
    owners = [top for top in store.top_states() if top.leaf_table]
    for state in store.bottom_states() + store.top_states():
        state.ref = True
    _d, removed = store.sweep_epoch([store.empty, machine.qt0, *owners], 0, force=True)
    assert removed > 0
    assert all(owner in store.top_states() for owner in owners)
    interned = {id(state) for state in store.bottom_states()}
    assert all(id(target) in interned for target in _leaf_targets(store))
    assert store.recount() == (store.table_entries, store.resident_bytes)
    machine.filter_stream('<a c="3"><b>1</b><d>0</d></a>')  # lifted targets again

    # Deported targets take their leaf entries with them; the owners,
    # referenced, survive.
    for state in store.bottom_states():
        state.ref = False
    for top in store.top_states():
        top.ref = True
    assert any(target is not store.empty for target in _leaf_targets(store))
    store.sweep_epoch([store.empty, machine.qt0], 0)
    assert _leaf_targets(store)
    assert all(target is store.empty for target in _leaf_targets(store))
    assert store.recount() == (store.table_entries, store.resident_bytes)

    # Evicting an owner's tables drops its leaf entries and says so.
    machine.filter_stream('<a c="3"><b>1</b><d>0</d></a>')
    owner = next(top for top in store.top_states() if top.leaf_table)
    entries = owner.leaf_entries + len(owner.push_table) + len(owner.value_table)
    assert store.evict_state_tables(owner) == entries
    assert not owner.leaf_table
    assert store.recount() == (store.table_entries, store.resident_bytes)


def test_precomputed_value_seeds_survive_eviction(protein, protein_docs):
    """Sec. 4 precomputed t_value states are part of the permanent
    working set: any the sweep takes must be re-seeded."""
    filters = make_workload(protein, 12, seed=29)
    stream = "".join(document_to_xml(doc) for doc in protein_docs[:12])
    workload = build_workload_automata(filters)
    basic = XPushOptions()  # bottom-up, precompute_values=True
    expected = XPushMachine(workload, basic).filter_stream(stream)
    machine = XPushMachine(workload, replace(basic, max_memory_bytes=48 * 1024))
    assert machine.filter_stream(stream) == expected
    assert machine.qt0.value_table  # seeds present after sweeps


# ----------------------------------------------------------------------
# Leak-fix regressions (the satellites)
# ----------------------------------------------------------------------


def test_retain_results_false_does_not_accumulate():
    machine = XPushMachine.from_xpath(
        {"q": "//a"}, options=replace(TD, retain_results=False)
    )
    answers = machine.filter_stream("<a/><b/><a/>")
    assert answers == [frozenset({"q"}), frozenset(), frozenset({"q"})]
    assert machine.results() == []  # nothing retained for the service loop
    retained = XPushMachine.from_xpath({"q": "//a"}, options=TD)
    retained.filter_stream("<a/><b/>")
    assert retained.results() == [frozenset({"q"}), frozenset()]


def test_filter_stream_answers_survive_midstream_clear():
    """The call's return value is collected locally: clearing (or never
    retaining) the shared results list mid-stream cannot corrupt it."""
    machine = XPushMachine.from_xpath({"q": "//a"}, options=TD)
    machine.on_result = lambda index, oids: machine.clear_results()
    assert machine.filter_stream("<a/><b/><a/>") == [
        frozenset({"q"}),
        frozenset(),
        frozenset({"q"}),
    ]


def test_filter_stream_answers_survive_a_flush_midstream():
    """A table flush between documents must not lose collected answers."""
    machine = XPushMachine.from_xpath({"q": "//a[b/text()=1]"}, options=TD)
    machine.on_result = lambda index, oids: machine.reset_tables()
    stream = "".join(f"<a><b>{i % 2}</b></a>" for i in range(6))
    answers = machine.filter_stream(stream)
    assert machine.state_count == 1  # flushed after the last document too
    assert answers == [frozenset({"q"}) if i % 2 else frozenset() for i in range(6)]


def test_warm_up_is_exempt_from_memory_management(protein):
    """Training states must never be evicted by the manager mid-training
    (the manager would discard exactly what training builds), and the
    manager's history must survive warm_up's trailing stats reset."""
    filters = make_workload(protein, 10, seed=3, prob_descendant=0.0)
    options = replace(TD, train=True, max_memory_bytes=1)
    machine = XPushMachine(
        build_workload_automata(filters), options, dtd=protein.dtd
    )
    # Training ran at construction with management suspended: the many
    # training states are still resident despite the 1-byte bound …
    trained = machine.state_count
    assert trained > 1
    assert machine.stats.gc_states == 0
    assert machine.stats.documents == 0  # … and counters reflect no real data
    # The first real document boundary applies the policy.
    machine.filter_stream("<protein-database><entry-count>1</entry-count></protein-database>")
    swept = machine.stats.gc_states
    assert swept > 0 and machine.state_count < trained
    assert machine.stats.documents == 1
    # A later warm_up preserves manager history across its reset.
    machine.warm_up(seed=1)
    assert machine.stats.gc_states == swept
    assert machine.stats.documents == 0
    assert machine.stats.resident_bytes == machine.store.resident_bytes


def test_stats_reset_covers_every_field():
    stats = MachineStats()
    for field in dataclasses.fields(stats):
        setattr(stats, field.name, 7)
    stats.reset()
    for field in dataclasses.fields(stats):
        assert getattr(stats, field.name) == field.default, field.name


def test_stats_snapshot_has_gauges():
    stats = MachineStats()
    stats.bytes_processed = 123
    stats.resident_bytes = 456
    stats.table_entries = 7
    stats.evictions = 2
    stats.gc_states = 1
    snap = stats.snapshot()
    assert snap["bytes_processed"] == 123
    assert snap["resident_bytes"] == 456
    assert snap["table_entries"] == 7
    assert snap["evictions"] == 2 and snap["gc_states"] == 1


def test_options_validate_memory_knobs():
    with pytest.raises(ValueError):
        XPushOptions(max_memory_bytes=0)
    options = XPushOptions(max_memory_bytes=1 << 20)
    assert options.max_memory_bytes == 1 << 20


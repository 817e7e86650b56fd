"""Differential wall for the machine runtimes against the oracle.

The frozenset oracle kernel (``tests/oracle.py``, id ``"sets"``) is the
spec; the compiled ``"bitmask"`` runtime and the workload-specialized
``"codegen"`` runtime must produce byte-identical answers — same oids
per document — for every optimisation combination, on generated
workloads over both datasets, on hypothesis-generated workloads and
documents, under memory-bounded eviction, after a persist round-trip,
through layered updates at every epoch, and through the sharded engine.
Any divergence is a bug in the compiled tables or the generated
handlers, never a judgement call.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.afa.build import build_workload_automata
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import VARIANTS, XPushOptions

from tests import oracle
from tests.conftest import make_workload
from tests.property.test_machine_properties import documents as gen_documents
from tests.property.test_machine_properties import workloads as gen_workloads
from tests.xpush.test_differential import ALL_OPTION_COMBOS

import hypothesis.strategies as st

#: The oracle first; every runtime is diffed against it.
RUNTIMES_UNDER_TEST = ("sets", "bitmask", "codegen")


def all_runtimes(options: XPushOptions) -> tuple[tuple[str, XPushOptions], ...]:
    return tuple((r, oracle.options_for(options, r)) for r in RUNTIMES_UNDER_TEST)


def machines(workload, options, dtd=None) -> dict[str, XPushMachine]:
    """``runtime → machine`` over *workload*, the oracle's built under its patch."""
    out = {}
    for runtime, opts in all_runtimes(options):
        with oracle.under(runtime):
            out[runtime] = XPushMachine(workload, opts, dtd=dtd)
    return out


def run_all(filters, options, docs, dtd=None) -> dict[str, list]:
    """``runtime → answers`` for the same workload and documents."""
    built = machines(build_workload_automata(filters), options, dtd)
    return {r: [m.filter_document(doc) for doc in docs] for r, m in built.items()}


def assert_all_agree(answers: dict[str, list]) -> list:
    reference = answers["sets"]
    for runtime, got in answers.items():
        assert got == reference, f"runtime {runtime!r} diverged from the oracle"
    return reference


@pytest.mark.parametrize("options", ALL_OPTION_COMBOS, ids=lambda o: o.describe())
def test_runtimes_agree_and_match_reference_protein(options, protein, protein_docs):
    filters = make_workload(protein, 35, seed=101)
    answers = run_all(filters, options, protein_docs, dtd=protein.dtd)
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(filters, doc) for doc in protein_docs]


@pytest.mark.parametrize("options", ALL_OPTION_COMBOS, ids=lambda o: o.describe())
def test_runtimes_agree_on_recursive_nasa(options, nasa, nasa_docs):
    filters = make_workload(nasa, 25, seed=17, prob_descendant=0.3)
    docs = nasa_docs[:10]
    answers = run_all(filters, options, docs, dtd=nasa.dtd)
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(filters, doc) for doc in docs]


@pytest.mark.parametrize("name", sorted(VARIANTS), ids=str)
def test_named_variants_agree_across_runtimes(name, protein, protein_docs):
    options = VARIANTS[name]
    filters = make_workload(protein, 20, seed=name.__hash__() % 1000)
    docs = protein_docs[:10]
    assert_all_agree(run_all(filters, options, docs, dtd=protein.dtd))


def test_runtimes_build_identical_state_structure(protein, protein_docs):
    """Beyond answers: all runtimes materialise the same state lattice
    (count and per-state sid sets), so every Fig. 6/7 measurement is
    representation-independent."""
    filters = make_workload(protein, 30, seed=77)
    built = list(machines(build_workload_automata(filters), XPushOptions()).values())
    for machine in built:
        for doc in protein_docs[:10]:
            machine.filter_document(doc)
    reference = built[0]
    for machine in built[1:]:
        assert machine.state_count == reference.state_count
        assert machine.average_state_size == reference.average_state_size
        assert sorted(s.sids for s in machine.store.bottom_states()) == sorted(
            s.sids for s in reference.store.bottom_states()
        )


def test_stats_counters_agree_across_runtimes(protein, protein_docs):
    filters = make_workload(protein, 30, seed=31)
    options = XPushOptions(top_down=True, early=True, precompute_values=False)
    built = list(machines(build_workload_automata(filters), options, protein.dtd).values())
    for machine in built:
        for doc in protein_docs[:10]:
            machine.filter_document(doc)
    reference = built[0]
    for machine in built[1:]:
        for name in ("events", "documents", "pop_computed", "push_computed", "hit_ratio"):
            assert getattr(machine.stats, name) == getattr(reference.stats, name), name


def test_codegen_stats_gauges_are_stamped(protein, protein_docs):
    """The codegen machine reports its compile cost and handler count;
    the other runtimes report zeros (the counters exist everywhere so
    service/serving stats stay uniform)."""
    filters = make_workload(protein, 20, seed=3)
    for runtime, machine in machines(build_workload_automata(filters), XPushOptions()).items():
        machine.filter_document(protein_docs[0])
        if runtime == "codegen":
            assert machine.stats.codegen_handlers > 0
            assert machine.stats.codegen_compile_ms > 0.0
            assert machine.dump_source() is not None
        else:
            assert machine.stats.codegen_handlers == 0
            assert machine.stats.codegen_compile_ms == 0.0
            assert machine.dump_source() is None
        assert machine.stats.codegen_fallbacks == 0


@given(gen_workloads(), st.lists(gen_documents, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_hypothesis_runtimes_agree_basic(workload, docs):
    docs = [doc for doc in docs if not doc.has_mixed_content()]
    if not docs:
        return
    answers = run_all(workload, XPushOptions(), docs)
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(workload, doc) for doc in docs]


@given(gen_workloads(), st.lists(gen_documents, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_hypothesis_runtimes_agree_top_down_early(workload, docs):
    docs = [doc for doc in docs if not doc.has_mixed_content()]
    if not docs:
        return
    options = XPushOptions(top_down=True, early=True, precompute_values=False)
    answers = run_all(workload, options, docs)
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(workload, doc) for doc in docs]


def test_memory_bounded_eviction_agrees_across_runtimes(protein, protein_docs):
    """A tight memory bound exercises the CLOCK sweep mid-stream; the
    recomputed (post-eviction) transitions must agree runtime-to-
    runtime just like the first-time ones."""
    filters = make_workload(protein, 30, seed=13)
    options = XPushOptions(
        top_down=True, precompute_values=False, max_memory_bytes=64 * 1024
    )
    answers = run_all(filters, options, protein_docs, dtd=protein.dtd)
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(filters, doc) for doc in protein_docs]
    machine = XPushMachine(
        build_workload_automata(filters), replace(options, runtime="codegen")
    )
    for doc in protein_docs:
        machine.filter_document(doc)
    assert machine.stats.evictions > 0


def test_persist_round_trip_under_every_runtime(protein, protein_docs):
    """A workload persists as its XPath sources, with no compiled tables
    and no generated code; the workload compiled again from them must
    rebuild masks — and the codegen machine must recompile handlers —
    that behave identically to the originals."""
    from repro.xpath.parser import parse_workload

    filters = make_workload(protein, 25, seed=44)
    original = build_workload_automata(filters)
    reloaded = build_workload_automata(
        parse_workload({afa.oid: afa.source for afa in original.afas})
    )
    assert reloaded.masks is not None
    options = XPushOptions(top_down=True, precompute_values=False)
    for a, b in zip(machines(original, options).values(), machines(reloaded, options).values()):
        for doc in protein_docs[:10]:
            assert a.filter_document(doc) == b.filter_document(doc)


def test_engine_snapshot_restores_codegen_runtime(protein, protein_docs):
    """Engine snapshots record no runtime; an engine configured for
    ``codegen`` restores a capture, recompiles its handlers and answers
    as the engine the capture came from."""
    from repro.engine import EngineConfig, create_engine

    filters = make_workload(protein, 15, seed=6)
    config = EngineConfig(engine="xpush", options=XPushOptions(runtime="codegen"))
    engine = create_engine(config, filters)
    expected = [engine.filter_document(doc) for doc in protein_docs[:5]]
    snapshot = engine.snapshot()
    assert "runtime" not in snapshot

    restored = create_engine(config)
    restored.restore(snapshot)
    assert restored.options.runtime == "codegen"
    assert [restored.filter_document(d) for d in protein_docs[:5]] == expected
    assert restored.stats()["codegen_handlers"] > 0


def test_layered_updates_agree_at_every_epoch(protein, protein_docs):
    """Drive the same insert/remove sequence through a layered engine
    per runtime and diff the answers after *every* update epoch.  Under
    codegen only the delta layer recompiles: the base machine's handler
    object must stay the same across epochs."""
    from repro.xpush.layered import LayeredFilterEngine

    filters = make_workload(protein, 24, seed=9)
    base, updates = filters[:12], filters[12:]
    docs = protein_docs[:6]
    engines = {}
    for runtime, opts in all_runtimes(XPushOptions(top_down=True, precompute_values=False)):
        with oracle.under(runtime):
            engines[runtime] = LayeredFilterEngine(base, options=opts, compact_threshold=1_000)
    codegen_engine = engines["codegen"]
    assert codegen_engine._base is not None
    base_handlers = codegen_engine._base._handlers
    assert base_handlers is not None

    def check_epoch():
        per_runtime = {
            runtime: [engine.filter_document(doc) for doc in docs]
            for runtime, engine in engines.items()
        }
        assert_all_agree(per_runtime)

    check_epoch()
    for index, inserted in enumerate(updates):
        for runtime, engine in engines.items():
            with oracle.under(runtime):  # the delta rebuilds here
                engine.insert(inserted.oid, inserted.source)
                if index == 2:
                    engine.remove(base[0].oid)
        check_epoch()
        # Only the delta layer was rebuilt: base handlers are reused
        # by identity, and the delta has its own compiled handlers.
        assert codegen_engine._base._handlers is base_handlers
        assert codegen_engine._delta is not None
        assert codegen_engine._delta._handlers is not None
        assert codegen_engine._delta._handlers is not base_handlers
    stats = engines["codegen"].stats()
    assert stats["runtime"] == "codegen"
    assert stats["codegen_handlers"] > 0


def test_layered_snapshot_round_trip_under_codegen(protein, protein_docs):
    """A snapshot is sources and layering only: one captured under
    ``codegen`` restores into a ``bitmask`` engine, which keeps its own
    runtime and answers alike."""
    from repro.xpush.layered import LayeredFilterEngine

    filters = make_workload(protein, 16, seed=29)
    engine = LayeredFilterEngine(
        filters[:10],
        options=XPushOptions(runtime="codegen"),
        compact_threshold=1_000,
    )
    for f in filters[10:]:
        engine.insert(f.oid, f.source)
    docs = protein_docs[:5]
    expected = [engine.filter_document(doc) for doc in docs]
    snapshot = engine.snapshot()
    assert "runtime" not in snapshot

    restored = LayeredFilterEngine([], options=XPushOptions(runtime="bitmask"))
    restored.restore(snapshot)
    assert [restored.filter_document(doc) for doc in docs] == expected
    stats = restored.stats()
    assert stats["runtime"] == "bitmask"
    assert (stats["base_filters"], stats["delta_filters"]) == (10, 6)
    assert stats["codegen_handlers"] == 0


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_sharded_engine_agrees_across_runtimes(shards, protein, protein_docs):
    from repro.service import ShardedFilterEngine

    filters = make_workload(protein, 24, seed=71)
    docs = protein_docs[:8]
    answers = {}
    for runtime, options in all_runtimes(XPushOptions(top_down=True, precompute_values=False)):
        with oracle.under(runtime), ShardedFilterEngine(
            filters, shards, options=options, parallel=False, batch_size=3
        ) as engine:
            answers[runtime] = engine.filter_batch(docs)
            assert engine.stats()["runtime"] == options.runtime
    reference = assert_all_agree(answers)
    assert reference == [matching_oids(filters, doc) for doc in docs]


def test_sharded_worker_processes_under_codegen(protein, protein_docs):
    """Options (and so the runtime) pickle into the shard worker
    payloads; each worker recompiles its shard's handlers locally and
    the parallel path must agree with ground truth too."""
    from repro.service import ShardedFilterEngine

    filters = make_workload(protein, 16, seed=5)
    docs = protein_docs[:6]
    expected = [matching_oids(filters, doc) for doc in docs]
    with ShardedFilterEngine(
        filters, 2,
        options=XPushOptions(top_down=True, precompute_values=False, runtime="codegen"),
        batch_size=3,
    ) as engine:
        if not engine.parallel:
            pytest.skip("multiprocessing unavailable on this platform")
        assert engine.filter_batch(docs) == expected


def test_reset_tables_clears_early_notifications(protein):
    """``reset_tables`` must drop in-flight early notifications; a
    stale ``_early`` set would leak oids into the next document's
    answer after a mid-stream flush."""
    filters = make_workload(protein, 12, seed=23)
    options = XPushOptions(top_down=True, early=True, precompute_values=False)
    for machine in machines(build_workload_automata(filters), options).values():
        machine.start_document()
        machine._early.add("ghost-oid")
        machine.reset_tables()
        assert machine._early == set()


def test_reset_tables_round_trips_all_runtimes(protein, protein_docs):
    filters = make_workload(protein, 20, seed=61)
    for machine in machines(build_workload_automata(filters), XPushOptions()).values():
        before = [machine.filter_document(doc) for doc in protein_docs[:6]]
        machine.reset_tables()
        after = [machine.filter_document(doc) for doc in protein_docs[:6]]
        assert before == after

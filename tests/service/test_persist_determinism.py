"""Determinism of the shard boot path and of workload persistence.

Shards boot from XPath *sources* (the routing projection) rather than
the parent's in-memory automata, and compiled workloads round-trip
through :mod:`repro.xpush.persist`.  For either to be sound the result
must be *behaviourally* identical, not merely answer-identical: a
machine built the other way, warmed with the same seed and replayed
over the same stream, must make the same lazy-table decisions — same
hit ratio, same state counts, same everything the stats record.
"""

from __future__ import annotations

from repro.afa.build import build_workload_automata
from repro.engine import EngineConfig
from repro.service.worker import build_engine, build_payload
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.persist import workload_from_json, workload_to_json
from tests.conftest import make_workload

TD = XPushOptions(top_down=True, precompute_values=False)


def _replay(machine, stream):
    results = machine.filter_stream(stream)
    return results, machine.stats.snapshot()


def test_snapshot_round_trip_replays_identically(protein):
    filters = make_workload(protein, 20, seed=29)
    stream = protein.stream_text(12)
    original = build_workload_automata(filters)
    snapshot = workload_to_json(original)
    restored = workload_from_json(snapshot)

    parent = XPushMachine(original, TD, dtd=protein.dtd)
    parent.warm_up(seed=0)
    child = XPushMachine(restored, TD, dtd=protein.dtd)
    child.warm_up(seed=0)

    parent_results, parent_stats = _replay(parent, stream)
    child_results, child_stats = _replay(child, stream)
    assert parent_results == child_results
    assert parent_stats == child_stats  # includes lookups, hits, hit_ratio
    assert parent.state_count == child.state_count
    assert parent_stats["hit_ratio"] == child_stats["hit_ratio"]


def test_worker_boot_path_matches_parent_machine(protein):
    """The exact code path a shard runs (payload → engine): the engine
    booted from the shipped sources must replay *behaviourally*
    identically to a machine built from the parent's in-memory
    automata — same answers, same lazy-table decisions."""
    filters = make_workload(protein, 14, seed=5)
    stream = protein.stream_text(10)
    workload = build_workload_automata(filters)

    parent = XPushMachine(workload, TD, dtd=protein.dtd)
    parent.warm_up(seed=0)
    config = EngineConfig(engine="layered", options=TD, dtd=protein.dtd)
    worker_engine = build_engine(
        build_payload(
            config, {f.oid: f.source for f in filters}, warm=True, training_seed=0
        )
    )

    parent_results, parent_stats = _replay(parent, stream)
    worker_results = worker_engine.filter_stream(stream)
    worker_stats = worker_engine._base.stats.snapshot()
    assert parent_results == worker_results
    # The layered engine counts stream bytes at the engine level (the
    # scanner feeds both layers at once); everything the base machine
    # decided — lookups, hits, state growth — must match exactly.
    assert worker_engine.bytes_processed == parent_stats["bytes_processed"]
    for key in ("bytes", "bytes_processed"):
        parent_stats.pop(key)
        worker_stats.pop(key)
    assert parent_stats == worker_stats


def test_snapshot_is_idempotent(protein):
    filters = make_workload(protein, 10, seed=41)
    workload = build_workload_automata(filters)
    once = workload_to_json(workload)
    twice = workload_to_json(workload_from_json(once))
    assert once == twice

"""Determinism of the shard boot path and of workload persistence.

Shards are replicas of an engine the parent compiles from XPath
*sources* (at construction and at every restore), and engine snapshots
persist those sources and nothing compiled.  For either to be sound the
result must be *behaviourally* identical, not merely answer-identical:
a machine built the other way, trained with the same seed and replayed
over the same stream, must make the same lazy-table decisions — same
hit ratio, same state counts, same everything the stats record.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.afa.build import build_workload_automata
from repro.engine import EngineConfig, create_engine
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from tests.conftest import make_workload

TD = XPushOptions(top_down=True)
TRAINED = replace(TD, train=True)


def _replay(machine, stream):
    results = machine.filter_stream(stream)
    return results, machine.stats.snapshot()


def test_snapshot_round_trip_replays_identically(protein):
    filters = make_workload(protein, 20, seed=29)
    stream = protein.stream_text(12)
    original = LayeredFilterEngine(filters, TRAINED, dtd=protein.dtd)
    snapshot = json.loads(json.dumps(original.snapshot()))
    restored = LayeredFilterEngine([], TRAINED, dtd=protein.dtd)
    restored.restore(snapshot)

    parent_results, parent_stats = _replay(original._base, stream)
    child_results, child_stats = _replay(restored._base, stream)
    assert parent_results == child_results
    assert parent_stats == child_stats  # includes lookups, hits, hit_ratio
    assert original._base.state_count == restored._base.state_count
    assert parent_stats["hit_ratio"] == child_stats["hit_ratio"]


def test_worker_boot_path_matches_parent_machine(protein):
    """The exact code path a shard's engine is built by (sources →
    ``create_engine``, in the parent, inherited by every worker): it
    must replay *behaviourally* identically to a machine built from
    in-memory automata — same answers, same lazy-table decisions — and
    train exactly when ``options.train`` says so."""
    filters = make_workload(protein, 14, seed=5)
    stream = protein.stream_text(10)
    workload = build_workload_automata(filters)

    parent = XPushMachine(workload, TRAINED, dtd=protein.dtd)
    assert parent.state_count > 1  # training ran at construction
    config = EngineConfig(engine="layered", options=TRAINED, dtd=protein.dtd)
    worker_engine = create_engine(config, {f.oid: f.source for f in filters})

    parent_results, parent_stats = _replay(parent, stream)
    worker_results = worker_engine.filter_stream(stream)
    worker_stats = worker_engine._base.stats.snapshot()
    assert parent_results == worker_results
    # The layered engine counts stream bytes at the engine level (the
    # scanner feeds both layers at once); everything the base machine
    # decided — lookups, hits, state growth — must match exactly.
    assert worker_engine.bytes_processed == parent_stats["bytes_processed"]
    parent_stats.pop("bytes_processed")
    worker_stats.pop("bytes_processed")
    assert parent_stats == worker_stats


def test_snapshot_is_idempotent(protein):
    filters = make_workload(protein, 10, seed=41)
    engine = LayeredFilterEngine(filters[:8], TD, compact_threshold=1_000)
    for f in filters[8:]:
        engine.insert(f.oid, f.source)
    engine.remove(filters[0].oid)
    once = engine.snapshot()
    restored = LayeredFilterEngine([], TD)
    restored.restore(json.loads(json.dumps(once)))
    assert restored.snapshot() == once

"""Crash robustness: a shard worker dying mid-batch must not lose work.

The engine's contract (docs/scaling.md): a dead worker is respawned
from its retained shard payload, every batch it had not yet answered
is resubmitted, and the merged answers are byte-identical to the
no-crash run.  ``stats()["worker_restarts"]`` records the event.
"""

from __future__ import annotations

import pytest

from repro.afa.build import build_workload_automata
from repro.engine import EngineConfig, create_engine
from repro.service.engine import ServiceError
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from tests.conftest import make_workload

TD = XPushOptions(top_down=True)


@pytest.fixture()
def engine_and_truth(protein, protein_docs):
    filters = make_workload(protein, 8, seed=13)
    docs = protein_docs[:8]
    serial = XPushMachine(build_workload_automata(filters), TD)
    expected = [serial.filter_document(doc) for doc in docs]
    engine = create_engine(
        EngineConfig(engine="sharded", shards=2, options=TD, batch_size=2, result_timeout=30.0),
        filters,
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    yield engine, docs, expected
    engine.close()


def test_worker_crash_mid_batch_is_recovered(engine_and_truth):
    engine, docs, expected = engine_and_truth
    assert engine.filter_batch(docs) == expected  # sanity, no crash yet
    assert engine.stats()["worker_restarts"] == 0

    victim = next(iter(engine._workers))
    engine.inject_crash(victim)
    # The crash command is consumed ahead of the batch: the worker dies
    # mid-stream, the parent restarts it and resubmits its pending work.
    assert engine.filter_batch(docs) == expected
    stats = engine.stats()
    assert stats["worker_restarts"] == 1
    assert stats["documents"] == 2 * len(docs)

    # The restarted worker keeps serving subsequent batches.
    assert engine.filter_batch(docs) == expected
    assert engine.stats()["worker_restarts"] == 1


def test_repeated_crashes_each_increment_restarts(engine_and_truth):
    engine, docs, expected = engine_and_truth
    for round_number in range(1, 3):
        engine.inject_crash(next(iter(engine._workers)))
        assert engine.filter_batch(docs) == expected
        assert engine.stats()["worker_restarts"] == round_number


def test_closed_engine_refuses_work(engine_and_truth):
    engine, docs, _ = engine_and_truth
    engine.close()
    with pytest.raises(ServiceError):
        engine.filter_batch(docs)

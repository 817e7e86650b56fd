"""Differential fuzz wall for the sharded service.

For random workloads (the Sec. 7 query generator) and random documents
(the synthetic dataset generators), the sharded engine must produce
*exactly* the serial XPush machine's answers, which in turn must equal
the naive per-filter ground truth — for every shard count 1-4.
Every shard is a replica of one engine and the documents are dealt
out, so any discrepancy means a document was lost, answered twice or
put back out of order.
"""

from __future__ import annotations

import pytest

from repro.afa.build import build_workload_automata
from repro.baselines.naive import NaiveEngine
from repro.engine import EngineConfig, create_engine
from repro.service import ShardedFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from tests.conftest import make_workload

TD = XPushOptions(top_down=True)


@pytest.fixture(scope="module")
def workload(protein):
    return make_workload(protein, 24, seed=71)


@pytest.fixture(scope="module")
def documents(protein_docs):
    return protein_docs[:10]


@pytest.fixture(scope="module")
def ground_truth(workload, documents):
    naive = NaiveEngine(workload)
    serial = XPushMachine(build_workload_automata(workload), TD)
    expected = [serial.filter_document(doc) for doc in documents]
    assert expected == [naive.filter_document(doc) for doc in documents]
    return expected


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_equals_serial_equals_naive(workload, documents, ground_truth, shards):
    with create_engine(
        EngineConfig(engine="sharded", shards=shards, options=TD, parallel=False, batch_size=3),
        workload,
    ) as engine:
        assert engine.filter_batch(documents) == ground_truth
        stats = engine.stats()
        assert stats["serial_fallback"]
        # Every shard holds every filter, and answered its own documents.
        assert [e["filters"] for e in stats["per_shard"]] == [len(workload)] * shards
        assert sum(stats["shard_load"]) == stats["documents"] == len(documents)


@pytest.mark.parametrize("shards", [2, 4])
def test_worker_processes_match_serial(workload, documents, ground_truth, shards):
    with create_engine(
        EngineConfig(engine="sharded", shards=shards, options=TD, batch_size=4), workload
    ) as engine:
        if not engine.parallel:
            pytest.skip("multiprocessing unavailable on this platform")
        assert engine.filter_batch(documents) == ground_truth
        # A second round reuses the warmed worker tables.
        assert engine.filter_batch(documents) == ground_truth
        stats = engine.stats()
        assert not stats["serial_fallback"]
        assert stats["documents"] == sum(stats["shard_load"]) == 2 * len(documents)
        assert stats["worker_restarts"] == 0 and stats["xpush_states"] > 0
        assert stats["batches"] == 6  # ten documents, four to an item, twice


def test_nasa_recursive_dtd_differential(nasa, nasa_docs):
    filters = make_workload(nasa, 15, seed=9)
    docs = nasa_docs[:8]
    naive = NaiveEngine(filters)
    expected = [naive.filter_document(doc) for doc in docs]
    with create_engine(
        EngineConfig(engine="sharded", shards=3, options=TD, parallel=False), filters
    ) as engine:
        assert engine.filter_batch(docs) == expected


def test_more_shards_than_filters(protein, protein_docs):
    filters = make_workload(protein, 2, seed=3)
    docs = protein_docs[:5]
    serial = XPushMachine(build_workload_automata(filters), TD)
    expected = [serial.filter_document(doc) for doc in docs]
    with create_engine(
        EngineConfig(engine="sharded", shards=4, options=TD, parallel=False), filters
    ) as engine:
        assert engine.filter_batch(docs) == expected


def test_empty_workload_and_empty_batch(protein_docs):
    with create_engine(EngineConfig(engine="sharded", shards=3, parallel=False), []) as engine:
        assert engine.filter_batch(protein_docs[:3]) == [frozenset()] * 3
        assert engine.filter_batch([]) == []


def test_unknown_keyword_is_a_type_error():
    """The engine takes a parsed workload and one ``EngineConfig``, whose
    fields are the only knobs — the retired ``strategy=`` included."""
    with pytest.raises(TypeError):
        EngineConfig(engine="sharded", shards=2, strategy="hash")
    with pytest.raises(TypeError):
        ShardedFilterEngine([], EngineConfig(engine="sharded"), parallel=False)

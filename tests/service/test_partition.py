"""Property tests for the replica invariant of ``ShardedFilterEngine``.

Every shard is a replica of the one engine the parent compiled, so the
*documents* are what is partitioned: an n-document ``filter_stream``
call is cut into ``min(shards, n)`` contiguous runs — an exact cover of
its documents, in order, one run per shard — and every shard holds
every filter whatever order it was subscribed in.  A worker inherits
the parent's engine through ``fork``, so nothing about it is pickled
or recomputed: a DTD that does not pickle keeps its options, and
training runs once, in the parent, however many workers start.
"""

from __future__ import annotations

import copy
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, create_engine
from repro.service import ShardedFilterEngine
from repro.service import worker as worker_module
from repro.service.engine import _mp_context
from repro.xpath.parser import parse_xpath
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from tests.conftest import make_workload

oids = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    unique=True,
    max_size=20,
)
shard_counts = st.integers(min_value=1, max_value=6)

SOURCES = ["//a", "/a[b]", "//a[b/text()=1]", "//c[@d>2 and e]"]
DOCUMENTS = ["<a><b>1</b></a>", "<a/>", "<c d='3'><e/></c>", "<a><b>2</b></a>"]


def _filters(names):
    return [parse_xpath(SOURCES[i % len(SOURCES)], oid) for i, oid in enumerate(names)]


@settings(max_examples=30, deadline=None)
@given(documents=st.integers(min_value=0, max_value=20), shards=shard_counts)
def test_partition_is_an_exact_cover(documents, shards):
    """Each document is answered once, by one shard, in source order,
    and the runs differ in length by one at most."""
    source = "".join(DOCUMENTS[i % len(DOCUMENTS)] for i in range(documents))
    serial = create_engine(EngineConfig(), {f"q{i}": s for i, s in enumerate(SOURCES)})
    with ShardedFilterEngine(
        {f"q{i}": s for i, s in enumerate(SOURCES)}, shards, parallel=False
    ) as engine:
        assert engine.filter_stream(source) == serial.filter_stream(source)
        stats = engine.stats()
    runs = [int(load) for load in stats["shard_load"] if load]
    assert sum(runs) == stats["documents"] == documents
    assert len(runs) == stats["batches"] == min(shards, documents)
    assert max(runs, default=0) - min(runs, default=0) <= 1


@settings(max_examples=30, deadline=None)
@given(names=oids, shards=shard_counts)
def test_every_replica_holds_every_filter_in_any_order(names, shards):
    filters = _filters(names)
    source = "".join(DOCUMENTS)
    answers = []
    for order in (filters, list(reversed(filters))):
        with ShardedFilterEngine([], shards, parallel=False) as engine:
            for xpath_filter in order:
                engine.subscribe(xpath_filter.oid, xpath_filter.source)
            answers.append(engine.filter_stream(source))
            per_shard = engine.stats()["per_shard"]
        assert [entry["filters"] for entry in per_shard] == [len(names)] * shards
    assert answers[0] == answers[1]


def _workers(protein, options, dtd, **kwargs):
    if _mp_context() is None:
        pytest.skip("multiprocessing unavailable on this platform")
    filters = make_workload(protein, 12, seed=7)
    return filters, ShardedFilterEngine(
        filters, 2, options=options, dtd=dtd, result_timeout=30.0, **kwargs
    )


def test_a_dtd_that_does_not_pickle_keeps_the_workers_options(protein, monkeypatch, tmp_path):
    """The order optimisation and training need the DTD; a worker
    inherits the parent's engine, DTD and all, so neither is turned
    off where the DTD cannot be pickled."""
    dtd = copy.copy(protein.dtd)
    dtd.unpicklable = lambda: None
    options = XPushOptions(top_down=True, order=True, train=True)
    real_worker_main = worker_module.worker_main

    def _reporting_worker(shard_id, payload, tasks, results):
        engine = payload[0]
        seen = (engine.options.order, engine.options.train, engine.dtd is not None)
        (tmp_path / f"shard-{shard_id}").write_text(repr(seen))
        real_worker_main(shard_id, payload, tasks, results)

    monkeypatch.setattr(worker_module, "worker_main", _reporting_worker)
    filters, engine = _workers(protein, options, dtd)
    reference = create_engine(EngineConfig(options=options, dtd=dtd), filters)
    try:
        stream = protein.stream_text(8)
        assert engine.filter_stream(stream) == reference.filter_stream(stream)
        assert engine.stats()["shard_load"] == [4.0, 4.0]
        for shard_id in range(2):
            assert (tmp_path / f"shard-{shard_id}").read_text() == repr((True, True, True))
    finally:
        engine.close()
        reference.close()


def test_training_runs_once_in_the_parent(protein, monkeypatch, tmp_path):
    """Two workers and a respawn, one training pass: the parent's."""
    trained = tmp_path / "trained"
    warm_up = XPushMachine.warm_up

    def _logged(machine, *args, **kwargs):
        with open(trained, "a") as log:
            log.write(f"{os.getpid()}\n")
        return warm_up(machine, *args, **kwargs)

    monkeypatch.setattr(XPushMachine, "warm_up", _logged)
    options = XPushOptions(top_down=True, train=True)
    filters, engine = _workers(protein, options, protein.dtd)
    reference = create_engine(EngineConfig(options=options, dtd=protein.dtd), filters)
    try:
        assert trained.read_text().split() == [str(os.getpid())] * 2  # parent, reference
        stream = protein.stream_text(6)
        expected = reference.filter_stream(stream)
        assert engine.filter_stream(stream) == expected
        engine.inject_crash(1)
        assert engine.filter_stream(stream) == expected
        assert engine.stats()["worker_restarts"] == 1
        assert trained.read_text().split() == [str(os.getpid())] * 2
    finally:
        engine.close()
        reference.close()

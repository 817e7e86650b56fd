"""Throughput vs shard count: the sharded service against the serial machine.

The FPGA filtering literature scales XML filtering by partitioning the
workload across parallel filter engines.  The XPush machine's cost per
event does not depend on the workload's size, so `repro.service` deals
out the *documents* instead: every worker process is a forked replica
of one engine the parent compiled.  This bench measures warm filtering
throughput of the serial XPush machine and of
:class:`repro.service.ShardedFilterEngine` at several shard counts on
the same workload and stream, and prints docs/s, MB/s and the speedup
relative to serial.

Two entry points:

- ``python benchmarks/bench_parallel_shards.py [--quick]`` — the CI
  smoke test.  ``--quick`` keeps the 1k-filter workload but shrinks the
  stream so the whole run stays in CI budget.
- ``pytest benchmarks/bench_parallel_shards.py`` — the pytest-benchmark
  harness variant at ``REPRO_BENCH_SCALE`` size, like the figure
  benches.

Before its timed passes, every replica answers every document once:
each call deals its documents out afresh, so a replica warmed only on
the items of one pass would pay its cold mile inside the timing.
Each shard count also runs one pass with an ``on_match`` hook wired,
printed as hooked docs/s beside the unhooked figure, and the documents
each shard answered (no timing gate).  The script exits non-zero
unless the hook delivered every returned answer exactly once, the
per-shard document counts add up to the documents filtered, and — at
two or more shards — every shard answered some of them.

Interpretation note printed with the table: dealing documents out can
only buy wall-clock speedup when the shards actually run on separate
cores, and each shard's pass then shrinks with its share of the
documents.  On a single-CPU host (``os.cpu_count() == 1``) the
expected speedup is <= 1x — the run then only validates overhead,
batching, dealing and answer equality, which is exactly what CI uses
it for.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.afa.build import build_workload_automata
from repro.bench.workloads import scaled, standard_stream, standard_workload
from repro.service import ShardedFilterEngine
from repro.service.latency import LatencyTracker
from repro.xmlstream.dom import parse_forest
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

TD = XPushOptions(top_down=True)


def measure_serial(filters, documents, dtd):
    machine = XPushMachine(build_workload_automata(filters), TD, dtd=dtd)
    for doc in documents:  # warm pass
        machine.filter_document(doc)
    machine.clear_results()
    started = time.perf_counter()
    for doc in documents:
        machine.filter_document(doc)
    elapsed = time.perf_counter() - started
    machine.clear_results()
    return elapsed


def measure_sharded(filters, documents, dtd, shards, batch_size, parallel=None):
    with ShardedFilterEngine(
        filters,
        shards,
        options=TD,
        dtd=dtd,
        batch_size=batch_size,
        parallel=parallel,
    ) as engine:
        warm_loads = warm(engine, documents, shards)
        engine.latency = LatencyTracker()  # p50/p99 of the timed pass's items only
        started = time.perf_counter()
        engine.filter_batch(documents)
        elapsed = time.perf_counter() - started
        stats = engine.stats()
        delivered: list[tuple[int, str]] = []
        engine.on_match = lambda oid, doc, _event: delivered.append((doc, oid))
        started = time.perf_counter()
        answers = engine.filter_batch(documents)
        hooked = time.perf_counter() - started
        engine.on_match = None
        loads = engine.stats()["shard_load"]
    # Every answer delivered, and exactly once.
    exact = sorted(delivered) == sorted(
        (doc, oid) for doc, oids in enumerate(answers) for oid in oids
    )
    # The two measured passes alone, so the check sees how multi-document
    # calls are dealt, not warm()'s one-document rotation.
    measured = [after - before for before, after in zip(warm_loads, loads)]
    return elapsed, stats, hooked, exact and dealt(measured, 2 * len(documents))


def warm(engine, documents, shards):
    """Every replica answers every document once before the timed
    passes, which deal the documents out differently from call to call.
    A one-document call is one item, dealt to the shard that has
    answered the fewest documents, so *shards* calls per document reach
    each shard in turn.  Returns the documents each shard answered."""
    for doc in documents:
        for _ in range(shards):
            engine.filter_batch([doc])
    loads = engine.stats()["shard_load"]
    if loads != [len(documents)] * len(loads):
        raise AssertionError(f"warm-up dealt {loads}, not every document to every shard")
    return loads


def dealt(loads, documents) -> bool:
    """The documents each shard answered add up to *documents*, and
    with two or more shards every shard answered some."""
    return sum(loads) == documents and (len(loads) < 2 or min(loads) > 0)


def run(queries, stream_bytes, shard_counts, batch_size, out=sys.stdout):
    filters, dataset = standard_workload(queries, mean_predicates=1.15)
    stream = standard_stream(stream_bytes)
    documents = parse_forest(stream)
    megabytes = len(stream.encode("utf-8")) / 1e6

    serial_seconds = measure_serial(filters, documents, dataset.dtd)
    print(
        f"workload: {len(filters)} filters | stream: {len(documents)} documents, "
        f"{megabytes:.2f} MB | host CPUs: {os.cpu_count()}",
        file=out,
    )
    header = (
        f"{'engine':<22}{'seconds':>9}{'docs/s':>10}{'MB/s':>8}{'speedup':>9}"
        f"{'hooked docs/s':>15}  p50/p99 ms  docs per shard"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    print(
        f"{'serial XPushMachine':<22}{serial_seconds:>9.3f}"
        f"{len(documents) / serial_seconds:>10.1f}"
        f"{megabytes / serial_seconds:>8.2f}{'x1.00':>9}",
        file=out,
    )
    speedups = {}
    inexact = []
    for shards in shard_counts:
        elapsed, stats, hooked, exact = measure_sharded(
            filters, documents, dataset.dtd, shards, batch_size
        )
        speedups[shards] = serial_seconds / elapsed
        latency = stats["batch_latency"]
        label = f"sharded x{shards}" + (
            " (serial)" if stats["serial_fallback"] else ""
        )
        print(
            f"{label:<22}{elapsed:>9.3f}{len(documents) / elapsed:>10.1f}"
            f"{megabytes / elapsed:>8.2f}{'x%.2f' % speedups[shards]:>9}"
            f"{len(documents) / hooked:>15.1f}"
            f"  {latency['p50_ms']:.1f}/{latency['p99_ms']:.1f}"
            f"  {'/'.join(str(int(load)) for load in stats['shard_load'])}",
            file=out,
        )
        if not exact:
            inexact.append(shards)
    if os.cpu_count() == 1:
        print(
            "note: single-CPU host — shards time-share one core, so speedup "
            "<= 1x is expected; this run validates overhead and equality only.",
            file=out,
        )
    if inexact:
        print(
            f"FAIL: on_match did not deliver every answer exactly once, or "
            f"the shards did not answer every document between them, "
            f"at shard counts {inexact}",
            file=out,
        )
    return speedups, not inexact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small stream, shards 1/2/4")
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--bytes", type=int, default=400_000)
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts to measure")
    parser.add_argument("--batch-size", type=int, default=16)
    args = parser.parse_args(argv)
    stream_bytes = 60_000 if args.quick else args.bytes
    shard_counts = [int(s) for s in args.shards.split(",") if s]
    _, exact = run(args.queries, stream_bytes, shard_counts, args.batch_size)
    return 0 if exact else 1


def test_parallel_shards(benchmark):
    """pytest-benchmark harness variant at REPRO_BENCH_SCALE size."""
    queries = scaled(100_000, minimum=100)
    filters, dataset = standard_workload(queries, mean_predicates=1.15)
    stream = standard_stream(scaled(2_000_000, minimum=40_000))
    documents = parse_forest(stream)

    serial_seconds = measure_serial(filters, documents, dataset.dtd)
    elapsed, stats, _, exact = measure_sharded(filters, documents, dataset.dtd, 4, 16)
    print(
        f"\n{len(filters)} filters, {len(documents)} docs: "
        f"serial {serial_seconds:.3f}s, sharded x4 {elapsed:.3f}s "
        f"(speedup x{serial_seconds / elapsed:.2f}, "
        f"restarts {stats['worker_restarts']})"
    )
    with ShardedFilterEngine(
        filters, 4, options=TD, dtd=dataset.dtd, batch_size=16
    ) as engine:
        warm(engine, documents, 4)
        benchmark.pedantic(
            lambda: engine.filter_batch(documents), rounds=2, iterations=1
        )
    assert stats["worker_restarts"] == 0
    assert exact


if __name__ == "__main__":
    sys.exit(main())

"""Loopback serving overhead: the network tier against the direct engine.

The serving tier (`repro.serving`) wraps a `FilterEngine` in an
asyncio pub/sub front door — framing, an executor hop per publish, and
per-consumer fan-out all sit between a publisher and its answers.
This bench measures how much that door costs on loopback: the same
Protein stream is filtered directly through the engine, then published
document-by-document over a real TCP socket (one client, then several
concurrent publisher threads), and the per-document overhead is
printed alongside throughput.

Two entry points:

- ``python benchmarks/bench_serving.py [--quick]`` — the CI smoke
  test.  The gates are relative and host-independent: answers over the
  wire must equal the direct engine's on the same run (for every
  publisher), no publish may error, and the per-document serving
  overhead must stay under ``--max-overhead-ms`` (default 50 ms — an
  order of magnitude above what loopback framing plausibly costs, so
  only a wedged event loop or executor trips it).
- ``pytest benchmarks/bench_serving.py`` — the pytest-benchmark
  harness variant at ``REPRO_BENCH_SCALE`` size, like the figure
  benches.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.bench.workloads import scaled, standard_stream, standard_workload
from repro.engine import EngineConfig, create_engine
from repro.serving import FilterServer, ServerThread, ServingClient
from repro.xmlstream.dom import parse_forest
from repro.xmlstream.writer import document_to_xml


def build_inputs(queries: int, stream_bytes: int):
    filters, _dataset = standard_workload(queries, mean_predicates=1.15)
    stream = standard_stream(stream_bytes)
    texts = [document_to_xml(doc) for doc in parse_forest(stream)]
    return filters, texts


def measure_direct(config: EngineConfig, filters, texts):
    engine = create_engine(config, filters)
    try:
        for text in texts:  # warm pass (lazy machine tables)
            engine.filter_stream(text)
        started = time.perf_counter()
        answers = [engine.filter_stream(text)[0] for text in texts]
        elapsed = time.perf_counter() - started
    finally:
        engine.close()
    return elapsed, answers


def measure_wire(config: EngineConfig, filters, texts, publishers: int):
    """Publish every document over loopback; returns (elapsed,
    per-publisher answers, server stats).  With *publishers* > 1 the
    texts are round-robined across that many client threads."""
    engine = create_engine(config, filters)
    with ServerThread(FilterServer(engine)) as handle:
        host, port = handle.address
        with ServingClient(host, port) as warm:
            for text in texts:
                warm.publish(text)

        answers: dict[int, list] = {p: [] for p in range(publishers)}
        errors: list[Exception] = []

        def publisher(index: int) -> None:
            try:
                with ServingClient(host, port, timeout=60.0) as client:
                    for text in texts[index::publishers]:
                        answers[index].append(client.publish(text)[0])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        started = time.perf_counter()
        if publishers == 1:
            publisher(0)
        else:
            threads = [
                threading.Thread(target=publisher, args=(p,))
                for p in range(publishers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        elapsed = time.perf_counter() - started
        stats = handle.stats()
    engine.close()
    if errors:
        raise errors[0]
    return elapsed, answers, stats


def run(queries, stream_bytes, max_overhead_ms, out=sys.stdout):
    config = EngineConfig(engine="layered")
    filters, texts = build_inputs(queries, stream_bytes)
    megabytes = sum(len(t.encode("utf-8")) for t in texts) / 1e6
    print(
        f"workload: {len(filters)} filters | stream: {len(texts)} documents, "
        f"{megabytes:.2f} MB | engine: {config.engine}",
        file=out,
    )

    direct_seconds, direct_answers = measure_direct(config, filters, texts)
    header = (
        f"{'path':<26}{'seconds':>9}{'docs/s':>10}{'overhead/doc':>14}  p50/p99 ms"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    print(
        f"{'direct engine':<26}{direct_seconds:>9.3f}"
        f"{len(texts) / direct_seconds:>10.1f}{'—':>14}",
        file=out,
    )

    worst_overhead = 0.0
    for publishers in (1, 4):
        elapsed, answers, stats = measure_wire(config, filters, texts, publishers)
        for index, got in answers.items():
            expected = direct_answers[index::publishers]
            assert got == expected, (
                f"wire answers diverged from the direct engine "
                f"(publisher {index} of {publishers})"
            )
        assert stats["publish_errors"] == 0, stats
        overhead_ms = (elapsed - direct_seconds) / len(texts) * 1e3
        worst_overhead = max(worst_overhead, overhead_ms)
        latency = stats["publish_latency"]
        print(
            f"{f'loopback x{publishers} publishers':<26}{elapsed:>9.3f}"
            f"{len(texts) / elapsed:>10.1f}{f'{overhead_ms:+.2f} ms':>14}"
            f"  {latency['p50_ms']:.1f}/{latency['p99_ms']:.1f}",
            file=out,
        )

    assert worst_overhead < max_overhead_ms, (
        f"per-document serving overhead {worst_overhead:.1f} ms exceeds "
        f"the {max_overhead_ms:.0f} ms gate"
    )
    print(
        f"gate: answers equal on every path, worst overhead "
        f"{worst_overhead:+.2f} ms/doc < {max_overhead_ms:.0f} ms",
        file=out,
    )
    return worst_overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small workload and stream")
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--bytes", type=int, default=200_000)
    parser.add_argument("--max-overhead-ms", type=float, default=50.0,
                        help="fail if per-document overhead exceeds this")
    args = parser.parse_args(argv)
    queries = 120 if args.quick else args.queries
    stream_bytes = 40_000 if args.quick else args.bytes
    run(queries, stream_bytes, args.max_overhead_ms)
    return 0


def test_serving_overhead(benchmark):
    """pytest-benchmark harness variant at REPRO_BENCH_SCALE size."""
    config = EngineConfig(engine="layered")
    filters, texts = build_inputs(
        scaled(4000, minimum=120), scaled(1_000_000, minimum=40_000)
    )
    direct_seconds, direct_answers = measure_direct(config, filters, texts)

    engine = create_engine(config, filters)
    with ServerThread(FilterServer(engine)) as handle:
        with ServingClient(*handle.address, timeout=60.0) as client:
            for text in texts:  # warm pass
                client.publish(text)

            def publish_all():
                return [client.publish(text)[0] for text in texts]

            answers = benchmark.pedantic(publish_all, rounds=2, iterations=1)
        stats = handle.stats()
    engine.close()
    assert answers == direct_answers
    assert stats["publish_errors"] == 0
    print(
        f"\n{len(filters)} filters, {len(texts)} docs: "
        f"direct {direct_seconds:.3f}s, "
        f"wire p99 {stats['publish_latency']['p99_ms']:.1f} ms"
    )


if __name__ == "__main__":
    sys.exit(main())

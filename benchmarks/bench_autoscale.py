"""Cost-model placement vs blind CRC-32 hashing under a skewed workload.

The placement layer (``repro.service.placement``) routes filters to
shards by a per-filter cost — AFA state count weighted by estimated
selectivity — instead of hashing the oid.  This bench builds the
workload that CRC-32 is worst at: a **hot cluster** of predicate-heavy
filters (nested predicates, OR/NOT, descendant steps — the shapes
whose lazy-table construction dominates the machine's first mile)
whose oids all collide onto shard 0, plus a cheap long tail of short
absolute paths spread naturally across the ring.  Hash placement
stacks the whole cluster on one shard; cost placement spreads it with
LPT at boot and one live ``rebalance()`` keeps it spread once real
match-rate feedback lands.

What is timed is the **cold mile**: a freshly booted engine filtering
the stream, where the per-event cost is dominated by lazy XPush table
construction — the one phase whose per-shard cost genuinely scales
(super-linearly) with the filters placed there.  Once the tables are
warm the machine's shared-computation design makes per-filter marginal
cost vanish (that is the paper's point), so placement is measured
where placement matters.

The engines run in serial fallback (``parallel=False``), where the
sharded service records a **modeled critical path** per fan-out chunk:
the maximum per-shard busy time — what an ideally parallel run of that
placement would pay.  Gating on the model keeps the bench
host-independent (a 1-CPU CI box time-shares real processes, but the
per-shard busy clock doesn't care).

Gates:

- answers are identical under both placements on every document
  (placement moves work, never semantics);
- cost placement's modeled cold-mile throughput (documents per
  critical-path second) beats hash, and its critical-path p99 comes in
  below hash (the full run records the margins in
  ``BENCH_autoscale.json``; ``--quick`` is the CI smoke gate).

Entry points:

- ``python benchmarks/bench_autoscale.py [--quick] [--json PATH]``
- ``pytest benchmarks/bench_autoscale.py`` — pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.data import ProteinDataset
from repro.service import ShardedFilterEngine
from repro.service.placement import PLACEMENT_POLICIES, shard_of_oid
from repro.xpath.generator import GeneratorConfig, QueryGenerator

SHARDS = 4
QUICK_POOL, FULL_POOL = 140, 200
QUICK_DOCS, FULL_DOCS = 32, 48
#: Share of the pool forming the colliding hot cluster.
HOT_FRACTION = 0.3
#: Documents per fan-out chunk — each chunk is one critical-path sample.
BATCH_SIZE = 4
#: Fresh cold boots per policy, interleaved; the smallest reading of
#: each statistic wins — standard best-of-N to shed scheduler and GC noise.
PASSES = 3


def _collide_oid(index: int, shard: int, shards: int) -> str:
    """A deterministic oid that CRC-32 hashes onto *shard*."""
    salt = 0
    while True:
        oid = f"hot{index}_{salt}"
        if shard_of_oid(oid, shards) == shard:
            return oid
        salt += 1


def build_workload(pool: int, seed: int):
    """A skew-heavy workload: an expensive hot cluster (predicate-heavy
    shapes with costly lazy-table construction) whose oids all CRC-32
    collide onto shard 0, plus a cheap long tail of short absolute
    paths spread naturally across the ring."""
    dataset = ProteinDataset(seed=seed)
    hot_count = max(1, int(pool * HOT_FRACTION))
    hot_generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(
            seed=seed,
            mean_predicates=2.0,
            prob_descendant=0.5,
            prob_wildcard=0.3,
            prob_nested=0.3,
            prob_or=0.3,
            prob_not=0.2,
        ),
    )
    tail_generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(
            seed=seed + 1,
            mean_predicates=1.0,
            prob_descendant=0.0,
            prob_wildcard=0.0,
            prob_nested=0.0,
            prob_or=0.0,
            prob_not=0.0,
            prob_attribute_predicate=0.4,
        ),
    )
    filters = [
        dataclasses.replace(f, oid=_collide_oid(i, 0, SHARDS))
        for i, f in enumerate(hot_generator.generate(hot_count))
    ]
    filters += [
        dataclasses.replace(f, oid=f"tail{i}")
        for i, f in enumerate(tail_generator.generate(pool - hot_count))
    ]
    return dataset, filters, hot_count


def _cold_pass(filters, documents, dtd, placement: str, sample_docs):
    """One fresh boot + full stream: the cold mile for one placement.

    The stream runs in two halves with the single live ``rebalance()``
    between them — under cost placement the verb acts on the match
    rates observed during the first half; under hash there is no verb
    to call, which is exactly the point."""
    with ShardedFilterEngine(
        filters,
        SHARDS,
        dtd=dtd,
        batch_size=BATCH_SIZE,
        parallel=False,
        placement=placement,
        sample_documents=sample_docs if placement == "cost" else None,
    ) as engine:
        half = len(documents) // 2
        answers = engine.filter_batch(documents[:half])
        moves = len(engine.rebalance()) if placement == "cost" else 0
        answers += engine.filter_batch(documents[half:])
        stats = engine.stats()
    return answers, moves, stats


def measure(filters, documents, dtd, sample_docs) -> dict:
    """Best of ``PASSES`` cold boots per placement; modeled critical
    path.  The placements alternate inside every pass (hash, cost,
    hash, cost, …), so drift in the host's speed lands on both sides
    instead of on whichever was measured last; and since noise only
    ever adds time, each critical-path statistic is the least of its
    readings over the passes."""
    runs: dict[str, list] = {placement: [] for placement in PLACEMENT_POLICIES}
    for _ in range(PASSES):
        for placement in PLACEMENT_POLICIES:
            runs[placement].append(
                _cold_pass(filters, documents, dtd, placement, sample_docs)
            )
    out = {}
    for placement, passes in runs.items():
        criticals = [stats["critical_path_latency"] for _, _, stats in passes]
        critical = {key: min(c[key] for c in criticals) for key in criticals[0]}
        answers, moves, stats = min(
            passes, key=lambda run: run[2]["critical_path_latency"]["total_ms"]
        )
        seconds = critical["total_ms"] / 1000.0
        out[placement] = {
            "answers": answers,
            "moves": moves,
            "shard_load": stats["shard_load"],
            "imbalance": stats["imbalance"],
            "critical_path": critical,
            "modeled_docs_per_s": len(documents) / seconds if seconds else 0.0,
        }
    return out


def run(pool: int, docs: int, seed: int = 0, out=sys.stdout) -> dict:
    sample_docs = list(ProteinDataset(seed=seed).documents(min(docs, 16)))
    dataset, filters, hot_count = build_workload(pool, seed)
    documents = list(ProteinDataset(seed=seed + 1).documents(docs))
    print(
        f"workload: {len(filters)} filters ({hot_count} hot, colliding on "
        f"shard 0 of {SHARDS}) | stream: {len(documents)} protein documents, "
        f"filtered from cold boot",
        file=out,
    )
    header = (
        f"{'placement':<10}{'moves':>6}{'imbalance':>11}"
        f"{'docs/s*':>10}{'p50 ms*':>10}{'p99 ms*':>10}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    report: dict = {"filters": len(filters), "hot": hot_count,
                    "documents": docs, "shards": SHARDS, "policies": {}}
    results = measure(filters, documents, dataset.dtd, sample_docs)
    for placement, entry in results.items():
        print(
            f"{placement:<10}{entry['moves']:>6}{entry['imbalance']:>11.3f}"
            f"{entry['modeled_docs_per_s']:>10.1f}"
            f"{entry['critical_path']['p50_ms']:>10.3f}"
            f"{entry['critical_path']['p99_ms']:>10.3f}",
            file=out,
        )
        report["policies"][placement] = {
            key: value for key, value in entry.items() if key != "answers"
        }
    hash_entry, cost_entry = results["hash"], results["cost"]
    mismatches = sum(
        a != b for a, b in zip(hash_entry["answers"], cost_entry["answers"])
    )
    speedup = (
        cost_entry["modeled_docs_per_s"] / hash_entry["modeled_docs_per_s"]
        if hash_entry["modeled_docs_per_s"]
        else 0.0
    )
    print(
        f"{'':>10} cost placement x{speedup:.2f} modeled cold-mile "
        f"throughput, {mismatches} answer mismatches "
        f"(* = modeled ideal-parallel critical path)",
        file=out,
    )
    report["answer_mismatches"] = mismatches
    report["modeled_speedup"] = round(speedup, 2)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: {QUICK_POOL} filters, "
                             f"{QUICK_DOCS} documents")
    parser.add_argument("--pool", type=int)
    parser.add_argument("--docs", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    pool = args.pool or (QUICK_POOL if args.quick else FULL_POOL)
    docs = args.docs or (QUICK_DOCS if args.quick else FULL_DOCS)
    report = run(pool, docs, seed=args.seed)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    failures = []
    policies = report["policies"]
    if report["answer_mismatches"]:
        failures.append(
            f"{report['answer_mismatches']} documents answered differently "
            "under cost placement"
        )
    if (
        policies["cost"]["modeled_docs_per_s"]
        <= policies["hash"]["modeled_docs_per_s"]
    ):
        failures.append(
            f"cost placement modeled throughput "
            f"{policies['cost']['modeled_docs_per_s']:.1f} docs/s not above "
            f"hash {policies['hash']['modeled_docs_per_s']:.1f} docs/s"
        )
    if (
        policies["cost"]["critical_path"]["p99_ms"]
        >= policies["hash"]["critical_path"]["p99_ms"]
    ):
        failures.append(
            f"cost placement critical-path p99 "
            f"{policies['cost']['critical_path']['p99_ms']:.3f} ms not below "
            f"hash {policies['hash']['critical_path']['p99_ms']:.3f} ms"
        )
    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_cost_placement_beats_hash_under_skew(benchmark):
    """pytest-benchmark harness: the cost-placement cold mile."""
    seed = 0
    sample_docs = list(ProteinDataset(seed=seed).documents(8))
    dataset, filters, hot_count = build_workload(QUICK_POOL, seed)
    documents = list(ProteinDataset(seed=seed + 1).documents(QUICK_DOCS))
    assert hot_count > 1
    results = benchmark.pedantic(
        measure,
        args=(filters, documents, dataset.dtd, sample_docs),
        iterations=1,
        rounds=1,
    )
    cost, hash_entry = results["cost"], results["hash"]
    assert cost["answers"] == hash_entry["answers"]
    assert cost["imbalance"] <= hash_entry["imbalance"]
    assert cost["modeled_docs_per_s"] > hash_entry["modeled_docs_per_s"]


if __name__ == "__main__":
    raise SystemExit(main())

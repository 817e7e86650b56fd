"""Transition-computation throughput across the machine's runtimes.

The XPush machine's memoised *hit* path is representation-independent
(a dict probe either way); what the compiled bitmask tables buy is the
*miss* path — ``t_pop``/``t_badd``/``t_value``/``t_push`` computed from
scratch.  That cost dominates in exactly the regimes the paper worries
about: low hit ratios (Fig. 8) and large workloads (Figs. 6/10), where
most events touch a state/event pair for the first time.  The codegen
runtime specialises that same miss path further, compiling it to
straight-line Python per label.

This bench measures a baseline/contender pair (``sets`` vs ``bitmask``
by default; ``--runtime codegen`` measures ``bitmask`` vs ``codegen``)
on the same Protein stream across a sweep of workload sizes, in two
regimes:

- **cold** — ``reset_tables()`` before every document, so every
  transition is recomputed (hit ratio ≈ 0 across documents).  This
  isolates the compute path the bitmask rewrite targets.
- **warm** — a second pass over the same stream with tables intact;
  both runtimes should converge here because hits dominate.

Per-run, the transition counters give a per-computed-transition cost
(ns/transition) alongside document throughput, and the two runtimes'
answers are asserted identical — a perf run that diverges is a bug.

``sets`` is no runtime of the package: it is the frozenset reference
kernel of ``tests/oracle.py`` — the set algebra the compiled tables
replaced — patched into a bitmask machine, so the bench needs the repo
root on the path (``PYTHONPATH=src:.``).

Entry points:

- ``PYTHONPATH=src:. python benchmarks/bench_transitions.py [--quick]
  [--json PATH]`` — the CI smoke test.  ``--quick`` shrinks the sweep
  and **fails** unless the bitmask runtime is at least 2x the oracle
  (``sets``) on the cold path at the largest size (a host-independent
  relative gate); with ``--runtime codegen`` it only reports.
- ``pytest benchmarks/bench_transitions.py`` — pytest-benchmark
  harness at ``REPRO_BENCH_SCALE`` size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from repro.afa.build import build_workload_automata
from repro.bench.harness import stamp
from repro.bench.workloads import scaled, standard_stream, standard_workload
from repro.xmlstream.dom import parse_forest
from repro.xmlstream.parser import count_bytes
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from tests import oracle

TD = XPushOptions(top_down=True, precompute_values=False)

#: The acceptance gate: cold-path bitmask throughput vs sets, largest size.
QUICK_GATE_SPEEDUP = 2.0

#: ``--runtime`` value -> (baseline runtime, contender runtime); ``sets``
#: is the oracle kernel.
RUNTIME_PAIRS = {
    "bitmask": ("sets", "bitmask"),
    "codegen": ("bitmask", "codegen"),
}

QUICK_SIZES = (100, 250, 500)
FULL_SIZES = (500, 1_000, 2_000)


def _measure(fns, repeats: int) -> list[float]:
    """Best-of-*repeats* seconds per callable, interleaved (A, B, A, B,
    …): a host speed step mid-run then lands on every side instead of
    on whichever contender happened to be timed last."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def _transition_count(machine: XPushMachine) -> int:
    stats = machine.stats
    return (
        stats.pop_computed
        + stats.add_computed
        + stats.value_computed
        + stats.push_computed
    )


def _pass(machine: XPushMachine, documents, answers: list, cold: bool) -> None:
    """One pass over the stream; *cold* flushes the tables before every
    document so each transition is recomputed."""
    answers.clear()
    for document in documents:
        if cold:
            machine.reset_tables()
        answers.append(machine.filter_document(document))
    machine.clear_results()


def _run_pair(workload, runtimes, documents, repeats: int) -> dict:
    """Cold and warm measurements for one workload: ``runtime ->
    measured``, the runtimes timed interleaved within each regime."""
    machines = []
    for runtime in runtimes:
        with oracle.under(runtime):
            machines.append(XPushMachine(workload, oracle.options_for(TD, runtime)))
    answers: list[list] = [[] for _ in machines]
    n_docs = len(documents)
    measured: dict = {runtime: {"answers": {}} for runtime in runtimes}
    for regime, cold in (("cold", True), ("warm", False)):
        fns = [
            partial(_pass, machine, documents, out, cold)
            for machine, out in zip(machines, answers)
        ]
        for fn, machine in zip(fns, machines):
            # Cold: warm the allocator/index caches, not the tables.
            # Warm: build the tables once.
            fn()
            machine.stats.reset()
        timings = _measure(fns, repeats)
        for runtime, machine, seconds, got in zip(runtimes, machines, timings, answers):
            row = {
                "seconds": round(seconds, 4),
                "docs_per_s": round(n_docs / seconds, 1),
                "hit_ratio": round(machine.stats.hit_ratio, 4),
            }
            if regime == "cold":
                # Counters accumulated over `repeats` passes; per-pass share:
                per_pass = _transition_count(machine) / repeats
                row["transitions_per_pass"] = int(per_pass)
                row["ns_per_transition"] = round(seconds / per_pass * 1e9, 1)
            measured[runtime][regime] = row
            measured[runtime]["answers"][regime] = list(got)
    for runtime, machine in zip(runtimes, machines):
        measured[runtime]["states"] = machine.state_count
    return measured


def run(
    sizes,
    stream_bytes: int,
    repeats: int,
    runtimes: tuple[str, str] = ("sets", "bitmask"),
    out=sys.stdout,
) -> dict:
    baseline, contender = runtimes
    stream = standard_stream(stream_bytes)
    documents = parse_forest(stream)
    megabytes = count_bytes(stream) / 1e6
    print(
        f"stream: {megabytes:.2f} MB, {len(documents)} documents | "
        f"sizes: {list(sizes)} | repeats: {repeats} | "
        f"{contender} vs {baseline}",
        file=out,
    )
    header = (
        f"{'queries':>8}{'runtime':>9} | {'cold s':>8}{'docs/s':>9}"
        f"{'ns/trans':>10}{'hit%':>6} | {'warm s':>8}{'docs/s':>9}{'hit%':>6}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    results: dict = {
        "stream_mb": round(megabytes, 3),
        "documents": len(documents),
        "repeats": repeats,
        "baseline": baseline,
        "contender": contender,
        "sizes": {},
    }
    for queries in sizes:
        filters, _dataset = standard_workload(queries, mean_predicates=1.15)
        workload = build_workload_automata(filters)
        per_runtime = _run_pair(workload, runtimes, documents, repeats)
        for runtime in runtimes:
            cold, warm = per_runtime[runtime]["cold"], per_runtime[runtime]["warm"]
            print(
                f"{queries:>8}{runtime:>9} | {cold['seconds']:>8.3f}"
                f"{cold['docs_per_s']:>9.1f}{cold['ns_per_transition']:>10.1f}"
                f"{cold['hit_ratio'] * 100:>6.1f} | {warm['seconds']:>8.3f}"
                f"{warm['docs_per_s']:>9.1f}{warm['hit_ratio'] * 100:>6.1f}",
                file=out,
            )
        if per_runtime[contender]["answers"] != per_runtime[baseline]["answers"]:
            raise SystemExit(
                f"FATAL: runtimes disagree on answers at {queries} queries"
            )
        speedup = {
            regime: round(
                per_runtime[baseline][regime]["seconds"]
                / per_runtime[contender][regime]["seconds"],
                2,
            )
            for regime in ("cold", "warm")
        }
        print(
            f"{'':>8}{'speedup':>9} | cold x{speedup['cold']:.2f}, "
            f"warm x{speedup['warm']:.2f}, answers identical",
            file=out,
        )
        for measured in per_runtime.values():
            measured.pop("answers")  # oid-sets don't belong in the JSON
        results["sizes"][str(queries)] = {
            "runtimes": per_runtime,
            "speedup": speedup,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small sweep + relative gate "
                             f"(bitmask >= {QUICK_GATE_SPEEDUP}x sets, cold)")
    parser.add_argument("--runtime", choices=sorted(RUNTIME_PAIRS),
                        default="bitmask",
                        help="contender runtime: 'bitmask' measures sets vs "
                             "bitmask, 'codegen' measures bitmask vs codegen")
    parser.add_argument("--sizes", type=int, nargs="+",
                        help=f"workload sizes to sweep (default {list(FULL_SIZES)})")
    parser.add_argument("--bytes", type=int, default=400_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        sizes = QUICK_SIZES
        stream_bytes = 120_000
    else:
        sizes = tuple(args.sizes) if args.sizes else FULL_SIZES
        stream_bytes = args.bytes
    runtimes = RUNTIME_PAIRS[args.runtime]
    results = run(sizes, stream_bytes, args.repeats, runtimes=runtimes)
    if args.json:
        results["stamp"] = stamp()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    # Only sets-vs-bitmask is gated: codegen is decided-dead code
    # (ROADMAP "Decided"), so its pair is a report row.
    if args.quick and args.runtime == "bitmask":
        gate = QUICK_GATE_SPEEDUP
        largest = str(max(sizes))
        speedup = results["sizes"][largest]["speedup"]["cold"]
        if speedup < gate:
            print(
                f"FAIL: cold-path {args.runtime} speedup x{speedup:.2f} at "
                f"{largest} queries is below the x{gate} gate",
                file=sys.stderr,
            )
            return 1
        print(
            f"gate ok: cold-path {args.runtime} x{speedup:.2f} >= "
            f"x{gate} at {largest} queries"
        )
    return 0


def test_transition_cold_path(benchmark):
    """pytest-benchmark harness variant at REPRO_BENCH_SCALE size."""
    filters, _dataset = standard_workload(
        scaled(50_000, minimum=200), mean_predicates=1.15
    )
    workload = build_workload_automata(filters)
    documents = parse_forest(standard_stream(scaled(9_120_000, minimum=100_000)))

    def cold_pass(machine):
        for document in documents:
            machine.reset_tables()
            machine.filter_document(document)
        machine.clear_results()

    bitmask = XPushMachine(workload, TD)
    with oracle.oracle_kernel():
        sets_machine = XPushMachine(workload, TD)
    cold_pass(bitmask)  # warm allocator + index
    benchmark.pedantic(lambda: cold_pass(bitmask), rounds=3, iterations=1)
    bitmask_seconds, sets_seconds = _measure(
        [lambda: cold_pass(bitmask), lambda: cold_pass(sets_machine)], 1
    )
    print(
        f"\ncold pass: sets {sets_seconds:.3f}s vs bitmask {bitmask_seconds:.3f}s "
        f"(x{sets_seconds / bitmask_seconds:.2f})"
    )
    assert bitmask_seconds <= sets_seconds


if __name__ == "__main__":
    sys.exit(main())

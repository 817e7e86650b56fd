"""Soak benchmark: bounded-memory streaming, clock eviction vs full flush.

Sec. 6 observes that states grow linearly with the number of documents
("we need some form of memory management in order to process infinite
streams") and Sec. 7 frames the machine as a cache whose states "can be
deleted when we run out of memory and recomputed later".  The brute
force realisation of that idea — flush everything when the bound is
crossed — periodically throws away the entire warmed table set and
re-pays the whole cold path.  The incremental memory manager
(``max_memory_bytes``, a CLOCK sweep) instead evicts only the memo
tables of states that went cold since the last sweep, so the hot
working set (and the Fig. 8 hit ratio) survives the bound.

This bench runs one workload over the same Protein *locality* stream
(recurring hot documents plus an ever-growing tail of novel ones — the
Sec. 6 infinite-stream shape; see ``locality_stream``) three ways —
unbounded, bounded+flush, bounded+clock — at the *same* memory bound.
The flush baseline is an unbounded machine this script flushes itself
(``reset_tables()`` at the first document boundary past the bound).
It checks:

- answers are identical in all three modes (eviction is invisible to
  correctness);
- the post-sweep ``resident_bytes`` gauge stays under the bound at
  every document boundary, for both policies;
- clock eviction is at least as fast as full flush (``--quick`` CI
  gate), and the recorded full run shows the x1.3 speedup the
  incremental design is for.

Entry points:

- ``python benchmarks/bench_memory.py [--quick] [--json PATH]`` — the
  CI smoke test.  ``--quick`` shrinks the workload and gates on
  bounded residency + clock >= flush throughput, each mode timed as
  the best of ``--repeats`` passes like the full run, the modes taking
  turns pass by pass (one ~50 ms pass, or one mode's passes back to
  back, is too noisy on a shared host to gate on); the full run gates on
  the stronger x1.3 speedup and is what ``BENCH_memory.json`` records.
- ``pytest benchmarks/bench_memory.py`` — pytest-benchmark harness at
  ``REPRO_BENCH_SCALE`` size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from repro.afa.build import build_workload_automata
from repro.bench.workloads import locality_stream, scaled, standard_workload
from repro.xmlstream.parser import count_bytes
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

TD = XPushOptions(top_down=True, retain_results=False)

#: CI smoke gate: clock eviction must not be slower than full flush.
QUICK_GATE_SPEEDUP = 1.0

#: Full-run gate, recorded in BENCH_memory.json: the incremental sweep
#: must beat the flush-everything policy by this factor.
FULL_GATE_SPEEDUP = 1.3

#: The memory bound, as a fraction of the unbounded machine's resident
#: bytes — low enough that the bound is crossed repeatedly, high enough
#: that a working set fits.
BOUND_FRACTION = 0.35

#: Floor for the derived bound (seeds + registers + a minimal table set
#: must fit, or "flush" livelocks into flushing every document).
MIN_BOUND_BYTES = 64 * 1024

QUICK_QUERIES = 300
FULL_QUERIES = 2_000


class _Soak:
    """One machine over the stream: a convergence pass at construction,
    then one measured pass per :meth:`timed_pass` call.  Samples the
    post-management ``resident_bytes`` gauge at every document boundary
    of every pass.  With *flush_above* the machine's tables are flushed
    at every boundary that finds more resident bytes than that — the
    paper's "delete and recompute"."""

    def __init__(
        self, workload, options: XPushOptions, stream: str, flush_above: int | None = None
    ):
        self.machine = machine = XPushMachine(workload, options)
        self.stream = stream
        self.samples: list[int] = []
        self.flushes = 0
        self.best = float("inf")
        self.answers: list = []

        def boundary(index, oids) -> None:
            # stats.resident_bytes is refreshed after the previous
            # boundary's management step (the machine's sweep, or the
            # flush below), so each callback samples a post-management
            # value.
            self.samples.append(machine.stats.resident_bytes)
            if flush_above is not None and machine.resident_bytes > flush_above:
                machine.reset_tables()
                self.flushes += 1

        machine.on_result = boundary
        machine.filter_stream(stream)  # convergence pass (pays the cold path)
        machine.stats.reset()
        self.flushes = 0

    def timed_pass(self) -> None:
        started = time.perf_counter()
        self.answers = self.machine.filter_stream(self.stream)
        self.best = min(self.best, time.perf_counter() - started)

    def result(self) -> dict:
        machine = self.machine
        stats = machine.stats
        return {
            "seconds": self.best,
            "answers": self.answers,
            "max_resident": max([*self.samples, stats.resident_bytes]),
            "final_resident": machine.store.resident_bytes,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evictions,
            "flushes": self.flushes,
            "gc_states": stats.gc_states,
            "states": machine.state_count,
        }


def run(queries: int, stream_bytes: int, repeats: int, out=sys.stdout) -> dict:
    stream = locality_stream(stream_bytes)
    megabytes = count_bytes(stream) / 1e6
    filters, _dataset = standard_workload(queries, mean_predicates=1.15)
    workload = build_workload_automata(filters)

    unbounded = _Soak(workload, TD, stream)
    converged = unbounded.machine.store.resident_bytes
    bound = max(MIN_BOUND_BYTES, int(converged * BOUND_FRACTION))
    soaks = {
        "unbounded": unbounded,
        "flush": _Soak(workload, TD, stream, flush_above=bound),
        "clock": _Soak(workload, replace(TD, max_memory_bytes=bound), stream),
    }
    # The modes take turns pass by pass, so a slow spell on a shared
    # host lands on all of them rather than on one mode's passes.
    for _ in range(repeats):
        for soak in soaks.values():
            soak.timed_pass()
    modes = {name: soak.result() for name, soak in soaks.items()}
    documents = len(modes["unbounded"]["answers"])
    print(
        f"workload: {queries} queries | stream: {megabytes:.2f} MB, "
        f"{documents} documents | unbounded resident: "
        f"{modes['unbounded']['final_resident']} B | bound: {bound} B "
        f"({bound / max(modes['unbounded']['final_resident'], 1):.0%})",
        file=out,
    )

    header = (
        f"{'mode':>10} | {'s/pass':>8}{'MB/s':>8}{'hit%':>7}"
        f"{'max res B':>11}{'evict':>7}{'flush':>6}{'gc':>6}{'states':>7}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, measured in modes.items():
        print(
            f"{name:>10} | {measured['seconds']:>8.3f}"
            f"{megabytes / measured['seconds']:>8.2f}"
            f"{measured['hit_ratio'] * 100:>7.1f}{measured['max_resident']:>11}"
            f"{measured['evictions']:>7}{measured['flushes']:>6}"
            f"{measured['gc_states']:>6}{measured['states']:>7}",
            file=out,
        )

    for policy in ("flush", "clock"):
        if modes[policy]["answers"] != modes["unbounded"]["answers"]:
            raise SystemExit(
                f"FATAL: {policy}-bounded answers differ from unbounded"
            )
    speedup = modes["flush"]["seconds"] / modes["clock"]["seconds"]
    print(
        f"{'':>10} | clock x{speedup:.2f} vs flush, answers identical",
        file=out,
    )

    results: dict = {
        "queries": queries,
        "stream_mb": round(megabytes, 3),
        "documents": documents,
        "repeats": repeats,
        "bound_bytes": bound,
        "speedup_clock_vs_flush": round(speedup, 2),
        "modes": {},
    }
    for name, measured in modes.items():
        entry = dict(measured)
        entry.pop("answers")  # oid-sets don't belong in the JSON
        entry["seconds"] = round(entry["seconds"], 4)
        entry["hit_ratio"] = round(entry["hit_ratio"], 4)
        entry["docs_per_s"] = round(documents / measured["seconds"], 1)
        entry["bounded"] = name != "unbounded" and entry["max_resident"] <= bound
        results["modes"][name] = entry
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small workload + gates "
                             f"(bounded residency, clock >= "
                             f"x{QUICK_GATE_SPEEDUP} flush)")
    parser.add_argument("--queries", type=int,
                        help=f"workload size (default {FULL_QUERIES})")
    parser.add_argument("--bytes", type=int, default=600_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        queries = args.queries or QUICK_QUERIES
        stream_bytes = 400_000
    else:
        queries = args.queries or FULL_QUERIES
        stream_bytes = args.bytes
    results = run(queries, stream_bytes, args.repeats)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    failures = []
    bound = results["bound_bytes"]
    for policy in ("flush", "clock"):
        measured = results["modes"][policy]
        if measured["max_resident"] > bound:
            failures.append(
                f"{policy}: resident {measured['max_resident']} B exceeded "
                f"the {bound} B bound"
            )
    gate = QUICK_GATE_SPEEDUP if args.quick else FULL_GATE_SPEEDUP
    speedup = results["speedup_clock_vs_flush"]
    if speedup < gate:
        failures.append(
            f"clock x{speedup:.2f} vs flush is below the x{gate} gate"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"gate ok: resident bounded at {bound} B in both policies, "
        f"clock x{speedup:.2f} >= x{gate} vs flush"
    )
    return 0


def test_memory_clock_eviction(benchmark):
    """pytest-benchmark harness variant at REPRO_BENCH_SCALE size."""
    filters, _dataset = standard_workload(
        scaled(50_000, minimum=150), mean_predicates=1.15
    )
    workload = build_workload_automata(filters)
    stream = locality_stream(scaled(20_000_000, minimum=120_000))

    unbounded = XPushMachine(workload, TD)
    baseline = unbounded.filter_stream(stream)
    bound = max(
        MIN_BOUND_BYTES, int(unbounded.store.resident_bytes * BOUND_FRACTION)
    )
    machine = XPushMachine(workload, replace(TD, max_memory_bytes=bound))
    assert machine.filter_stream(stream) == baseline
    assert machine.stats.resident_bytes <= bound
    benchmark.pedantic(
        lambda: machine.filter_stream(stream), rounds=3, iterations=1
    )


if __name__ == "__main__":
    sys.exit(main())

"""Update-latency benchmark: layered insertion vs brute-force rebuild.

Sec. 8's point is that supporting filter updates by recompiling the
machine is "equivalent to flushing an entire cache": every insertion
pays the full workload compile and throws away every warmed lazy
table.  The layered engine instead compiles the one new filter on top
of the delta layer — the resident base machine (and everything it
learned) survives untouched — and a fold appends the delta to the
base, whose memoised states stay reachable through its predecessor
store.

This bench grows a resident workload by one filter at a time, both
ways, and after **every** insertion checks the two engines against
each other on the same Protein stream:

- **layered** — ``LayeredFilterEngine.insert``; the timed cost is
  parsing the new filter and compiling its one AFA into the delta;
- **rebuild** — recompile the whole workload from source, the
  brute-force strategy of the serial engine.

A second phase fills a delta to ``compact_threshold`` = 64 without
reading in between, lets the 64th insertion fold it, and replays the
stream.

Gates:

- answers are identical at every insertion epoch (differential, not
  just at the end), and after the fold;
- the warmed base layer's lazy tables survive every insertion
  (``base_states`` never shrinks — a flush would reset them);
- mean insert latency: layered must beat rebuild by x5 in ``--quick``
  CI mode at 1 000 resident filters, and by x25 in the full run that
  ``BENCH_updates.json`` records;
- insert latency does not grow with the delta: the mean of insertions
  49–63 is within x2 of the mean of insertions 1–15 (a ratio of two
  timings on one host, so host-independent);
- a fold leaves the base's memoised work reachable: on the replay the
  predecessor store answers misses (``carried`` > 0) and fewer than
  half as many misses go whole to the kernel as in a brute-force
  rebuild (counts, so they repeat exactly).

Entry points:

- ``python benchmarks/bench_updates.py [--quick] [--json PATH]`` — the
  CI gate / recorded run.
- ``pytest benchmarks/bench_updates.py`` — pytest-benchmark harness at
  ``REPRO_BENCH_SCALE`` size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.afa.build import build_workload_automata
from repro.bench.harness import stamp
from repro.bench.workloads import scaled, standard_stream, standard_workload
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

TD = XPushOptions(top_down=True, retain_results=False)

#: CI smoke gate at QUICK_RESIDENT filters (the measured gap is two
#: orders of magnitude; x5 keeps the gate robust on noisy runners).
QUICK_GATE_SPEEDUP = 5.0

#: Full-run gate, recorded in BENCH_updates.json.
FULL_GATE_SPEEDUP = 25.0

QUICK_RESIDENT, QUICK_INSERTS = 1_000, 8
FULL_RESIDENT, FULL_INSERTS = 2_000, 12

STREAM_BYTES = 60_000

#: The fold phase: the engine's default threshold, and how much later
#: insertions into a filling delta may cost than the first ones.
FOLD_THRESHOLD = 64
GROWTH_GATE = 2.0


def run(resident: int, inserts: int, repeats: int, out=sys.stdout) -> dict:
    filters, _dataset = standard_workload(resident + inserts)
    base, extra = filters[:resident], filters[resident:]
    stream = standard_stream(STREAM_BYTES)

    layered = LayeredFilterEngine(base, options=TD, compact_threshold=inserts + 1)
    layered.filter_stream(stream)  # warm the base layer's lazy tables
    warmed_base_states = layered.stats()["base_states"]

    insert_times: list[float] = []
    rebuild_times: list[float] = []
    mismatches = 0
    flushed = False
    for index, new in enumerate(extra, start=1):
        started = time.perf_counter()
        layered.subscribe(new.oid, new.source)
        insert_times.append(time.perf_counter() - started)

        best = float("inf")
        rebuilt = None
        for _ in range(repeats):
            started = time.perf_counter()
            rebuilt = XPushMachine(
                build_workload_automata(base + extra[:index]), TD
            )
            best = min(best, time.perf_counter() - started)
        rebuild_times.append(best)

        if layered.filter_stream(stream) != rebuilt.filter_stream(stream):
            mismatches += 1
        if layered.stats()["base_states"] < warmed_base_states:
            flushed = True

    insert_mean = sum(insert_times) / len(insert_times)
    rebuild_mean = sum(rebuild_times) / len(rebuild_times)
    speedup = rebuild_mean / insert_mean
    final = layered.stats()

    header = (
        f"{'strategy':>10} | {'mean ms':>9}{'min ms':>9}{'max ms':>9}"
    )
    print(
        f"resident: {resident} filters | {inserts} insertions | "
        f"stream: {len(stream.encode('utf-8'))} B | "
        f"warmed base states: {warmed_base_states}",
        file=out,
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, times in (("layered", insert_times), ("rebuild", rebuild_times)):
        print(
            f"{name:>10} | {1e3 * sum(times) / len(times):>9.3f}"
            f"{1e3 * min(times):>9.3f}{1e3 * max(times):>9.3f}",
            file=out,
        )
    print(
        f"{'':>10} | layered x{speedup:.1f} vs rebuild, "
        f"{mismatches} answer mismatches, base "
        f"{'FLUSHED' if flushed else 'intact'} "
        f"({final['base_states']} states, {final['delta_states']} delta)",
        file=out,
    )

    return {
        "resident": resident,
        "inserts": inserts,
        "repeats": repeats,
        "stream_bytes": len(stream.encode("utf-8")),
        "insert_mean_s": round(insert_mean, 6),
        "insert_max_s": round(max(insert_times), 6),
        "rebuild_mean_s": round(rebuild_mean, 6),
        "speedup_layered_vs_rebuild": round(speedup, 1),
        "answer_mismatches": mismatches,
        "base_flushed": flushed,
        "warmed_base_states": warmed_base_states,
        "final_base_states": final["base_states"],
        "final_delta_states": final["delta_states"],
    }


def _whole_sweeps(machine: XPushMachine) -> int:
    """Pop and push misses that went to the kernel with the whole mask."""
    stats = machine.stats
    return stats.pop_computed + stats.push_computed - stats.carried


def run_fold(resident: int, out=sys.stdout) -> dict:
    """Fill a delta to the fold, timing every insertion; then replay
    the stream through the folded engine and through a rebuild."""
    filters, _dataset = standard_workload(resident + FOLD_THRESHOLD)
    base, extra = filters[:resident], filters[resident:]
    stream = standard_stream(STREAM_BYTES)
    layered = LayeredFilterEngine(base, options=TD, compact_threshold=FOLD_THRESHOLD)
    layered.filter_stream(stream)
    times: list[float] = []
    for new in extra:
        started = time.perf_counter()
        layered.subscribe(new.oid, new.source)
        times.append(time.perf_counter() - started)
    folded = layered.stats()["compactions"] == 1 and layered._delta is None
    early = sum(times[:15]) / 15
    late = sum(times[48:63]) / 15
    before = _whole_sweeps(layered._base)
    answers = layered.filter_stream(stream)
    rebuilt = XPushMachine(build_workload_automata(filters), TD)
    same = answers == rebuilt.filter_stream(stream)
    carried = layered.stats()["carried"]
    whole = _whole_sweeps(layered._base) - before
    brute = _whole_sweeps(rebuilt)
    print(
        f"fold at {FOLD_THRESHOLD}: insertions 1-15 {1e3 * early:.3f} ms, "
        f"49-63 {1e3 * late:.3f} ms (x{late / early:.2f}), fold "
        f"{1e3 * times[-1]:.1f} ms | replay: {carried} misses carried, "
        f"{whole} whole sweeps vs {brute} after a rebuild, answers "
        f"{'equal' if same else 'DIFFER'}",
        file=out,
    )
    return {
        "fold_threshold": FOLD_THRESHOLD,
        "folded_by_last_insert": folded,
        "insert_1_15_mean_s": round(early, 6),
        "insert_49_63_mean_s": round(late, 6),
        "insert_growth": round(late / early, 2),
        "fold_s": round(times[-1], 6),
        "post_fold_carried": carried,
        "post_fold_whole_sweeps": whole,
        "rebuild_whole_sweeps": brute,
        "post_fold_answers_equal": same,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: "
                             f"{QUICK_RESIDENT} resident filters, gate at "
                             f"x{QUICK_GATE_SPEEDUP}")
    parser.add_argument("--resident", type=int,
                        help=f"resident workload size (default {FULL_RESIDENT})")
    parser.add_argument("--inserts", type=int,
                        help=f"insertions to measure (default {FULL_INSERTS})")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        resident = args.resident or QUICK_RESIDENT
        inserts = args.inserts or QUICK_INSERTS
        repeats = 1
        gate = QUICK_GATE_SPEEDUP
    else:
        resident = args.resident or FULL_RESIDENT
        inserts = args.inserts or FULL_INSERTS
        repeats = args.repeats
        gate = FULL_GATE_SPEEDUP
    results = run(resident, inserts, repeats)
    results["gate_speedup"] = gate
    results.update(run_fold(resident))
    if args.json:
        results["stamp"] = stamp()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    failures = []
    if results["answer_mismatches"]:
        failures.append(
            f"{results['answer_mismatches']} insertion epochs answered "
            "differently from the rebuilt engine"
        )
    if results["base_flushed"]:
        failures.append("an insertion flushed the warmed base layer")
    if results["speedup_layered_vs_rebuild"] < gate:
        failures.append(
            f"layered insert only x{results['speedup_layered_vs_rebuild']} "
            f"vs rebuild (gate x{gate})"
        )
    if not (results["folded_by_last_insert"] and results["post_fold_answers_equal"]):
        failures.append("the fold did not happen, or changed the answers")
    if results["insert_growth"] > GROWTH_GATE:
        failures.append(
            f"insertions 49-63 cost x{results['insert_growth']} of insertions "
            f"1-15 (gate x{GROWTH_GATE}): insert latency grows with the delta"
        )
    if not results["post_fold_carried"] or (
        2 * results["post_fold_whole_sweeps"] >= results["rebuild_whole_sweeps"]
    ):
        failures.append(
            f"the fold left the base cold: {results['post_fold_carried']} carried, "
            f"{results['post_fold_whole_sweeps']} whole sweeps vs "
            f"{results['rebuild_whole_sweeps']} after a rebuild"
        )
    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_layered_insert_beats_rebuild(benchmark):
    """pytest-benchmark harness: one insertion into a warmed workload."""
    resident = scaled(100_000, minimum=200)
    filters, _dataset = standard_workload(resident + 1)
    engine = LayeredFilterEngine(filters[:resident], options=TD)
    engine.filter_stream(standard_stream(20_000))
    new = filters[resident]

    def insert_and_undo():
        engine.subscribe(new.oid, new.source)
        engine.unsubscribe(new.oid)

    benchmark(insert_and_undo)
    assert engine.filter_count == resident


if __name__ == "__main__":
    raise SystemExit(main())

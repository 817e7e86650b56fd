"""First-match latency: event-time vs document-time answering.

Sec. 5's early notification decides a filter at the earliest event
where no continuation can change the outcome.  The `on_match` hook
surfaces that decision the moment it happens, so a consumer's
first-match latency is bounded by the *deciding event*, not by the
document end.  This bench measures the gap on multi-thousand-event
NASA and Protein documents:

- **event-time** — ``early=True`` machine, latency from document start
  to the first ``on_match`` fire;
- **document-time** — same workload with ``early=False``: nothing is
  decided before the end-document callback, so the first fire lands
  after the whole document has been scanned.

Percentiles come from the same :class:`LatencyTracker` the serving
tier reports, over the documents that matched at least one filter.

Gates:

- answers are identical in both modes on every document (the hook is
  observability, never a semantics knob);
- event-time p99 must come in strictly below document-time p99 on
  every dataset (the full run records the margin in
  ``BENCH_latency.json``; ``--quick`` is the CI smoke gate).

Entry points:

- ``python benchmarks/bench_latency.py [--quick] [--json PATH]``
- ``pytest benchmarks/bench_latency.py`` — pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.afa.build import build_workload_automata
from repro.data import NasaDataset, ProteinDataset
from repro.service.latency import LatencyTracker
from repro.xmlstream.events import events_of_document
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

EVENT_TIME = XPushOptions(top_down=True, early=True, retain_results=False)
DOCUMENT_TIME = XPushOptions(top_down=True, early=False, retain_results=False)

QUICK_DOCS, FULL_DOCS = 12, 48
QUICK_QUERIES, FULL_QUERIES = 60, 150

#: Document generation: fatter repetitions than the dataset defaults so
#: each document carries thousands of events — the regime where the
#: deciding-event-to-document-end gap is worth closing.
REPEAT_MEAN = 8.0
OPTIONAL_PROBABILITY = 0.9
MAX_DEPTH = 8


def _dataset(name: str, seed: int):
    return {"protein": ProteinDataset, "nasa": NasaDataset}[name](seed=seed)


def _documents(dataset, count: int, seed: int):
    rng = random.Random(seed)
    return [
        dataset.dtd.generate(
            rng,
            dataset._drawer.text_for,
            repeat_mean=REPEAT_MEAN,
            optional_probability=OPTIONAL_PROBABILITY,
            max_depth=MAX_DEPTH,
        )
        for _ in range(count)
    ]


def _workload(dataset, queries: int, seed: int):
    generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(
            seed=seed,
            mean_predicates=1.15,
            prob_descendant=0.1,
            prob_attribute_predicate=0.3,
        ),
    )
    return generator.generate(queries)


def _first_match_pass(workload, options, documents, dtd):
    """One timed pass: per-document first-fire latency + answers."""
    machine = XPushMachine(workload, options, dtd=dtd)
    for doc in documents:  # warm the lazy tables off the clock
        machine.filter_document(doc)
    tracker = LatencyTracker(window=len(documents) + 1)
    first: list[float] = []

    def _hook(_oid: str, _doc: int, _event: int) -> None:
        if not first:
            first.append(time.perf_counter())

    machine.on_match = _hook
    answers = []
    matched_docs = 0
    for doc in documents:
        first.clear()
        started = time.perf_counter()
        answers.append(machine.filter_document(doc))
        if first:
            matched_docs += 1
            tracker.record(first[0] - started)
    machine.on_match = None
    return answers, tracker.snapshot(), matched_docs


def run(datasets, queries: int, docs: int, seed: int = 0, out=sys.stdout) -> dict:
    report: dict = {"queries": queries, "documents": docs, "datasets": {}}
    header = f"{'dataset':>8} | {'mode':>13} | {'p50 ms':>9}{'p90 ms':>9}{'p99 ms':>9}"
    for name in datasets:
        dataset = _dataset(name, seed)
        documents = _documents(dataset, docs, seed=seed + 1)
        events = sum(len(list(events_of_document(d))) for d in documents)
        workload = build_workload_automata(_workload(dataset, queries, seed))
        event_answers, event_lat, event_matched = _first_match_pass(
            workload, EVENT_TIME, documents, dataset.dtd
        )
        doc_answers, doc_lat, doc_matched = _first_match_pass(
            workload, DOCUMENT_TIME, documents, dataset.dtd
        )
        mismatches = sum(a != b for a, b in zip(event_answers, doc_answers))
        print(
            f"{name}: {docs} documents, {events} events, "
            f"{queries} queries, {event_matched} matched",
            file=out,
        )
        print(header, file=out)
        print("-" * len(header), file=out)
        for mode, lat in (("event-time", event_lat), ("document-time", doc_lat)):
            print(
                f"{name:>8} | {mode:>13} | {lat['p50_ms']:>9.3f}"
                f"{lat['p90_ms']:>9.3f}{lat['p99_ms']:>9.3f}",
                file=out,
            )
        speedup = (
            doc_lat["p99_ms"] / event_lat["p99_ms"] if event_lat["p99_ms"] else 0.0
        )
        print(
            f"{'':>8} | event-time p99 x{speedup:.1f} earlier, "
            f"{mismatches} answer mismatches",
            file=out,
        )
        report["datasets"][name] = {
            "total_events": events,
            "matched_documents": event_matched,
            "answer_mismatches": mismatches,
            "event_time": event_lat,
            "document_time": doc_lat,
            "p99_speedup": round(speedup, 1),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: {QUICK_DOCS} documents, "
                             f"{QUICK_QUERIES} queries per dataset")
    parser.add_argument("--datasets", nargs="+", default=["nasa", "protein"],
                        choices=["nasa", "protein"])
    parser.add_argument("--queries", type=int)
    parser.add_argument("--docs", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    queries = args.queries or (QUICK_QUERIES if args.quick else FULL_QUERIES)
    docs = args.docs or (QUICK_DOCS if args.quick else FULL_DOCS)
    report = run(args.datasets, queries, docs, seed=args.seed)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    failures = []
    for name, entry in report["datasets"].items():
        if entry["answer_mismatches"]:
            failures.append(
                f"{name}: {entry['answer_mismatches']} documents answered "
                "differently with early notification"
            )
        if not entry["matched_documents"]:
            failures.append(f"{name}: no document matched — nothing measured")
        elif entry["event_time"]["p99_ms"] >= entry["document_time"]["p99_ms"]:
            failures.append(
                f"{name}: event-time p99 {entry['event_time']['p99_ms']:.3f} ms "
                f"not below document-time p99 "
                f"{entry['document_time']['p99_ms']:.3f} ms"
            )
    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_event_time_first_match_beats_document_time(benchmark):
    """pytest-benchmark harness: the event-time pass over NASA."""
    dataset = _dataset("nasa", 0)
    documents = _documents(dataset, QUICK_DOCS, seed=1)
    workload = build_workload_automata(_workload(dataset, QUICK_QUERIES, 0))
    answers, event_lat, matched = benchmark(
        _first_match_pass, workload, EVENT_TIME, documents, dataset.dtd
    )
    doc_answers, doc_lat, _ = _first_match_pass(
        workload, DOCUMENT_TIME, documents, dataset.dtd
    )
    assert answers == doc_answers
    assert matched > 0
    assert event_lat["p99_ms"] < doc_lat["p99_ms"]


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Selective dissemination of information (SDI) at workload scale.

The paper's core claim is about *scale*: thousands of filters, many
predicates each, one pass over the stream.  This example builds a
workload of user profiles against the synthetic Protein dataset with
the paper's generator settings (predicates drawn from real data
values), runs one XPush machine over a stream, and contrasts the cost
with the per-query baseline on the same workload.

Run:  python examples/selective_dissemination.py
"""

import time

from repro import GeneratorConfig, QueryGenerator, XPushMachine, XPushOptions
from repro.afa.build import build_workload_automata
from repro.baselines import PerQueryEngine
from repro.data import ProteinDataset
from repro.xpath.ast import count_atomic_predicates

PROFILES = 400
PACKETS = 40


def main() -> None:
    dataset = ProteinDataset(seed=7)
    generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(seed=1, mean_predicates=3.0, prob_inequality=0.2),
    )
    profiles = generator.generate(PROFILES, oid_prefix="user")
    atoms = sum(count_atomic_predicates(p.path) for p in profiles)
    print(f"{PROFILES} user profiles, {atoms} atomic predicates "
          f"({atoms / PROFILES:.2f}/profile)")
    print("sample profiles:")
    for profile in profiles[:3]:
        print(f"  {profile.oid}: {profile.source}")

    documents = list(dataset.documents(PACKETS))
    workload = build_workload_automata(profiles)

    # --- the XPush machine: one pass, shared predicates --------------
    machine = XPushMachine(
        workload, XPushOptions(top_down=True), dtd=dataset.dtd
    )
    start = time.perf_counter()
    xpush_answers = [machine.filter_document(doc) for doc in documents]
    xpush_seconds = time.perf_counter() - start

    # --- the no-sharing baseline on a slice of the stream ------------
    baseline = PerQueryEngine(profiles)
    sample = documents[: max(2, PACKETS // 10)]
    start = time.perf_counter()
    baseline_answers = [baseline.filter_document(doc) for doc in sample]
    baseline_seconds = (time.perf_counter() - start) * (len(documents) / len(sample))

    assert baseline_answers == xpush_answers[: len(sample)]

    notified = sum(len(a) for a in xpush_answers)
    print(f"\n{PACKETS} packets filtered; {notified} notifications issued")
    print(f"XPush machine        : {xpush_seconds:.2f}s "
          f"({machine.state_count} states, hit ratio {machine.stats.hit_ratio:.1%})")
    print(f"per-query baseline   : ~{baseline_seconds:.2f}s (extrapolated)")
    print(f"speedup              : {baseline_seconds / xpush_seconds:.1f}x")


if __name__ == "__main__":
    main()

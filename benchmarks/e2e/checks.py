"""Answer checks run by the same command that measures.

Two references, both on a fixed, seed-chosen sample of documents:

- the ground-truth evaluator :func:`repro.xpath.semantics.matching_oids`
  on 32 documents.  It is quadratic-ish (every filter walks the DOM), so
  each document is checked against a random subset of the live filters
  sized to a fixed filter x kilobyte budget — all 2000 filters of a
  1.6 KB Protein document would fit five times, a 45 KB NASA document
  gets a few dozen;
- a serial ``xpush`` engine over the same filters on 64 documents, for
  the workloads whose engine is something else (layered under churn,
  sharded, served).  Filters answer independently of one another, so
  under churn the expected answer is the reference's answer over *all*
  filters cut down to the set that was live when the document ran.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.engine import EngineConfig, create_engine
from repro.xpath.semantics import matching_oids
from workloads import Inputs

ORACLE_DOCS = 32
REFERENCE_DOCS = 64
ORACLE_FILTER_KB = 600


def sample(count: int, wanted: int) -> list[int]:
    """*wanted* evenly spaced indices below *count* (all, if fewer)."""
    if count <= wanted:
        return list(range(count))
    return [i * count // wanted for i in range(wanted)]


def _live(inputs: Inputs, live_at: list[frozenset[str]] | None, index: int) -> frozenset[str]:
    if live_at is None:
        return frozenset(inputs.sources)
    return live_at[index // inputs.spec.update_every]


def oracle_check(
    inputs: Inputs, answers: list[frozenset[str]], live_at: list[frozenset[str]] | None = None
) -> tuple[int, int]:
    """``(attempted, failed)`` against the ground-truth evaluator."""
    rng = random.Random(inputs.seed)
    failed = 0
    indices = sample(len(answers), ORACLE_DOCS)
    for index in indices:
        live = sorted(_live(inputs, live_at, index))
        room = max(8, int(ORACLE_FILTER_KB * 1024 / inputs.doc_bytes[index]))
        chosen = live if room >= len(live) else rng.sample(live, room)
        expected = matching_oids((inputs.parsed[oid] for oid in chosen), inputs.doms[index])
        failed += expected != answers[index] & set(chosen)
    return len(indices), failed


def reference_check(
    inputs: Inputs,
    answers: list[frozenset[str]],
    extra: dict[str, str] | None = None,
    live_at: list[frozenset[str]] | None = None,
) -> tuple[int, int]:
    """``(attempted, failed)`` against a serial ``xpush`` engine over
    ``inputs.sources`` plus *extra*."""
    config = replace(EngineConfig(), engine="xpush", options=inputs.config.options)
    engine = create_engine(config, {**inputs.sources, **(extra or {})})
    failed = 0
    indices = sample(len(answers), REFERENCE_DOCS)
    try:
        for index in indices:
            expected = engine.filter_stream(inputs.docs[index])[0]
            if live_at is not None:
                expected &= _live(inputs, live_at, index)
            failed += expected != answers[index]
    finally:
        engine.close()
    return len(indices), failed

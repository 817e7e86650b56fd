"""Standard workloads and streams for the figure benchmarks.

The paper sweeps 50 000-200 000 queries over a 9.12 MB Protein fragment
on a 700 MHz Pentium III running C++.  Pure CPython is roughly two
orders of magnitude slower per event, so the default scale runs the
same *shapes* at 1/100 size: 500-2 000 queries over ~100 KB-1 MB
streams.  Set ``REPRO_BENCH_SCALE`` (a float; 1.0 = paper scale) to
move along that axis; every bench prints the parameters it actually
used so the numbers are interpretable.

Workload knobs mirror Sec. 7: wildcard and descendant probabilities are
0, predicates-per-query averages 1.15 or 10.45 (or an exact k for the
Fig. 9-11 sweeps), constants are drawn from the dataset's value pools.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

from repro.data.protein import ProteinDataset, document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpath.generator import GeneratorConfig, QueryGenerator

#: The paper's reference points, used to derive scaled defaults.
PAPER_QUERY_SWEEP = (50_000, 100_000, 150_000, 200_000)
PAPER_DATA_BYTES = 9_120_000  # the 9.12 MB Protein fragment


def bench_scale() -> float:
    """Scale factor vs. the paper's workload sizes (default 1/100)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))


def scaled(paper_value: int, minimum: int = 1) -> int:
    """*paper_value* scaled by :func:`bench_scale`, floored."""
    return max(minimum, int(paper_value * bench_scale()))


@lru_cache(maxsize=8)
def _dataset(seed: int) -> ProteinDataset:
    return ProteinDataset(seed=seed)


def standard_workload(
    queries: int,
    mean_predicates: float = 1.15,
    exact_predicates: int | None = None,
    seed: int = 0,
    dataset_seed: int = 0,
) -> tuple[list[XPathFilter], ProteinDataset]:
    """A Sec. 7 workload over the (synthetic) Protein dataset.

    Returns the filters and the dataset (whose DTD the machine variants
    need for the order optimisation and training).
    """
    dataset = _dataset(dataset_seed)
    config = GeneratorConfig(
        seed=seed,
        prob_wildcard=0.0,
        prob_descendant=0.0,
        mean_predicates=mean_predicates,
        exact_predicates=exact_predicates,
        path_depth_min=2,
        path_depth_max=4,
        prob_inequality=0.1,
        prob_attribute_predicate=0.3,
    )
    generator = QueryGenerator(dataset.dtd, dataset.value_pool, config)
    filters = generator.generate(queries)
    return filters, dataset


@lru_cache(maxsize=8)
def standard_stream(target_bytes: int, seed: int = 0) -> str:
    """A Protein stream of roughly *target_bytes* UTF-8 bytes."""
    return _dataset(seed).stream_of_bytes(target_bytes)


@lru_cache(maxsize=8)
def locality_stream(
    target_bytes: int,
    hot_docs: int = 8,
    hot_fraction: float = 0.75,
    seed: int = 0,
) -> str:
    """A Protein stream with document-level locality.

    Sec. 6's infinite streams are not uniform: real feeds repeat a small
    set of recurring message shapes (the hot pool, *hot_fraction* of the
    documents) while novel content keeps arriving and growing the state
    space without bound (the tail, every document distinct).  This is
    the access pattern memory management has to cope with — the tail
    forces eviction forever, and a policy is judged by whether the hot
    pool's states survive it.  ``standard_stream`` has no such reuse:
    every document is distinct, so replaying it makes every reuse
    distance equal to the whole stream and no bounded policy can do
    better than any other.
    """
    dataset = _dataset(seed)
    hot = [document_to_xml(doc) for doc in dataset.documents(hot_docs)]
    tail = ProteinDataset(seed=seed + 1).documents(1 << 30)
    rng = random.Random(seed + 2)
    pieces: list[str] = []
    total = 0
    while total < target_bytes:
        text = rng.choice(hot) if rng.random() < hot_fraction else document_to_xml(next(tail))
        pieces.append(text)
        total += len(text.encode("utf-8"))
    return "".join(pieces)

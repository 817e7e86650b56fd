"""Seed-driven input builders for the six e2e workloads.

Every builder turns ``(seed, scale)`` into an :class:`Inputs` value —
filter sources, documents, the engine configuration under test and the
update / open-loop schedules — and nothing else: the program under test
only ever receives these generated inputs.  The same seed gives the
same inputs; a second seed gives different filters and documents and
the same metric set.  ``scale`` shrinks filter and document counts for
``--smoke``; 1.0 is the benchmark size.

The one-line ``why`` of each :class:`Spec` is what ``BENCHMARK.json``
records, so the reason a workload exists travels with its numbers.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

from repro.bench.workloads import standard_workload
from repro.data.nasa import MAX_DEPTH, NasaDataset
from repro.data.pools import PoolDrawer
from repro.engine import EngineConfig
from repro.xmlstream import Document, document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpath.generator import GeneratorConfig, QueryGenerator


@dataclass(frozen=True)
class Spec:
    """What one workload runs, and why it exists."""

    name: str
    why: str
    #: "closed" (next request after the previous answer) or
    #: "closed+open" (a closed-loop phase, then a fixed-rate phase).
    loop: str
    #: which measured window drives it: direct | churn | sharded | served
    kind: str
    dataset: str
    filters: int
    documents: int
    #: a fresh engine per pass (the lazy-construction mile) instead of
    #: one warmed engine for the whole window
    cold: bool = False
    #: ``on_match`` stays wired during throughput passes (the workload
    #: is *about* event-time emission); otherwise first-match latency
    #: is sampled in separate hooked passes so the hook's per-oid cost
    #: stays out of ``docs_per_s``
    hook_always: bool = False
    min_passes: int = 10
    #: documents per ``filter_stream`` call
    chunk: int = 1
    #: churn: one subscribe + one unsubscribe every N documents
    update_every: int = 0
    #: served: fixed open-loop publish rate, documents per second
    open_rate: int = 0
    #: served: server-side consumers the filters are spread over
    consumers: int = 0


SPECS: tuple[Spec, ...] = (
    Spec(
        name="protein-warm",
        why="Completed-machine steady state: parse plus memo-hit path do all the work, "
        "so parser, hit-path and engine-overhead changes show here and miss kernels do not.",
        loop="closed",
        kind="direct",
        dataset="protein",
        filters=2000,
        documents=600,
        min_passes=15,
    ),
    Spec(
        name="protein-cold",
        why="Fig. 5 cold mile: a fresh engine per pass, so lazy state construction "
        "(push/value/pop/badd misses, interning) dominates and parsing is a few percent.",
        loop="closed",
        kind="direct",
        dataset="protein",
        filters=2000,
        documents=200,
        cold=True,
        hook_always=True,
        min_passes=3,
    ),
    Spec(
        name="nasa-deep",
        why="Few huge recursive documents with // and * filters, top-down early emission and "
        "hundreds of oids per answer: per-event and result-assembly costs, not per-document ones.",
        loop="closed",
        kind="direct",
        dataset="nasa",
        filters=1000,
        documents=40,
        hook_always=True,
        min_passes=15,
    ),
    Spec(
        name="protein-churn",
        why="Writes beside reads on the layered engine: a subscribe and an unsubscribe every 10 "
        "documents, so delta rebuilds and base-flushing compactions are paid inside the window.",
        loop="closed",
        kind="churn",
        dataset="protein",
        filters=600,
        documents=640,
        min_passes=5,
        update_every=10,
    ),
    Spec(
        name="protein-sharded",
        why="Two worker processes fed 16-document chunks: DOM parse, re-serialise, pickle to every "
        "shard, re-parse and merge do most of the work, gating a parse-once data plane.",
        loop="closed",
        kind="sharded",
        dataset="protein",
        filters=2000,
        documents=480,
        min_passes=10,
        chunk=16,
    ),
    Spec(
        name="served-fanout",
        why="Socket to match frame with a small workload and small documents, server in its own "
        "process: framing, executor hop, fan-out and consumer queues are most of the cost.",
        loop="closed+open",
        kind="served",
        dataset="protein",
        filters=400,
        documents=320,
        min_passes=10,
        open_rate=400,
        consumers=8,
    ),
)

BY_NAME = {spec.name: spec for spec in SPECS}

#: Filters generated beyond the resident set: the churn schedule and
#: the update probes subscribe from this pool.
POOL_FILTERS = 400

#: Value pools (the datasets' vocabulary) are a constant of the
#: benchmark, like the paper's fixed Protein export; ``--seed`` draws the
#: filters and the documents from them.  Re-seeding the pools as well
#: changes the bytes-per-event ratio of every document and moved MB/s by
#: 7 % between seeds.
VOCABULARY_SEED = 0

#: Generated documents are kept inside an element-count band per
#: dataset.  The DTD generators' natural sizes are heavy-tailed (Protein
#: 19-325 elements, NASA 10-8000), so an unbanded draw moves the mean
#: document size - and with it docs/s - by 4 % (Protein, 600 documents)
#: to over 10 % (NASA, 40) from seed to seed.  Protein keeps the middle
#: three quarters (~1.3 KB each), NASA ~35 KB / ~4.4k events each.
ELEMENT_BAND = {"protein": (25, 80), "nasa": (1200, 1800)}


@dataclass
class Inputs:
    """Everything one run feeds the program under test."""

    spec: Spec
    seed: int
    scale: float
    #: resident filters, oid -> XPath source
    sources: dict[str, str]
    #: extra filters (oid -> source) for subscribes during the run
    pool: dict[str, str]
    #: parsed form of sources + pool, for the reference evaluator only
    parsed: dict[str, XPathFilter]
    #: one XML text per document, and the same documents as DOM trees
    #: (reference evaluator only)
    docs: list[str]
    doms: list[Document]
    config: EngineConfig
    root_label: str
    doc_bytes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.doc_bytes = [len(text.encode("utf-8")) for text in self.docs]

    @property
    def chunks(self) -> list[str]:
        """The documents grouped ``spec.chunk`` per ``filter_stream`` call."""
        size = self.spec.chunk
        if size == 1:
            return self.docs
        return ["".join(self.docs[i : i + size]) for i in range(0, len(self.docs), size)]

    def param_hash(self) -> str:
        return params_hash(self.spec, self.scale)


def params_hash(spec: Spec, scale: float) -> str:
    """Identity of a workload's parameters (not of the seed): numbers
    from runs whose hashes differ are not comparable."""
    blob = json.dumps(
        {"spec": asdict(spec), "scale": scale, "pool": POOL_FILTERS, "band": ELEMENT_BAND,
         "vocabulary": VOCABULARY_SEED},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def update_stream(inputs: Inputs) -> Iterator[tuple[str, str, str]]:
    """The endless churn schedule: ``(subscribe_oid, xpath, unsubscribe_oid)``.

    Each update subscribes the longest-idle filter and unsubscribes the
    longest-live one, so the live count stays constant and the pool
    never runs dry however many passes a run fits.
    """
    sources = {**inputs.sources, **inputs.pool}
    live = deque(inputs.sources)
    idle = deque(inputs.pool)
    while True:
        incoming, outgoing = idle.popleft(), live.popleft()
        live.append(incoming)
        idle.append(outgoing)
        yield incoming, sources[incoming], outgoing


def open_loop_schedule(rate: int, seconds: float) -> list[float]:
    """Send offsets (seconds from phase start) of a fixed-rate open loop."""
    return [k / rate for k in range(int(rate * seconds))]


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(value * scale))


def _documents(dataset, count: int, seed: int, **shape) -> list[Document]:
    """*count* seeded documents of *dataset* inside its element band."""
    rng = random.Random(seed)
    drawer = PoolDrawer(dataset.value_pool)
    low, high = ELEMENT_BAND[dataset.name]
    doms: list[Document] = []
    while len(doms) < count:
        document = dataset.dtd.generate(rng, drawer.text_for, **shape)
        if low <= document.size() <= high:
            doms.append(document)
    return doms


def _protein(spec: Spec, seed: int, scale: float):
    count = _scaled(spec.filters, scale, 50) + POOL_FILTERS
    filters, dataset = standard_workload(count, seed=seed, dataset_seed=VOCABULARY_SEED)
    # Document shape as ProteinDataset.documents() draws it.
    doms = _documents(
        dataset, _scaled(spec.documents, scale, 32), seed, repeat_mean=1.6, optional_probability=0.55
    )
    return filters, doms


def _nasa(spec: Spec, seed: int, scale: float):
    dataset = NasaDataset(seed=VOCABULARY_SEED)
    config = GeneratorConfig(
        seed=seed,
        prob_wildcard=0.1,
        prob_descendant=0.2,
        mean_predicates=1.15,
        path_depth_min=2,
        path_depth_max=4,
        prob_inequality=0.1,
        prob_attribute_predicate=0.3,
    )
    generator = QueryGenerator(dataset.dtd, dataset.value_pool, config)
    filters = generator.generate(_scaled(spec.filters, scale, 50) + POOL_FILTERS)
    doms = _documents(
        dataset, _scaled(spec.documents, scale, 8), seed,
        max_depth=MAX_DEPTH, repeat_mean=6, optional_probability=0.9,
    )
    return filters, doms


def _config(spec: Spec) -> EngineConfig:
    base = EngineConfig()
    if spec.name == "nasa-deep":
        return replace(base, engine="xpush", options=replace(base.options, top_down=True, early=True))
    if spec.kind == "churn" or spec.kind == "served":
        return replace(base, engine="layered")
    if spec.kind == "sharded":
        return replace(
            base, engine="sharded", shards=2, inner="xpush", parallel=True, batch_size=spec.chunk
        )
    return replace(base, engine="xpush")


def build(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """The inputs of workload *name* for *seed*."""
    spec = BY_NAME[name]
    maker = _nasa if spec.dataset == "nasa" else _protein
    filters, doms = maker(spec, seed, scale)
    resident = len(filters) - POOL_FILTERS
    return Inputs(
        spec=spec,
        seed=seed,
        scale=scale,
        sources={f.oid: f.source for f in filters[:resident]},
        pool={f.oid: f.source for f in filters[resident:]},
        parsed={f.oid: f for f in filters},
        docs=[document_to_xml(dom) for dom in doms],
        doms=doms,
        config=_config(spec),
        root_label=doms[0].root.label,
    )

"""The parent-side orchestrator: :class:`ShardedFilterEngine`.

Scaling model (see ``docs/scaling.md``): the *workload* is partitioned
into N shards; every document batch fans out to all shards and the
per-shard oid sets are unioned, so the engine's answers are exactly
the serial machine's answers regardless of N or strategy.

Each shard hosts an inner :class:`~repro.engine.protocol.FilterEngine`
built exclusively through :func:`~repro.engine.factory.create_engine`
(``config.inner`` names the kind; the default ``"layered"`` gives every
shard the Sec. 8 base + delta machine, so updates never flush a warmed
base table).  Mechanics:

- shard workloads are compiled once in the parent and shipped to
  worker processes inside the inner engine's own ``snapshot()``
  payload (no AFA re-compiling in workers); workers warm their
  machines before reporting ready;
- **data plane**: the parent forwards bytes and blocks on file
  descriptors.  ``filter_stream`` runs one boundary scan over the
  source (:func:`~repro.xmlstream.split.split_documents`: well-formed
  or :class:`~repro.errors.XMLSyntaxError`, before anything is
  shipped) and sends every worker the source's own UTF-8 slice per
  document; ``filter_batch`` sends ``document_to_xml`` texts down the
  same path (``_filter_texts``).  The N full parses happen in the
  workers, in parallel; the parent builds no DOM.  Replies are awaited
  with ``multiprocessing.connection.wait`` on every worker's result
  pipe and process sentinel, so a reply or a crash wakes the parent at
  once — nothing is polled;
- each worker has a *bounded* task queue, and the parent additionally
  caps the number of in-flight batches at ``queue_depth`` — the
  backpressure that keeps an unbounded publisher from ballooning
  memory while still pipelining: batch *i+1* is enqueued while the
  workers chew batch *i*;
- a worker death is detected at submit time or while waiting (its
  sentinel fires, its result pipe reads end-of-file); the worker is
  respawned from its retained payload, every batch it had not yet
  answered is resubmitted, and ``stats()["worker_restarts"]`` counts
  the event.  Duplicate answers from the pre-crash incarnation are
  discarded idempotently;
- ``shards == 1``, ``parallel=False`` or an unusable
  ``multiprocessing`` all degrade to in-process inner engines with
  the same API and the same answers (``stats()["serial_fallback"]``).

**Update control plane.**  ``subscribe``/``unsubscribe``/``compact``
are first-class while the engine serves traffic:

- every update bumps the engine *epoch* and is eagerly validated in
  the parent (bad XPath or duplicate oid never reaches a worker);
- an explicit oid→shard **routing table** is the single source of
  truth for ownership: it is carried in snapshots and projected into
  every worker boot payload (``payload["oids"]``), so placement never
  has to be re-derived by hashing.  New oids route through the
  placement layer (:mod:`repro.service.placement`):
  ``placement="hash"`` keeps consistent CRC-32 routing
  (:func:`~repro.service.partition.shard_of_oid`, reproducible across
  restarts); ``placement="cost"`` routes to the lightest shard by the
  per-filter cost model (AFA states × σ̂) — which also closes the old
  mismatch where post-boot subscribes always hashed even under a
  ``size_balanced`` boot;
- **hot-shard management** rides the same control plane:
  ``rebalance()`` migrates filter subsets between shards when the
  cost-model imbalance gauge crosses ``rebalance_threshold``
  (optionally auto-checked every ``rebalance_interval`` batches),
  ``split()`` adds a shard and populates it, ``merge()`` drains and
  retires the last shard.  Each verb is one epoch: a migration is a
  payload-folded subscribe on the target plus an unsubscribe on the
  source (add before remove — transient double-residency is benign
  because answers are unioned, a gap would drop matches).  These verbs
  run between batch fan-outs, and ``filter_batch`` fully drains its
  in-flight work before returning, so no document ever straddles a
  migration: every batch is answered entirely pre-move or entirely
  post-move, and a worker crash mid-migration reboots from the folded
  payload exactly like any other update;
- in parallel mode the update is *folded into the target worker's
  boot payload first*, then sent as an epoch-stamped control message
  on the same FIFO task queue as batches.  FIFO ordering makes the
  update visible to exactly the batches submitted after it; payload
  folding makes crashes safe without replay — a restarted worker
  boots the updated workload while the stale queue dies with the old
  process, so updates are applied exactly once;
- batch replies carry the worker's ``applied_epoch``, so answers are
  attributable to a workload version; batches resubmitted after a
  crash are re-answered at the *current* epoch (that attribution is
  what the tags are for);
- ``compact()`` broadcasts to every shard and folds the payloads the
  expensive way (recompile base from sources) — the paper's
  brute-force reset, amortised to once per epoch of updates.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import replace
from typing import IO, Any, Callable, Iterable, Sequence, Union

from repro.engine.config import EngineConfig
from repro.engine.protocol import MatchHook
from repro.errors import ReproError, WorkloadError
from repro.service.latency import LatencyTracker
from repro.service.partition import partition_filters, shard_of_oid
from repro.service.placement import (
    CostModel,
    Move,
    imbalance,
    place_filters,
    plan_drain,
    plan_rebalance,
    route_new,
    shard_loads,
)
from repro.xmlstream.dom import Document, documents_of_events, parse_forest
from repro.xmlstream.dtd import DTD
from repro.xmlstream.events import EndDocument, Event
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.options import XPushOptions

LAYERED_FORMAT = "repro-layered-engine"

#: ``snapshot()`` format tag of the sharded engine itself.
SNAPSHOT_FORMAT = "repro-sharded-engine"
SNAPSHOT_VERSION = 1


class ServiceError(ReproError):
    """Raised when the sharded service cannot complete a batch."""


#: One document on the wire: a UTF-8 slice of the publisher's source
#: (``filter_stream``) or a serialised DOM (``filter_batch``).
DocumentText = Union[str, bytes]


def _mp_context(start_method: str | None):
    """A usable multiprocessing context, or None (serial fallback)."""
    try:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        elif start_method not in methods:
            return None
        return multiprocessing.get_context(start_method)
    except (ImportError, ValueError, OSError):
        return None


def _picklable(value) -> bool:
    import pickle

    try:
        pickle.dumps(value)
        return True
    except Exception:  # noqa: BLE001 - any failure means "do not ship it"
        return False


def _snapshot_sources(snap: dict | None) -> dict[str, str]:
    """The live oid → XPath sources a shard snapshot describes (base
    plus delta minus tombstones for the layered format, the filters
    mapping otherwise)."""
    if not isinstance(snap, dict):
        return {}
    if snap.get("format") == LAYERED_FORMAT:
        base = snap.get("base") or {"afas": []}
        sources = {str(afa["oid"]): str(afa["source"]) for afa in base["afas"]}
        for oid, xpath in snap.get("delta", {}).items():
            sources[str(oid)] = str(xpath)
        for oid in snap.get("tombstones", []):
            sources.pop(str(oid), None)
        return sources
    return {str(oid): str(xpath) for oid, xpath in snap.get("filters", {}).items()}


class _WorkerHandle:
    """Parent-side bookkeeping for one shard's worker process."""

    __slots__ = ("shard_id", "process", "tasks", "results", "pending", "info")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.tasks = None
        self.results = None
        # batch_id -> (texts, emit): everything needed to resubmit the
        # batch verbatim after a crash, match streaming included.
        self.pending: dict[int, tuple[Sequence[DocumentText], bool]] = {}
        self.info: dict = {}

    @property
    def dead(self) -> bool:
        return self.process is None or self.process.exitcode is not None


class ShardedFilterEngine:
    """Filter document batches against a workload split over N shards.

    Configure either through a consolidated
    :class:`~repro.engine.config.EngineConfig` (``config=``, the
    :func:`~repro.engine.factory.create_engine` path) or through the
    historical keyword arguments; ``config`` wins when both are given.

    Args:
        filters: the workload (``XPathFilter`` list, or oid→xpath
            mapping / list of sources as accepted by ``parse_workload``).
        shards: number of shards (1 = serial, no processes).
        config: consolidated engine configuration (subsumes every
            keyword below plus ``inner`` and ``compact_threshold``).
        options: machine options, shared by every shard.
        dtd: optional DTD (order optimisation / training).
        strategy: partitioning strategy (:data:`PARTITION_STRATEGIES`).
        batch_size: documents per work item fanned out to the shards.
        queue_depth: max in-flight work items (backpressure bound).
        parallel: force processes on (True), off (False) or auto (None).
        warm: warm each shard machine via ``warm_up()`` at boot.
        training_seed: seed for the warm-up document generator.
        result_timeout: seconds of *no progress* before a batch is
            declared stuck and :class:`ServiceError` is raised.
        start_method: multiprocessing start method override.
        backend: parser backend the workers use on the push-mode event
            path (``"python"``, ``"expat"`` or ``"auto"``; see
            :func:`repro.xmlstream.parser.parse_into`).  Answers are
            backend-independent — this is a throughput knob only.
    """

    name = "sharded"

    def __init__(
        self,
        filters: Sequence[XPathFilter] | dict[str, str] | list[str],
        shards: int = 2,
        *,
        config: EngineConfig | None = None,
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
        strategy: str = "hash",
        batch_size: int = 16,
        queue_depth: int = 4,
        parallel: bool | None = None,
        warm: bool = True,
        training_seed: int = 0,
        result_timeout: float = 60.0,
        start_method: str | None = None,
        backend: str = "auto",
        placement: str = "hash",
        sample_documents: Sequence[Document] | None = None,
    ):
        if config is None:
            config = EngineConfig(
                engine="sharded",
                options=options
                or XPushOptions(top_down=True, precompute_values=False),
                dtd=dtd,
                backend=backend,
                shards=int(shards),
                strategy=strategy,
                placement=placement,
                batch_size=int(batch_size),
                queue_depth=int(queue_depth),
                parallel=parallel,
                warm=warm,
                training_seed=training_seed,
                result_timeout=float(result_timeout),
                start_method=start_method,
            )
        self.config = config
        self.shards = config.shards
        self.inner = config.inner
        self.options = config.options
        self.dtd = config.dtd
        self.strategy = config.strategy
        self.placement = config.placement
        self.rebalance_threshold = config.rebalance_threshold
        self.rebalance_interval = config.rebalance_interval
        self.batch_size = config.batch_size
        self.queue_depth = config.queue_depth
        self.warm = config.warm
        self.training_seed = config.training_seed
        self.result_timeout = config.result_timeout
        self.backend = config.backend

        if filters and not isinstance(next(iter(filters)), XPathFilter):
            filters = parse_workload(filters)  # type: ignore[arg-type]
        self.filters = list(filters)  # type: ignore[arg-type]

        self.documents = 0
        self.batches = 0
        self.worker_restarts = 0
        self.rebalances = 0
        self.splits = 0
        self.merges = 0
        self.migrations = 0
        self.latency = LatencyTracker()
        #: Per-fan-out critical path — the slowest shard's share of each
        #: batch.  In parallel mode this equals the batch latency; in
        #: the serial fallback it is measured per shard and *modelled*
        #: (what an ideally parallel run of this placement would cost),
        #: which is what the placement benchmarks gate on.
        self.critical_path = LatencyTracker()
        #: Submit → first delivered match, per document that matched
        #: anything (populated while an ``on_match`` sink is attached).
        self.first_match = LatencyTracker()
        #: Event-time match sink (FilterEngine protocol): fired as
        #: worker match messages arrive, ahead of batch completion.
        #: ``doc_index`` is relative to the current filter call;
        #: ``event_index`` is the deciding event within the document.
        #: Emission order is monotone per shard, not globally — shards
        #: scan the same document independently.
        self.on_match: MatchHook | None = None
        # Document-index offset of the batch currently in flight —
        # filter_events fans one call out over several filter_batch
        # calls and on_match must report call-relative indexes.
        self._doc_base = 0
        self._batch_counter = 0
        self._epoch = 0
        self._closed = False
        self._engines: dict[int, Any] = {}  # serial fallback, shard -> engine
        self._workers: dict[int, _WorkerHandle] = {}
        self._payloads: dict[int, dict] = {}
        #: The routing table: oid → owning shard for every *live*
        #: subscription — the single source of truth for placement,
        #: carried in snapshots and projected into worker payloads.
        self._routing: dict[str, int] = {}
        #: oid → XPath source, retained for migrations (a move re-sends
        #: the filter to its new shard as a subscribe control).
        self._sources: dict[str, str] = {}
        #: Per-filter cost model (AFA states × σ̂); maintained under
        #: both policies so the load gauges never go dark.
        self._cost = CostModel()
        #: Cumulative per-shard busy seconds in the serial fallback
        #: (parallel workers measure their own and report it in info).
        self._busy: dict[int, float] = {}
        # Batch count at the last auto-rebalance check.
        self._auto_marker = 0
        for xpath_filter in self.filters:
            self._cost.add(xpath_filter)
            self._sources[xpath_filter.oid] = xpath_filter.source or str(
                xpath_filter.path
            )
        if sample_documents:
            self._cost.seed(self.filters, list(sample_documents))

        self._ctx = None
        parallel = config.parallel
        if parallel is None:
            parallel = self.shards > 1
        if parallel and self.shards > 1:
            self._ctx = _mp_context(config.start_method)
        self.parallel = self._ctx is not None

        if self.placement == "cost":
            shard_filters = place_filters(self.filters, self.shards, self._cost)
        else:
            shard_filters = partition_filters(self.filters, self.shards, self.strategy)
        for shard_id, shard in enumerate(shard_filters):
            for xpath_filter in shard:
                self._routing[xpath_filter.oid] = shard_id
        if self.parallel:
            self._boot_workers(shard_filters)
        else:
            self._boot_serial(shard_filters)

    @classmethod
    def from_xpath(cls, sources: dict[str, str] | list[str], shards: int = 2, **kwargs):
        return cls(parse_workload(sources), shards, **kwargs)

    # ------------------------------------------------------------------
    # Boot paths
    # ------------------------------------------------------------------

    def _inner_config(self, *, dtd: DTD | None, options: XPushOptions) -> EngineConfig:
        """The per-shard config handed to :func:`create_engine`."""
        return replace(
            self.config,
            engine=self.inner,
            options=options,
            dtd=dtd,
            shards=1,
            parallel=False,
        )

    def _boot_serial(self, shard_filters: list[list[XPathFilter]]) -> None:
        from repro.engine.factory import create_engine

        inner_config = self._inner_config(dtd=self.dtd, options=self.options)
        for shard_id in range(self.shards):
            engine = create_engine(inner_config, shard_filters[shard_id])
            if self.warm and not self.options.train:
                warm_up = getattr(engine, "warm_up", None)
                if warm_up is not None:
                    warm_up(seed=self.training_seed)
            self._engines[shard_id] = engine

    def _worker_config(self) -> EngineConfig:
        """The inner config shipped across the process boundary.

        A DTD that cannot be pickled is dropped; the order optimisation
        and schema specialization need it, so those switch off in the
        workers — performance knobs only, answers are unchanged.
        """
        dtd = self.dtd
        options = self.options
        if dtd is not None and not _picklable(dtd):
            dtd = None
            options = replace(options, order=False, train=False, schema_mode="off")
        return self._inner_config(dtd=dtd, options=options)

    def _boot_workers(self, shard_filters: list[list[XPathFilter]]) -> None:
        from repro.service.worker import build_payload

        inner_config = self._worker_config()
        for shard_id in range(self.shards):
            self._payloads[shard_id] = build_payload(
                inner_config,
                self._shard_snapshot(shard_filters[shard_id]),
                warm=self.warm,
                training_seed=self.training_seed,
                oids=[f.oid for f in shard_filters[shard_id]],
            )
            handle = _WorkerHandle(shard_id)
            self._workers[shard_id] = handle
            self._spawn(handle)

    def _shard_snapshot(self, shard: list[XPathFilter]) -> dict:
        """One shard's boot snapshot in its inner engine's own format.

        For the layered inner engine the base ships *compiled*
        (:mod:`repro.xpush.persist` JSON) — AFA compilation happens
        once, here in the parent.  Other inner kinds ship sources.
        """
        if self.inner == "layered":
            from repro.afa.build import build_workload_automata
            from repro.xpush.persist import workload_to_json

            return {
                "format": LAYERED_FORMAT,
                "version": 1,
                "base": (
                    workload_to_json(build_workload_automata(shard)) if shard else None
                ),
                "delta": {},
                "tombstones": [],
            }
        from repro.engine.serial import sources_snapshot

        return sources_snapshot(self.inner, {f.oid: f for f in shard})

    def _spawn(self, handle: _WorkerHandle) -> None:
        from repro.service.worker import worker_main

        for stale in (handle.tasks, handle.results):
            if stale is not None:  # free the dead incarnation's pipes
                try:
                    stale.close()
                except (OSError, ValueError):
                    pass
        # Small slack above queue_depth so a restart can always requeue
        # every pending batch without blocking on its own bound.
        handle.tasks = self._ctx.Queue(maxsize=self.queue_depth + 2)
        # Per-incarnation result pipe: a worker hard-killed mid-write
        # leaves half a frame behind, which on a shared channel would
        # corrupt every other writer's stream, so no pipe is ever shared
        # between workers, and a restart abandons the old incarnation's
        # pipe (late pre-crash answers die with it).
        handle.results, sender = self._ctx.Pipe(duplex=False)
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.shard_id, self._payloads[handle.shard_id], handle.tasks, sender),
            daemon=True,
            name=f"repro-shard-{handle.shard_id}",
        )
        handle.process.start()
        # The worker now holds the only write end, so its death reads
        # as end-of-file here — even in the middle of a frame.
        sender.close()

    def _restart(self, handle: _WorkerHandle) -> None:
        # The payload was updated at every subscribe/unsubscribe, so the
        # respawned worker resumes the *current* workload epoch; control
        # messages lost with the old task queue are already in it.
        self.worker_restarts += 1
        if handle.process is not None:
            handle.process.join(timeout=1.0)
        self._spawn(handle)
        for batch_id, (texts, emit) in sorted(handle.pending.items()):
            handle.tasks.put(("batch", batch_id, texts, emit))

    def _check_workers(self) -> None:
        for handle in self._workers.values():
            if handle.dead:
                self._restart(handle)

    # ------------------------------------------------------------------
    # Update control plane
    # ------------------------------------------------------------------

    @property
    def filter_count(self) -> int:
        return len(self._routing)

    @property
    def epoch(self) -> int:
        """The workload version: bumped by every update."""
        return self._epoch

    @property
    def routing(self) -> dict[str, int]:
        """A copy of the oid → shard routing table."""
        return dict(self._routing)

    def _route_new(self, oid: str) -> int:
        """Shard for a post-boot subscribe, per the placement policy."""
        if self.placement != "cost":
            return shard_of_oid(oid, self.shards)
        loads = shard_loads(self._routing, self._cost.costs(), self.shards)
        return route_new(oid, loads, "cost")

    def subscribe(self, oid: str, xpath: str) -> None:
        """Add a filter while serving.  Validated here, applied on the
        shard the placement policy picks (CRC-32 under ``hash``, the
        lightest shard under ``cost``) without flushing its warmed base
        tables."""
        if self._closed:
            raise ServiceError("engine is closed")
        if oid in self._routing:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        parsed = parse_xpath(xpath, oid)  # eager; workers trust the parent
        shard_id = self._route_new(oid)
        self._epoch += 1
        self._routing[oid] = shard_id
        self._sources[oid] = xpath
        self._cost.add(parsed)
        if self.parallel:
            self._fold_insert(self._payloads[shard_id], oid, xpath)
            self._send_control(shard_id, ("subscribe", oid, xpath))
        else:
            self._engines[shard_id].subscribe(oid, xpath)

    def unsubscribe(self, oid: str) -> None:
        """Drop a filter while serving; a tombstone on its shard until
        the next compaction."""
        if self._closed:
            raise ServiceError("engine is closed")
        if oid not in self._routing:
            raise WorkloadError(f"unknown oid {oid!r}")
        shard_id = self._routing.pop(oid)
        self._sources.pop(oid, None)
        self._cost.drop(oid)
        self._epoch += 1
        if self.parallel:
            self._fold_remove(self._payloads[shard_id], oid)
            self._send_control(shard_id, ("unsubscribe", oid))
        else:
            self._engines[shard_id].unsubscribe(oid)

    def compact(self) -> None:
        """Fold every shard's delta and tombstones into a fresh base —
        the brute-force reset, amortised to once per update epoch."""
        if self._closed:
            raise ServiceError("engine is closed")
        self._epoch += 1
        if self.parallel:
            for shard_id in range(self.shards):
                self._fold_compact(self._payloads[shard_id])
                self._send_control(shard_id, ("compact",))
        else:
            for engine in self._engines.values():
                compact = getattr(engine, "compact", None)
                if compact is not None:
                    compact()

    # Placement verbs — hot-shard management on the same control plane.
    # Each verb runs between batch fan-outs (filter_batch drains its
    # in-flight work before returning), so every batch is answered
    # entirely pre-move or entirely post-move and answers stay exactly
    # the serial machine's at every epoch.

    def shard_load(self) -> list[float]:
        """Per-shard cost totals under the current routing table."""
        return shard_loads(self._routing, self._cost.costs(), self.shards)

    def imbalance(self) -> float:
        """Hottest-shard load over mean load (1.0 = balanced)."""
        return imbalance(self.shard_load())

    def seed_placement(self, documents: Sequence[Document]) -> None:
        """Seed the cost model's σ̂ from a document sample (the live
        match-rate feedback keeps refining it afterwards)."""
        self._cost.seed(self.filters, list(documents))

    def rebalance(self) -> list[Move]:
        """Migrate filters between shards until the cost-model
        imbalance is within ``rebalance_threshold`` (or no single move
        improves it); returns the executed moves.  One epoch bump for
        the whole plan."""
        if self._closed:
            raise ServiceError("engine is closed")
        moves = plan_rebalance(
            self._routing, self._cost.costs(), self.shards, self.rebalance_threshold
        )
        if moves:
            self._apply_moves(moves)
            self.rebalances += 1
        return moves

    def maybe_rebalance(self) -> bool:
        """Hot-shard detection: rebalance iff the imbalance gauge
        exceeds ``rebalance_threshold``.  True when moves executed."""
        if self.imbalance() <= self.rebalance_threshold:
            return False
        return bool(self.rebalance())

    def split(self) -> int:
        """Add one shard (an empty worker) and rebalance filters onto
        it; returns the new shard count."""
        if self._closed:
            raise ServiceError("engine is closed")
        new_id = self.shards
        self.shards += 1
        self._epoch += 1
        if self.parallel:
            from repro.service.worker import build_payload

            payload = build_payload(
                self._worker_config(),
                self._shard_snapshot([]),
                warm=self.warm,
                training_seed=self.training_seed,
                oids=[],
            )
            payload["epoch"] = self._epoch
            self._payloads[new_id] = payload
            handle = _WorkerHandle(new_id)
            self._workers[new_id] = handle
            self._spawn(handle)
        else:
            from repro.engine.factory import create_engine

            inner_config = self._inner_config(dtd=self.dtd, options=self.options)
            self._engines[new_id] = create_engine(inner_config, [])
        self.splits += 1
        moves = plan_rebalance(
            self._routing, self._cost.costs(), self.shards, self.rebalance_threshold
        )
        if moves:
            self._apply_moves(moves)
        return self.shards

    def merge(self) -> int:
        """Drain the last shard onto the others and retire its worker;
        returns the new shard count."""
        if self._closed:
            raise ServiceError("engine is closed")
        if self.shards <= 1:
            raise ServiceError("cannot merge a single-shard engine")
        victim = self.shards - 1
        moves = plan_drain(victim, self._routing, self._cost.costs(), self.shards)
        self._epoch += 1
        self.migrations += len(moves)
        for move in moves:
            source = self._sources[move.oid]
            self._routing[move.oid] = move.target
            if self.parallel:
                self._fold_insert(self._payloads[move.target], move.oid, source)
                self._send_control(move.target, ("subscribe", move.oid, source))
            else:
                self._engines[move.target].subscribe(move.oid, source)
        # The victim needs no per-filter unsubscribes — the whole
        # worker (or in-process engine) is retired with its state.
        if self.parallel:
            handle = self._workers.pop(victim)
            self._stop_handle(handle)
            self._payloads.pop(victim, None)
        else:
            engine = self._engines.pop(victim)
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        self.shards -= 1
        self.merges += 1
        return self.shards

    def _apply_moves(self, moves: Sequence[Move]) -> None:
        """Execute a migration plan as one epoch of control messages.

        Add before remove: if a crash interleaves, the filter is
        transiently live on both shards — benign, because per-document
        answers are unioned — whereas remove-first would open a window
        where neither shard answers for it.
        """
        self._epoch += 1
        self.migrations += len(moves)
        for move in moves:
            source = self._sources[move.oid]
            self._routing[move.oid] = move.target
            if self.parallel:
                self._fold_insert(self._payloads[move.target], move.oid, source)
                self._send_control(move.target, ("subscribe", move.oid, source))
                self._fold_remove(self._payloads[move.source], move.oid)
                self._send_control(move.source, ("unsubscribe", move.oid))
            else:
                self._engines[move.target].subscribe(move.oid, source)
                self._engines[move.source].unsubscribe(move.oid)

    def _send_control(self, shard_id: int, op: tuple) -> None:
        handle = self._workers[shard_id]
        # If the worker is dead, _put_task restarts it from the payload
        # the update was just folded into — the control message itself
        # is then redundant and deliberately not re-sent.
        self._put_task(handle, ("control", self._epoch, *op))

    # Payload folding — the crash-recovery half of the control plane.
    # Each helper mirrors exactly what the live control message does to
    # the worker's inner engine, expressed on the boot snapshot.

    def _fold_insert(self, payload: dict, oid: str, xpath: str) -> None:
        snap = payload["snapshot"]
        if snap.get("format") == LAYERED_FORMAT:
            snap["tombstones"] = [t for t in snap["tombstones"] if t != oid]
            snap["delta"][oid] = xpath
        else:
            snap["filters"][oid] = xpath
        oids = payload.setdefault("oids", [])
        if oid not in oids:
            oids.append(oid)
        payload["epoch"] = self._epoch

    def _fold_remove(self, payload: dict, oid: str) -> None:
        snap = payload["snapshot"]
        if snap.get("format") == LAYERED_FORMAT:
            if oid not in snap["tombstones"]:
                snap["tombstones"].append(oid)
        else:
            snap["filters"].pop(oid, None)
        oids = payload.setdefault("oids", [])
        if oid in oids:
            oids.remove(oid)
        payload["epoch"] = self._epoch

    def _fold_compact(self, payload: dict) -> None:
        snap = payload["snapshot"]
        if snap.get("format") == LAYERED_FORMAT:
            from repro.afa.build import build_workload_automata
            from repro.xpush.persist import workload_to_json

            sources: dict[str, str] = {
                afa["oid"]: afa["source"]
                for afa in (snap["base"] or {"afas": []})["afas"]
            }
            sources.update(snap["delta"])
            for oid in snap["tombstones"]:
                sources.pop(oid, None)
            filters = [parse_xpath(source, oid) for oid, source in sources.items()]
            snap["base"] = (
                workload_to_json(build_workload_automata(filters)) if filters else None
            )
            snap["delta"] = {}
            snap["tombstones"] = []
        payload["epoch"] = self._epoch

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filter_batch(self, documents: Iterable[Document]) -> list[frozenset[str]]:
        """Filter *documents*; one oid-set per document, serial-identical."""
        if self.parallel:
            return self._filter_texts([document_to_xml(doc) for doc in documents])
        return self._filter(list(documents), self._filter_batch_serial)

    def _filter_texts(self, texts: Sequence[DocumentText]) -> list[frozenset[str]]:
        """The one parallel data path: single-document *texts* fanned
        out to every worker, whoever produced them."""
        return self._filter(texts, self._fan_out)

    def _filter(
        self, items: Sequence[Any], run: Callable[[Any], list[frozenset[str]]]
    ) -> list[frozenset[str]]:
        """The bookkeeping every filter call shares, around *run*."""
        if self._closed:
            raise ServiceError("engine is closed")
        if not items:
            return []
        self.documents += len(items)
        if not self._routing:
            # No live filter can match; tombstoned machines would only
            # produce answers the merge drops anyway.
            self.batches += 1
            return [frozenset()] * len(items)
        results = run(items)
        # Live selectivity feedback: fold the answered match rates into
        # the cost model, then let hot-shard detection act on them.
        self._cost.observe(results)
        if (
            self.placement == "cost"
            and self.rebalance_interval > 0
            and self.batches - self._auto_marker >= self.rebalance_interval
        ):
            self._auto_marker = self.batches
            self.maybe_rebalance()
        return results

    def _filter_batch_serial(self, docs: Sequence[Document]) -> list[frozenset[str]]:
        merged: list[set[str]] = [set() for _ in docs]
        hook = self.on_match
        for offset in range(0, len(docs), self.batch_size):
            chunk = docs[offset : offset + self.batch_size]
            started = time.perf_counter()
            # Per-shard busy seconds within this fan-out: the maximum
            # is the critical path an ideally parallel run would pay —
            # the modelled latency the placement benchmarks gate on.
            chunk_busy: dict[int, float] = {}
            for index, doc in enumerate(chunk):
                if hook is None:
                    for shard_id, engine in self._engines.items():
                        shard_started = time.perf_counter()
                        merged[offset + index] |= engine.filter_document(doc)
                        chunk_busy[shard_id] = chunk_busy.get(shard_id, 0.0) + (
                            time.perf_counter() - shard_started
                        )
                else:
                    merged[offset + index] |= self._filter_document_emitting(
                        doc, offset + index, started, hook, chunk_busy
                    )
            self.batches += 1
            self.latency.record(time.perf_counter() - started)
            if chunk_busy:
                self.critical_path.record(max(chunk_busy.values()))
                for shard_id, busy in chunk_busy.items():
                    self._busy[shard_id] = self._busy.get(shard_id, 0.0) + busy
        return [frozenset(s) for s in merged]

    def _filter_document_emitting(
        self,
        doc: Document,
        doc_pos: int,
        started: float,
        hook: MatchHook,
        chunk_busy: dict[int, float],
    ) -> set[str]:
        """One document through every in-process shard engine with the
        event-time relay wired.  Shard workloads are disjoint, so no
        cross-shard dedup is needed; the first relay fire records the
        document's first-match latency against the batch start."""
        matched: set[str] = set()
        pending_first = [True]
        doc_index = self._doc_base + doc_pos

        def _relay(oid: str, _d: int, event_index: int) -> None:
            if pending_first[0]:
                pending_first[0] = False
                self.first_match.record(time.perf_counter() - started)
            hook(oid, doc_index, event_index)

        for shard_id, engine in self._engines.items():
            engine.on_match = _relay
            shard_started = time.perf_counter()
            try:
                matched |= engine.filter_document(doc)
            finally:
                engine.on_match = None
                chunk_busy[shard_id] = chunk_busy.get(shard_id, 0.0) + (
                    time.perf_counter() - shard_started
                )
        return matched

    def _fan_out(self, texts: Sequence[DocumentText]) -> list[frozenset[str]]:
        merged: list[set[str]] = [set() for _ in texts]
        outstanding: dict[int, dict] = {}
        emit = self.on_match is not None
        try:
            for offset in range(0, len(texts), self.batch_size):
                while len(outstanding) >= self.queue_depth:
                    self._collect_once(outstanding, merged)
                chunk = texts[offset : offset + self.batch_size]
                self._batch_counter += 1
                batch_id = self._batch_counter
                outstanding[batch_id] = {
                    "offset": offset,
                    "size": len(chunk),
                    "waiting": set(self._workers),
                    "started": time.perf_counter(),
                    # Event-time delivery bookkeeping: (doc_offset, oid)
                    # pairs already delivered (resubmitted batches
                    # re-stream their matches), and doc offsets whose
                    # first match has been latency-recorded.
                    "emitted": set(),
                    "firsts": set(),
                }
                for handle in self._workers.values():
                    handle.pending[batch_id] = (chunk, emit)
                    self._put_task(handle, ("batch", batch_id, chunk, emit))
            while outstanding:
                self._collect_once(outstanding, merged)
        finally:
            # A call that gave up (a shard reported an error, nothing
            # moved for result_timeout) abandons its batches: a later
            # restart must not resubmit them.  Empty on success.
            for batch_id in outstanding:
                for handle in self._workers.values():
                    handle.pending.pop(batch_id, None)
        return [frozenset(s) for s in merged]

    def _put_task(self, handle: _WorkerHandle, task: tuple) -> None:
        deadline = time.monotonic() + self.result_timeout
        while True:
            if handle.dead:
                # _restart resubmits everything in handle.pending —
                # including the batch this task carries — so done.
                self._restart(handle)
                return
            try:
                handle.tasks.put(task, timeout=0.1)
                return
            except queue_module.Full:
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"shard {handle.shard_id}: task queue stuck for "
                        f"{self.result_timeout:.0f}s"
                    ) from None

    def _collect_once(self, outstanding: dict[int, dict], merged: list[set[str]]) -> None:
        """Sleep until a worker replies or dies; fold one message in."""
        self._fold(self._receive(outstanding), outstanding, merged)

    def _receive(self, outstanding: dict[int, dict]) -> tuple:
        """The next worker message, restarting workers that die first.

        Blocks on every live worker's result pipe *and* process
        sentinel at once, so a reply or a crash wakes the parent the
        moment it happens.  Never a blocking read of one shared
        channel: each incarnation writes to a private pipe, so one
        dying mid-write can never wedge the others' answers.
        """
        from multiprocessing.connection import wait

        deadline = time.monotonic() + self.result_timeout
        while True:
            readers = {handle.results: handle for handle in self._workers.values()}
            sentinels = [handle.process.sentinel for handle in self._workers.values()]
            remaining = deadline - time.monotonic()
            # Past the deadline nothing is read any more, so workers
            # that keep dying cannot keep the call alive either.
            ready = wait([*readers, *sentinels], remaining) if remaining > 0 else []
            if not ready:
                waiting = {
                    bid: sorted(info["waiting"]) for bid, info in outstanding.items()
                }
                raise ServiceError(
                    f"no shard progress for {self.result_timeout:.0f}s; "
                    f"waiting on {waiting}"
                )
            # A reply that beat its worker's death to the pipe is still
            # an answer: readable pipes first, sentinels after.
            for reader in ready:
                handle = readers.get(reader)
                if handle is None:
                    continue
                try:
                    return reader.recv()
                except (EOFError, OSError):
                    # End-of-file, possibly inside a frame: the worker
                    # died.  Whatever it had not answered is resubmitted.
                    self._restart(handle)
            self._check_workers()

    def _fold(self, message: tuple, outstanding: dict[int, dict], merged: list[set[str]]) -> None:
        """Apply one worker message to the call's in-flight state."""
        kind = message[0]
        if kind == "ready":
            _, shard_id, info = message
            if shard_id in self._workers:
                self._workers[shard_id].info = info
            return
        if kind == "match":
            # Event-time delivery: a worker decided one match mid-batch.
            # FIFO per-worker pipes guarantee a shard's match messages
            # precede its batch reply, so every match is folded in
            # before the batch completes.
            _, shard_id, batch_id, doc_offset, oid, event_index = message
            info_entry = outstanding.get(batch_id)
            if info_entry is None or shard_id not in info_entry["waiting"]:
                return  # late duplicate from a pre-crash incarnation
            key = (doc_offset, oid)
            if key in info_entry["emitted"]:
                return  # resubmitted batch re-streamed this match
            info_entry["emitted"].add(key)
            if doc_offset not in info_entry["firsts"]:
                info_entry["firsts"].add(doc_offset)
                self.first_match.record(
                    time.perf_counter() - info_entry["started"]
                )
            hook = self.on_match
            if hook is not None:
                hook(
                    oid,
                    self._doc_base + info_entry["offset"] + doc_offset,
                    event_index,
                )
            return
        if kind == "error":
            _, shard_id, batch_id, text = message
            if batch_id is not None and batch_id not in outstanding:
                return  # the other shards' word on a batch already given up on
            raise ServiceError(f"shard {shard_id} failed on batch {batch_id}: {text}")
        _, shard_id, batch_id, answers, info = message
        handle = self._workers.get(shard_id)
        info_entry = outstanding.get(batch_id)
        if handle is not None:
            handle.info = info
            handle.pending.pop(batch_id, None)
        if info_entry is None or shard_id not in info_entry["waiting"]:
            return  # duplicate from a pre-crash incarnation
        if len(answers) != info_entry["size"]:
            raise ServiceError(
                f"shard {shard_id} returned {len(answers)} answers for a "
                f"batch of {info_entry['size']} documents"
            )
        info_entry["waiting"].discard(shard_id)
        offset = info_entry["offset"]
        for index, oids in enumerate(answers):
            merged[offset + index] |= oids
        if not info_entry["waiting"]:
            self.batches += 1
            elapsed = time.perf_counter() - info_entry["started"]
            self.latency.record(elapsed)
            # Workers run concurrently: the wall time to the last shard
            # reply *is* the fan-out's critical path.
            self.critical_path.record(elapsed)
            del outstanding[batch_id]

    def filter_document(self, document: Document) -> frozenset[str]:
        """Filter a single document (a batch of one)."""
        return self.filter_batch([document])[0]

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        """Filter a SAX event stream; one oid-set per document.

        Documents are cut at ``EndDocument`` boundaries and fanned out
        in ``batch_size`` groups, so an unbounded stream is processed
        with bounded buffering (one batch of documents at a time).
        """
        answers: list[frozenset[str]] = []
        buffer: list[Event] = []
        docs: list[Document] = []
        try:
            for event in events:
                buffer.append(event)
                if isinstance(event, EndDocument):
                    docs.extend(documents_of_events(buffer))
                    buffer = []
                    if len(docs) >= self.batch_size:
                        self._doc_base = len(answers)
                        answers.extend(self.filter_batch(docs))
                        docs = []
            if buffer:
                docs.extend(documents_of_events(buffer))
            if docs:
                self._doc_base = len(answers)
                answers.extend(self.filter_batch(docs))
        finally:
            self._doc_base = 0
        return answers

    def filter_stream(
        self, source: Union[str, bytes, IO[str], IO[bytes]]
    ) -> list[frozenset[str]]:
        """Filter a (possibly multi-document) XML source.

        In parallel mode the parent only finds the document boundaries
        and forwards the source's own bytes; a source that is not
        well-formed raises :class:`~repro.errors.XMLSyntaxError` here,
        before anything is shipped."""
        if self.parallel:
            return self._filter_texts(split_documents(source, self.backend))
        if not isinstance(source, (str, bytes)):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        return self.filter_batch(parse_forest(source, backend=self.backend))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture the sharded workload: one inner-engine snapshot per
        shard plus the routing map and epoch.  In parallel mode this is
        the parent's folded view — authoritative for workload
        composition even while workers are mid-update."""
        if self.parallel:
            shard_snapshots = [
                self._payloads[shard_id]["snapshot"] for shard_id in range(self.shards)
            ]
        else:
            shard_snapshots = [
                self._engines[shard_id].snapshot() for shard_id in range(self.shards)
            ]
        from repro.engine.serial import record_schema_identity

        out: dict[str, Any] = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "shards": self.shards,
            "inner": self.inner,
            "strategy": self.strategy,
            "placement": self.placement,
            "epoch": self._epoch,
            "routing": dict(self._routing),
            "shard_snapshots": shard_snapshots,
        }
        record_schema_identity(out, self.config)
        return out

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the workload with a :meth:`snapshot` capture; the
        shard processes are rebooted from the captured shard states."""
        from repro.engine.factory import create_engine
        from repro.service.worker import build_payload
        from repro.xpush.persist import PersistError

        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise PersistError("not a persisted sharded engine snapshot")
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise PersistError(
                f"unsupported sharded snapshot version {snapshot.get('version')!r}"
            )
        shard_snapshots = snapshot.get("shard_snapshots")
        if not isinstance(shard_snapshots, list) or len(shard_snapshots) != int(
            snapshot.get("shards", -1)
        ):
            raise PersistError("malformed sharded snapshot: shard_snapshots")
        from repro.engine.serial import apply_schema_identity

        config = apply_schema_identity(snapshot, self.config)
        if config is not self.config:
            self.config = config
            self.options = config.options
        self._shutdown_workers()
        self.shards = int(snapshot["shards"])
        self.inner = str(snapshot.get("inner", self.inner))
        self.placement = str(snapshot.get("placement", self.placement))
        self._epoch = int(snapshot.get("epoch", 0))
        self._routing = {
            str(oid): int(shard) for oid, shard in snapshot.get("routing", {}).items()
        }
        # Rebuild the migration sources and the cost model from the
        # captured shard workloads (σ̂ restarts from zero — live match
        # rates are runtime state, re-earned from traffic).
        self._sources = {}
        self._cost = CostModel()
        self._busy = {}
        for shard_snap in shard_snapshots:
            for oid, source in _snapshot_sources(shard_snap).items():
                self._sources[oid] = source
                if oid in self._routing:
                    self._cost.add_source(oid, source)
        self._payloads = {}
        if self.parallel:
            inner_config = self._worker_config()
            for shard_id in range(self.shards):
                payload = build_payload(
                    inner_config,
                    shard_snapshots[shard_id],
                    warm=self.warm,
                    training_seed=self.training_seed,
                    oids=[
                        oid
                        for oid, shard in self._routing.items()
                        if shard == shard_id
                    ],
                )
                payload["epoch"] = self._epoch
                self._payloads[shard_id] = payload
                handle = _WorkerHandle(shard_id)
                self._workers[shard_id] = handle
                self._spawn(handle)
        else:
            inner_config = self._inner_config(dtd=self.dtd, options=self.options)
            for shard_id in range(self.shards):
                engine = create_engine(
                    inner_config, snapshot=shard_snapshots[shard_id]
                )
                if self.warm and not self.options.train:
                    warm_up = getattr(engine, "warm_up", None)
                    if warm_up is not None:
                        warm_up(seed=self.training_seed)
                self._engines[shard_id] = engine

    # ------------------------------------------------------------------
    # Test hooks, stats, lifecycle
    # ------------------------------------------------------------------

    def inject_crash(self, shard_id: int, exit_code: int = 17) -> None:
        """Make *shard_id*'s worker die on its next task (tests only)."""
        if not self.parallel:
            raise ServiceError("inject_crash requires parallel mode")
        handle = self._workers[shard_id]
        handle.tasks.put(("crash", exit_code))

    _INFO_KEYS = (
        ("afa_states", 0),
        ("xpush_states", 0),
        ("hit_ratio", 0.0),
        ("resident_bytes", 0),
        ("table_entries", 0),
        ("evictions", 0),
        ("gc_states", 0),
        ("flushes", 0),
        ("base_states", 0),
        ("delta_states", 0),
        ("tombstones", 0),
        ("codegen_compile_ms", 0.0),
        ("codegen_handlers", 0),
        ("codegen_fallbacks", 0),
        ("schema_pruned_states", 0),
        ("schema_pruned_edges", 0),
        ("schema_fallbacks", 0),
        ("busy_s", 0.0),
    )

    def _shard_filter_count(self, shard_id: int) -> int:
        return sum(1 for shard in self._routing.values() if shard == shard_id)

    def stats(self) -> dict:
        loads = self.shard_load()
        per_shard = []
        for shard_id in range(self.shards):
            entry: dict = {
                "shard": shard_id,
                "filters": self._shard_filter_count(shard_id),
                "load": loads[shard_id],
            }
            engine = self._engines.get(shard_id)
            if engine is not None:
                info = engine.stats()
                info["applied_epoch"] = self._epoch
                info["busy_s"] = self._busy.get(shard_id, 0.0)
            elif shard_id in self._workers:
                info = self._workers[shard_id].info
            else:
                info = {}
            for key, default in self._INFO_KEYS:
                entry[key] = info.get(key, default)
            entry["applied_epoch"] = info.get("applied_epoch", 0)
            per_shard.append(entry)
        depths = []
        for handle in self._workers.values():
            try:
                depths.append(handle.tasks.qsize())
            except (NotImplementedError, OSError):
                depths.append(-1)
        return {
            "engine": self.name,
            "filters": self.filter_count,
            "epoch": self._epoch,
            "inner": self.inner,
            "shards": self.shards,
            "strategy": self.strategy,
            "placement": self.placement,
            "backend": self.backend,
            "runtime": self.options.runtime,
            "schema_mode": self.options.schema_mode,
            "parallel": self.parallel,
            "serial_fallback": not self.parallel,
            "batch_size": self.batch_size,
            "queue_depth": self.queue_depth,
            "documents": self.documents,
            "batches": self.batches,
            "worker_restarts": self.worker_restarts,
            "resident_bytes": sum(e["resident_bytes"] for e in per_shard),
            "evictions": sum(e["evictions"] for e in per_shard),
            "xpush_states": sum(e["xpush_states"] for e in per_shard),
            "queue_depths": depths,
            "per_shard": per_shard,
            "shard_load": loads,
            "imbalance": self.imbalance(),
            "rebalances": self.rebalances,
            "splits": self.splits,
            "merges": self.merges,
            "migrations": self.migrations,
            "batch_latency": self.latency.snapshot(),
            "first_match_latency": self.first_match.snapshot(),
            "critical_path_latency": self.critical_path.snapshot(),
        }

    def _stop_handle(self, handle: "_WorkerHandle") -> None:
        if handle.process is None:
            return
        try:
            handle.tasks.put_nowait(("stop",))
        except queue_module.Full:
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)

    def _shutdown_workers(self) -> None:
        for handle in self._workers.values():
            self._stop_handle(handle)
        self._workers.clear()
        for engine in self._engines.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        self._engines.clear()

    def close(self) -> None:
        """Stop all workers; the engine cannot filter afterwards."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_workers()

    def __enter__(self) -> "ShardedFilterEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

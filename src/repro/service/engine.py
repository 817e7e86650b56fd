"""The parent-side orchestrator: :class:`ShardedFilterEngine`.

Scaling model (see ``docs/scaling.md``): the *workload* is partitioned
into N shards; every document batch fans out to all shards and the
per-shard oid sets are unioned, so the engine's answers are exactly
the serial machine's answers regardless of N or placement policy.

**What the orchestrator owns.**  The XPush machine is a cache over the
workload (Sec. 7-8: it "can be deleted ... and recomputed later"), so
the only durable state here is *which filter lives where*: the oid →
shard **routing table** and the oid → XPath **sources**.  Everything a
shard needs — at boot, after a crash, after ``restore()`` — is projected
from those two at that moment (``_boot_payload``); ``snapshot()`` is
those two plus the epoch.  A shard itself is an inner
:class:`~repro.engine.protocol.FilterEngine` (``config.inner`` names
the kind; the default ``"layered"`` keeps updates from flushing a
warmed base table) behind the seam in :mod:`repro.service.shard`:
in-process when ``shards == 1``, ``parallel=False`` or
``multiprocessing`` is unusable (``stats()["serial_fallback"]``), a
worker process otherwise — same API, same batch path, same answers.

**Update control plane.**  ``subscribe`` / ``unsubscribe`` / ``compact``
and the placement verbs ``rebalance`` / ``split`` / ``merge``
(:mod:`repro.service.placement`) are each written once: validate in the
parent (bad XPath or duplicate oid never reaches a shard), bump the
*epoch*, update routing + sources, *then* call the shard verb.  That
order is the whole crash story: a worker that dies at any point is
respawned from the current projection, so every update is applied
exactly once and no control message is ever replayed.  A migration is a
subscribe on the target plus an unsubscribe on the source (add before
remove — transient double-residency is benign because answers are
unioned, a gap would drop matches).  Verbs run between batch fan-outs
and ``filter_batch`` drains its in-flight work before returning, so
every batch is answered entirely pre-update or entirely post-update.
Batch replies carry the shard's ``applied_epoch``, so answers are
attributable to a workload version.

**Data plane** — one for both kinds of shard.  ``filter_stream`` runs
one boundary scan over the source
(:func:`~repro.xmlstream.split.split_documents`: well-formed or
:class:`~repro.errors.XMLSyntaxError`, before anything is shipped) and
submits every shard the source's own UTF-8 slice per document;
``filter_batch`` submits ``document_to_xml`` texts.  The parent builds
no DOM.  Every shard answers in :func:`~repro.service.worker.run_batch`'s
messages and ``_fold`` alone reads them: match dedupe, epoch tags and a
failed batch (:class:`ServiceError`) work alike for both.  ``parallel``
decides only where a reply is read and what the critical path records.
An in-process shard answers inside ``submit`` (its ``on_match`` calls
arrive as it finishes the batch) and the path is modelled as the
slowest shard's ``batch_s``; a worker's replies are awaited with
``multiprocessing.connection.wait`` on every result pipe and process
sentinel, and the path is the wall time to the last reply.  In-flight
batches are capped at ``queue_depth``.  A dead worker is restarted,
every batch it had not answered is resubmitted (re-answered at the
*current* epoch), and duplicates from the pre-crash incarnation are
discarded idempotently.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import IO, Any, Iterable, Mapping, Sequence, Union, cast

from repro.engine.config import EngineConfig
from repro.engine.factory import engine_names
from repro.engine.protocol import MatchHook
from repro.errors import WorkloadError
from repro.service.latency import LatencyTracker
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
from repro.service.shard import DocumentText, LocalShard, ServiceError, WorkerShard
from repro.service.worker import build_payload
from repro.xmlstream.dom import Document, documents_of_events
from repro.xmlstream.events import EndDocument, Event
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.options import XPushOptions

__all__ = ["ServiceError", "ShardedFilterEngine"]

#: ``snapshot()`` format tag of the sharded engine itself.
SNAPSHOT_FORMAT = "repro-sharded-engine"
SNAPSHOT_VERSION = 2


def _mp_context() -> Any:
    """A usable multiprocessing context (``fork`` where the platform
    has it), or None — the serial fallback."""
    try:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    except (ImportError, ValueError, OSError):
        return None


def _picklable(value: Any) -> bool:
    import pickle

    try:
        pickle.dumps(value)
        return True
    except Exception:  # noqa: BLE001 - any failure means "do not ship it"
        return False


def _shippable(config: EngineConfig) -> EngineConfig:
    """*config* as it can cross the process boundary.

    A DTD that cannot be pickled is dropped; the order optimisation
    needs it, so that switches off in the workers — a performance knob
    only, answers are unchanged.
    """
    if config.dtd is None or _picklable(config.dtd):
        return config
    options = replace(config.options, order=False, train=False)
    return replace(config, dtd=None, options=options)


def _known_inner(inner: str) -> str:
    """*inner* if the registry has it — asked before any shard exists,
    or a worker process is where the name is first looked up and the
    refusal comes back as a failed batch."""
    if inner not in engine_names():
        raise WorkloadError(f"unknown inner engine {inner!r}; known: {engine_names()}")
    return inner


def _snapshot_sources(snap: dict | None) -> dict[str, str]:
    """The version-1 snapshot reader: the live oid → XPath sources one
    of its per-shard inner-engine snapshots describes (base plus delta
    minus tombstones, read by the inner formats' own reader)."""
    if not isinstance(snap, dict):
        return {}
    from repro.xpush.layered import snapshot_layers

    base, delta, tombstones = snapshot_layers(snap)
    sources = {**base, **delta}
    for oid in tombstones:
        sources.pop(oid, None)
    return sources


class ShardedFilterEngine:
    """Filter document batches against a workload split over N shards.

    Args:
        filters: the workload (``XPathFilter`` list, or oid→xpath
            mapping / list of sources as accepted by ``parse_workload``).
        shards: number of shards (1 = serial, no processes); shorthand
            for the ``shards=`` field of *config*.
        config: the consolidated :class:`~repro.engine.config.EngineConfig`
            (default ``EngineConfig(engine="sharded")``) — every knob and
            every default lives there.
        sample_documents: optional document sample seeding the cost
            model's σ̂ before the boot placement.
        **overrides: ``EngineConfig`` fields replaced on *config*
            (``options=``, ``batch_size=``, ``parallel=``, …); anything
            that is not a field is a ``TypeError``.
    """

    name = "sharded"

    def __init__(
        self,
        filters: Sequence[XPathFilter] | dict[str, str] | list[str],
        shards: int | None = None,
        *,
        config: EngineConfig | None = None,
        sample_documents: Sequence[Document] | None = None,
        **overrides: Any,
    ):
        config = config or EngineConfig(engine="sharded")
        if shards is not None:
            overrides["shards"] = int(shards)
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        # Workload-level facts a restore / split / merge may change.
        self.shards = config.shards
        self.inner = _known_inner(config.inner)
        self.placement = config.placement
        self.rebalance_threshold = config.rebalance_threshold

        if filters and not isinstance(next(iter(filters)), XPathFilter):
            filters = parse_workload(filters)  # type: ignore[arg-type]
        parsed: list[XPathFilter] = list(filters)  # type: ignore[arg-type]

        self.documents = 0
        self.batches = 0
        self.rebalances = 0
        self.splits = 0
        self.merges = 0
        self.migrations = 0
        self.latency = LatencyTracker()
        #: Per-fan-out critical path: the wall time to the last worker
        #: reply, or in-process the slowest shard's ``batch_s`` —
        #: *modelled*, what an ideally parallel run of this placement
        #: would pay, which is what the placement benchmarks gate on.
        self.critical_path = LatencyTracker()
        #: Submit → first delivered match, per document that matched
        #: anything (populated while an ``on_match`` sink is attached).
        self.first_match = LatencyTracker()
        #: Event-time match sink (FilterEngine protocol): fired as
        #: shard match messages are folded, ahead of batch completion.
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
        #: shard id → shard handle (all local or all workers).
        self._shards: dict[int, LocalShard | WorkerShard] = {}
        # Restarts of workers since retired by merge() / restore().
        self._retired_restarts = 0
        #: The routing table: oid → owning shard for every *live*
        #: subscription.  With ``_sources`` it is the single source of
        #: truth: snapshots carry it and shards boot from its projection.
        self._routing: dict[str, int] = {}
        #: oid → XPath source of every live subscription.
        self._sources: dict[str, str] = {}
        #: Per-filter cost model (AFA states × σ̂); maintained under
        #: both policies so the load gauges never go dark.
        self._cost = CostModel()
        # Batch count at the last auto-rebalance check.
        self._auto_marker = 0
        for xpath_filter in parsed:
            self._cost.add(xpath_filter)
            self._sources[xpath_filter.oid] = xpath_filter.source or str(
                xpath_filter.path
            )
        if sample_documents:
            self._cost.seed(parsed, list(sample_documents))

        self._ctx = None
        parallel = config.parallel
        if parallel is None:
            parallel = self.shards > 1
        if parallel and self.shards > 1:
            self._ctx = _mp_context()
        self.parallel = self._ctx is not None

        placed = place_filters(parsed, self.shards, self._cost, self.placement)
        for shard_id, shard_filters in enumerate(placed):
            for xpath_filter in shard_filters:
                self._routing[xpath_filter.oid] = shard_id
        self._boot_shards()

    # ------------------------------------------------------------------
    # Shards: built from the routing projection, whenever one is needed
    # ------------------------------------------------------------------

    def _projection(self, shard_id: int) -> dict[str, str]:
        """Shard *shard_id*'s workload (oid → XPath) as the routing
        table and sources have it right now."""
        return {
            oid: self._sources[oid]
            for oid, shard in self._routing.items()
            if shard == shard_id
        }

    def _boot_payload(self, shard_id: int, config: EngineConfig, epoch: int) -> dict:
        return build_payload(
            config,
            self._projection(shard_id),
            epoch=epoch,
            warm=self.config.warm,
            training_seed=self.config.training_seed,
        )

    def _make_shard(self, shard_id: int) -> LocalShard | WorkerShard:
        # The per-shard config is fixed for the shard's life: restore()
        # — the one thing that changes it — rebuilds every shard.
        config = replace(self.config, engine=self.inner, shards=1, parallel=False)
        if not self.parallel:
            boot = partial(self._boot_payload, shard_id, config)
            return LocalShard(shard_id, boot, epoch=self._epoch)
        return WorkerShard(
            shard_id,
            partial(self._boot_payload, shard_id, _shippable(config)),
            self._ctx,
            self.config.queue_depth,
            self.config.result_timeout,
            epoch=self._epoch,
        )

    def _boot_shards(self) -> None:
        self._shards = {
            shard_id: self._make_shard(shard_id) for shard_id in range(self.shards)
        }

    @property
    def _workers(self) -> dict[int, WorkerShard]:
        """The shards that are worker processes: all of them or none."""
        return self._shards if self.parallel else {}  # type: ignore[return-value]

    @property
    def worker_restarts(self) -> int:
        return self._retired_restarts + sum(
            shard.restarts for shard in self._shards.values()
        )

    # ------------------------------------------------------------------
    # Update control plane — every verb: parent state first, shard after
    # ------------------------------------------------------------------

    @property
    def options(self) -> XPushOptions:
        """The machine options every shard runs (a restore may change
        their runtime)."""
        return self.config.options

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

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("engine is closed")

    def subscribe(self, oid: str, xpath: str) -> None:
        """Add a filter while serving.  Validated here, applied on the
        shard the placement policy picks (CRC-32 under ``hash``, the
        lightest shard under ``cost``) without flushing its warmed base
        tables."""
        self._check_open()
        if oid in self._routing:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        parsed = parse_xpath(xpath, oid)  # eager; shards trust the parent
        loads = self.shard_load() if self.placement == "cost" else ()
        shard_id = route_new(oid, loads, self.placement, self.shards)
        # Costing compiles the filter; one the AFA build refuses must
        # stop here, before the routing table names it.
        self._cost.add(parsed)
        self._epoch += 1
        self._routing[oid] = shard_id
        self._sources[oid] = xpath
        self._shards[shard_id].subscribe(oid, xpath, self._epoch)

    def unsubscribe(self, oid: str) -> None:
        """Drop a filter while serving; a tombstone on its shard until
        the next compaction."""
        self._check_open()
        if oid not in self._routing:
            raise WorkloadError(f"unknown oid {oid!r}")
        shard_id = self._routing.pop(oid)
        del self._sources[oid]
        self._cost.drop(oid)
        self._epoch += 1
        self._shards[shard_id].unsubscribe(oid, self._epoch)

    def compact(self) -> None:
        """Fold every shard's delta and tombstones into its base (a
        layered shard appends; the brute-force rebuild is its
        renumbering rule's to call)."""
        self._check_open()
        self._epoch += 1
        for shard in self._shards.values():
            shard.compact(self._epoch)

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
        """Seed the cost model's σ̂ for the *live* workload from a
        document sample (the live match-rate feedback keeps refining it
        afterwards)."""
        live = [parse_xpath(source, oid) for oid, source in self._sources.items()]
        self._cost.seed(live, list(documents))

    def _plan_rebalance(self) -> list[Move]:
        return plan_rebalance(
            self._routing, self._cost.costs(), self.shards, self.rebalance_threshold
        )

    def rebalance(self) -> list[Move]:
        """Migrate filters between shards until the cost-model
        imbalance is within ``rebalance_threshold`` (or no single move
        improves it); returns the executed moves.  One epoch bump for
        the whole plan."""
        self._check_open()
        moves = self._plan_rebalance()
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
        """Add one shard (empty) and rebalance filters onto it; returns
        the new shard count."""
        self._check_open()
        new_id = self.shards
        self.shards += 1
        self._epoch += 1
        self._shards[new_id] = self._make_shard(new_id)
        self.splits += 1
        moves = self._plan_rebalance()
        if moves:
            self._apply_moves(moves)
        return self.shards

    def merge(self) -> int:
        """Drain the last shard onto the others and retire it; returns
        the new shard count."""
        self._check_open()
        if self.shards <= 1:
            raise ServiceError("cannot merge a single-shard engine")
        victim = self.shards - 1
        moves = plan_drain(victim, self._routing, self._cost.costs(), self.shards)
        self._epoch += 1
        self.migrations += len(moves)
        for move in moves:
            self._routing[move.oid] = move.target
            self._shards[move.target].subscribe(
                move.oid, self._sources[move.oid], self._epoch
            )
        # The victim needs no per-filter unsubscribes — the whole shard
        # is retired with its state.
        self._retire(self._shards.pop(victim))
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
            self._routing[move.oid] = move.target
            self._shards[move.target].subscribe(
                move.oid, self._sources[move.oid], self._epoch
            )
            self._shards[move.source].unsubscribe(move.oid, self._epoch)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filter_batch(self, documents: Iterable[Document]) -> list[frozenset[str]]:
        """Filter *documents*; one oid-set per document, serial-identical.
        Each shard parses its own serialised copy of every document."""
        return self._filter([document_to_xml(doc) for doc in documents])

    def _filter(self, texts: Sequence[DocumentText]) -> list[frozenset[str]]:
        """The one data path: single-document *texts* fanned out to
        every shard, plus the bookkeeping every filter call shares."""
        self._check_open()
        if not texts:
            return []
        self.documents += len(texts)
        if not self._routing:
            # No live filter can match; tombstoned machines would only
            # produce answers the merge drops anyway.
            self.batches += 1
            return [frozenset()] * len(texts)
        results = self._fan_out(texts)
        # Live selectivity feedback: fold the answered match rates into
        # the cost model, then let hot-shard detection act on them.
        self._cost.observe(results)
        interval = self.config.rebalance_interval
        if (
            self.placement == "cost"
            and interval > 0
            and self.batches - self._auto_marker >= interval
        ):
            self._auto_marker = self.batches
            self.maybe_rebalance()
        return results

    def _fan_out(self, texts: Sequence[DocumentText]) -> list[frozenset[str]]:
        merged: list[set[str]] = [set() for _ in texts]
        outstanding: dict[int, dict] = {}
        emit = self.on_match is not None
        batch_size, queue_depth = self.config.batch_size, self.config.queue_depth
        try:
            for offset in range(0, len(texts), batch_size):
                while len(outstanding) >= queue_depth:
                    self._fold(self._receive(outstanding), outstanding, merged)
                chunk = texts[offset : offset + batch_size]
                self._batch_counter += 1
                batch_id = self._batch_counter
                outstanding[batch_id] = {
                    "offset": offset,
                    "size": len(chunk),
                    "waiting": set(self._shards),
                    "started": time.perf_counter(),
                    # The slowest shard's own batch seconds so far.
                    "slowest": 0.0,
                    # Event-time delivery bookkeeping: (doc_offset, oid)
                    # pairs already delivered (resubmitted batches
                    # re-stream their matches), and doc offsets whose
                    # first match has been latency-recorded.
                    "emitted": set(),
                    "firsts": set(),
                }
                for shard in self._shards.values():
                    shard.submit(batch_id, chunk, emit)
            while outstanding:
                self._fold(self._receive(outstanding), outstanding, merged)
        finally:
            # A call that gave up (a shard reported an error, nothing
            # moved for result_timeout) abandons its batches: a later
            # restart must not resubmit them, and _fold drops whatever
            # of theirs is still queued.  Empty on success.
            for batch_id in outstanding:
                for shard in self._workers.values():
                    shard.pending.pop(batch_id, None)
        return [frozenset(s) for s in merged]

    def _receive(self, outstanding: dict[int, dict]) -> tuple:
        """The next shard message, restarting workers that die first.

        In-process shards answered inside ``submit``: their replies
        are already queued.  Otherwise this blocks on every live
        worker's result pipe *and* process sentinel at once, so a reply
        or a crash wakes the parent the moment it happens.  Never a
        blocking read of one shared channel: each incarnation writes to
        a private pipe, so one dying mid-write can never wedge the
        others' answers.
        """
        if not self.parallel:
            for local in cast("dict[int, LocalShard]", self._shards).values():
                if local.replies:
                    return local.replies.popleft()
            raise ServiceError(f"no shard reply queued for batches {sorted(outstanding)}")
        from multiprocessing.connection import wait

        result_timeout = self.config.result_timeout
        deadline = time.monotonic() + result_timeout
        while True:
            readers = {shard.results: shard for shard in self._workers.values()}
            sentinels = [shard.process.sentinel for shard in self._workers.values()]
            remaining = deadline - time.monotonic()
            # Past the deadline nothing is read any more, so workers
            # that keep dying cannot keep the call alive either.
            ready = wait([*readers, *sentinels], remaining) if remaining > 0 else []
            if not ready:
                waiting = {
                    bid: sorted(info["waiting"]) for bid, info in outstanding.items()
                }
                raise ServiceError(
                    f"no shard progress for {result_timeout:.0f}s; "
                    f"waiting on {waiting}"
                )
            # A reply that beat its worker's death to the pipe is still
            # an answer: readable pipes first, sentinels after.
            for reader in ready:
                shard = readers.get(reader)
                if shard is None:
                    continue
                try:
                    return reader.recv()
                except (EOFError, OSError):
                    # End-of-file, possibly inside a frame: the worker
                    # died.  Whatever it had not answered is resubmitted.
                    shard.restart()
            for shard in self._workers.values():
                if shard.dead:
                    shard.restart()

    def _fold(self, message: tuple, outstanding: dict[int, dict], merged: list[set[str]]) -> None:
        """Apply one shard message to the call's in-flight state."""
        kind = message[0]
        if kind == "ready":
            _, shard_id, info = message
            if shard_id in self._workers:
                self._workers[shard_id].last_info = info
            return
        if kind == "match":
            # Event-time delivery: a shard decided one match mid-batch.
            # FIFO per-shard replies guarantee a shard's match messages
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
        shard = self._workers.get(shard_id)
        info_entry = outstanding.get(batch_id)
        if shard is not None:
            shard.last_info = info
            shard.pending.pop(batch_id, None)
        if info_entry is None or shard_id not in info_entry["waiting"]:
            return  # duplicate from a pre-crash incarnation
        if len(answers) != info_entry["size"]:
            raise ServiceError(
                f"shard {shard_id} returned {len(answers)} answers for a "
                f"batch of {info_entry['size']} documents"
            )
        info_entry["waiting"].discard(shard_id)
        info_entry["slowest"] = max(info_entry["slowest"], info["batch_s"])
        offset = info_entry["offset"]
        for index, oids in enumerate(answers):
            merged[offset + index] |= oids
        if not info_entry["waiting"]:
            self.batches += 1
            elapsed = time.perf_counter() - info_entry["started"]
            self.latency.record(elapsed)
            # In-process shards run one after another: model the path.
            self.critical_path.record(elapsed if self.parallel else info_entry["slowest"])
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
                    if len(docs) >= self.config.batch_size:
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

        The parent only finds the document boundaries and forwards the
        source's own bytes; a source that is not well-formed raises
        :class:`~repro.errors.XMLSyntaxError` here, before anything is
        shipped."""
        return self._filter(split_documents(source, self.config.backend))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture the sharded workload — routing table, sources, epoch
        — the same flat thing in both modes, and authoritative even
        while workers are mid-update (it never asks them)."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "shards": self.shards,
            "inner": self.inner,
            "placement": self.placement,
            "epoch": self._epoch,
            "routing": dict(self._routing),
            "filters": dict(self._sources),
        }

    @staticmethod
    def _snapshot_filters(snapshot: Mapping[str, Any]) -> dict[str, str]:
        """The oid → XPath sources of a version-2 or version-1 capture."""
        from repro.xpush.persist import PersistError

        version = snapshot.get("version")
        if version == SNAPSHOT_VERSION:
            filters = snapshot.get("filters")
            if not isinstance(filters, Mapping):
                raise PersistError("malformed sharded snapshot: filters")
            return {str(oid): str(xpath) for oid, xpath in filters.items()}
        if version != 1:
            raise PersistError(f"unsupported sharded snapshot version {version!r}")
        # Version 1 carried one inner-engine snapshot per shard.
        shard_snapshots = snapshot.get("shard_snapshots")
        if not isinstance(shard_snapshots, list) or len(shard_snapshots) != int(
            snapshot.get("shards", -1)
        ):
            raise PersistError("malformed sharded snapshot: shard_snapshots")
        sources: dict[str, str] = {}
        for shard_snapshot in shard_snapshots:
            sources.update(_snapshot_sources(shard_snapshot))
        return sources

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the workload with a :meth:`snapshot` capture; every
        shard is rebuilt from the captured routing table and sources."""
        from repro.xpush.persist import PersistError, restored_options

        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise PersistError("not a persisted sharded engine snapshot")
        options = restored_options(snapshot, self.options)
        sources = self._snapshot_filters(snapshot)
        routing = {
            str(oid): int(shard) for oid, shard in snapshot.get("routing", {}).items()
        }
        shards = int(snapshot.get("shards", 0))
        if shards < 1 or not all(0 <= shard < shards for shard in routing.values()):
            raise PersistError("malformed sharded snapshot: shards / routing")
        if not routing.keys() <= sources.keys():
            raise PersistError("malformed sharded snapshot: routed oid without a filter")
        inner = _known_inner(str(snapshot.get("inner", self.inner)))
        self.config = replace(self.config, options=options)
        self._stop_shards()
        self.shards = shards
        self.inner = inner
        self.placement = str(snapshot.get("placement", self.placement))
        self._epoch = int(snapshot.get("epoch", 0))
        self._routing = routing
        self._sources = {oid: sources[oid] for oid in routing}
        # σ̂ restarts from zero — live match rates are runtime state,
        # re-earned from traffic.
        self._cost = CostModel()
        for oid, source in self._sources.items():
            self._cost.add_source(oid, source)
        self._boot_shards()

    # ------------------------------------------------------------------
    # Test hooks, stats, lifecycle
    # ------------------------------------------------------------------

    def inject_crash(self, shard_id: int, exit_code: int = 17) -> None:
        """Make *shard_id*'s worker die on its next task (tests only)."""
        if not self._workers:
            raise ServiceError("inject_crash requires parallel mode")
        self._workers[shard_id].inject_crash(exit_code)

    #: What ``per_shard`` carries of a shard's ``info()``; 0 stands in
    #: while a worker has not reported yet (and under a baseline inner).
    _INFO_KEYS = (
        "afa_states",
        "xpush_states",
        "hit_ratio",
        "resident_bytes",
        "table_entries",
        "evictions",
        "gc_states",
        "base_states",
        "delta_states",
        "tombstones",
        "codegen_compile_ms",
        "codegen_handlers",
        "codegen_fallbacks",
        "busy_s",
        "applied_epoch",
    )

    def stats(self) -> dict:
        loads = self.shard_load()
        counts = [0] * self.shards
        for shard_id in self._routing.values():
            counts[shard_id] += 1
        per_shard = []
        for shard_id in range(self.shards):
            entry: dict = {
                "shard": shard_id,
                "filters": counts[shard_id],
                "load": loads[shard_id],
            }
            info = self._shards[shard_id].info()
            for key in self._INFO_KEYS:
                entry[key] = info.get(key, 0)
            per_shard.append(entry)
        depths = []
        for shard in self._workers.values():
            try:
                depths.append(shard.tasks.qsize())
            except (NotImplementedError, OSError):
                depths.append(-1)
        return {
            "engine": self.name,
            "filters": self.filter_count,
            "epoch": self._epoch,
            "inner": self.inner,
            "shards": self.shards,
            "placement": self.placement,
            "backend": self.config.backend,
            "runtime": self.options.runtime,
            "parallel": self.parallel,
            "serial_fallback": not self.parallel,
            "batch_size": self.config.batch_size,
            "queue_depth": self.config.queue_depth,
            "documents": self.documents,
            "batches": self.batches,
            "worker_restarts": self.worker_restarts,
            "resident_bytes": sum(e["resident_bytes"] for e in per_shard),
            "evictions": sum(e["evictions"] for e in per_shard),
            "xpush_states": sum(e["xpush_states"] for e in per_shard),
            "queue_depths": depths,
            "per_shard": per_shard,
            "shard_load": loads,
            "imbalance": imbalance(loads),
            "rebalances": self.rebalances,
            "splits": self.splits,
            "merges": self.merges,
            "migrations": self.migrations,
            "batch_latency": self.latency.snapshot(),
            "first_match_latency": self.first_match.snapshot(),
            "critical_path_latency": self.critical_path.snapshot(),
        }

    def _retire(self, shard: LocalShard | WorkerShard) -> None:
        self._retired_restarts += shard.restarts
        shard.stop()

    def _stop_shards(self) -> None:
        while self._shards:
            self._retire(self._shards.popitem()[1])

    def close(self) -> None:
        """Stop all shards; the engine cannot filter afterwards."""
        if self._closed:
            return
        self._closed = True
        self._stop_shards()

    def __enter__(self) -> "ShardedFilterEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

"""The parent-side orchestrator: :class:`ShardedFilterEngine`.

Scaling model (see ``docs/scaling.md``): the *workload* is partitioned
into N shards; every document batch fans out to all shards and the
per-shard oid sets are unioned, so the engine's answers are exactly
the serial machine's answers regardless of N.

**What the orchestrator owns.**  The XPush machine is a cache over the
workload (Sec. 7-8: it "can be deleted ... and recomputed later"), so
the only durable state here is the oid → XPath **sources**.  A filter's
shard is a pure function of its oid, :func:`shard_of_oid` (CRC-32), so
everything a shard needs — at boot, after a crash, after ``restore()``
— is projected from the sources at that moment (``_boot_payload``);
``snapshot()`` is the sources plus the epoch.  A shard itself is an inner
:class:`~repro.engine.protocol.FilterEngine` (``config.inner`` names
the kind; the default ``"layered"`` keeps updates from flushing a
warmed base table) behind the seam in :mod:`repro.service.shard`:
in-process when ``shards == 1``, ``parallel=False`` or
``multiprocessing`` is unusable (``stats()["serial_fallback"]``), a
worker process otherwise — same API, same batch path, same answers.

**Update control plane.**  ``subscribe`` / ``unsubscribe`` / ``compact``
are each written once: validate in the parent (a bad XPath, a filter
the AFA build refuses or a duplicate oid never reaches a shard), bump
the *epoch*, update the sources, *then* call the shard verb.  That
order is the whole crash story: a worker that dies at any point is
respawned from the current projection, so every update is applied
exactly once and no control message is ever replayed.  Verbs run
between batch fan-outs and ``filter_batch`` drains its in-flight work
before returning, so every batch is answered entirely pre-update or
entirely post-update.  Batch replies carry the shard's
``applied_epoch``, so answers are attributable to a workload version.

**Data plane** — one for both kinds of shard.  The parent parses
nothing.  ``filter_stream`` submits the publisher's UTF-8 bytes whole,
as one work item, to every shard: each shard's parse is the source's
only parse, its well-formedness check and its document count (the first
complete reply fixes the count; every other shard must agree).
``filter_batch`` submits ``document_to_xml`` texts cut into
``batch_size`` items; :data:`QUEUE_DEPTH` caps the items in flight.  Every
shard answers in :func:`~repro.service.worker.run_batch`'s messages and
``_fold`` alone reads them: match dedupe, epoch tags and a failed item
work alike for both.  A hooked item's matches come as at most two
frames per (shard, document) — the first match at once, the later ones
in one ``matches`` frame flushed before the shard's next first match or
its reply — so ``on_match`` may see a document's non-first matches up
to one document later than they were decided.  A shard that refuses an
item reports its error's class and text, and the parent re-raises a
library error as itself — a malformed source is the serial engine's
:class:`~repro.errors.XMLSyntaxError`, word for word — and anything
else as :class:`ServiceError`.  ``parallel`` decides only where a reply
is read and what the critical path records.  An in-process shard
answers inside ``submit`` (its ``on_match`` calls arrive as it finishes
the item) and the path is modelled as the slowest shard's ``batch_s``;
a worker's replies are awaited with ``multiprocessing.connection.wait``
on every result pipe and process sentinel, and the path is the wall
time to the last reply.  A dead worker is restarted, every item it had
not answered — a whole ``filter_stream`` source included — is
resubmitted (re-answered at the *current* epoch), and duplicates from
the pre-crash incarnation are discarded idempotently.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import replace
from functools import partial
from typing import IO, Any, Iterable, Mapping, Sequence, Union, cast

from repro import errors
from repro.engine.config import EngineConfig
from repro.engine.protocol import MatchHook
from repro.errors import ReproError, WorkloadError
from repro.service.latency import LatencyTracker
from repro.service.shard import DocumentText, LocalShard, ServiceError, WorkerShard
from repro.service.worker import build_payload
from repro.xmlstream.dom import Document, documents_of_events
from repro.xmlstream.events import EndDocument, Event
from repro.xmlstream.parser import _encode_utf8
from repro.xmlstream.writer import document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.options import XPushOptions
from repro.xpush.stats import merged

__all__ = ["ServiceError", "ShardedFilterEngine"]

#: One work item: the texts every shard filters, and their document
#: count — ``None`` for a ``filter_stream`` source, whose count only
#: the shards' parse can tell.
WorkItem = tuple[list[DocumentText], Union[int, None]]

#: ``snapshot()`` format tag of the sharded engine itself.
SNAPSHOT_FORMAT = "repro-sharded-engine"
SNAPSHOT_VERSION = 3

#: Work items in flight per call, and (plus slack) each worker's task
#: queue bound: the backpressure that keeps a long ``filter_batch``
#: from buffering every document ahead of the shards.
QUEUE_DEPTH = 4


def shard_of_oid(oid: str, shards: int) -> int:
    """The shard that owns *oid*: CRC-32 of its UTF-8 bytes — identical
    across processes and restarts, unlike the salted builtin ``hash``,
    and independent of subscription order."""
    return zlib.crc32(oid.encode("utf-8")) % shards


def imbalance(loads: Sequence[float]) -> float:
    """Hottest-shard load over mean load; 1.0 is perfectly balanced
    (and the degenerate empty / all-idle answer)."""
    total = sum(loads)
    if total <= 0.0:
        return 1.0
    return max(loads) / (total / len(loads))


#: Normalised path forms the AFA build has accepted.  Whether a filter
#: compiles depends only on its structure, never its oid, so a
#: deduplicated workload compiles each distinct filter once per process.
_COMPILES: set[str] = set()

#: Bound of :data:`_COMPILES`: past it the set is cleared, so a
#: long-lived parent under churn does not remember every filter it ever
#: saw (a miss is one single-filter AFA build, ~0.1 ms).
_COMPILES_LIMIT = 16_384


def _check_compiles(xpath_filter: XPathFilter) -> None:
    """Raise what the AFA build raises on *xpath_filter* (a filter too
    deep to compile), in the parent, before any shard or epoch changes
    — the shards trust the parent and would only fail a boot."""
    key = str(xpath_filter.path)
    if key not in _COMPILES:
        from repro.afa.build import build_workload_automata

        build_workload_automata([xpath_filter])
        if len(_COMPILES) >= _COMPILES_LIMIT:
            _COMPILES.clear()
        _COMPILES.add(key)


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


def _shard_error(shard_id: int, batch_id: int | None, name: str, text: str) -> ReproError:
    """A shard's failure as the parent raises it.  Every shard parses
    the same bytes with the same backend, so an item one refuses with a
    library error (``XMLSyntaxError``, ``MixedContentError``, …) is
    re-raised as that error with the same text — what the serial engine
    raises on the source.  Anything else — an inner engine's internal
    error, a failed boot or update — is a :class:`ServiceError`."""
    error_type = getattr(errors, name, None)
    if (
        batch_id is not None
        and isinstance(error_type, type)
        and issubclass(error_type, ReproError)
    ):
        return error_type(text)
    return ServiceError(f"shard {shard_id} failed on batch {batch_id}: {name}: {text}")


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
        **overrides: Any,
    ):
        config = config or EngineConfig(engine="sharded")
        if shards is not None:
            overrides["shards"] = int(shards)
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        # Workload-level facts a restore may change.
        self.shards = config.shards
        self.inner = config.inner

        if filters and not isinstance(next(iter(filters)), XPathFilter):
            filters = parse_workload(filters)  # type: ignore[arg-type]
        parsed: list[XPathFilter] = list(filters)  # type: ignore[arg-type]

        self.documents = 0
        self.batches = 0
        self.latency = LatencyTracker()
        #: Per-fan-out critical path: the wall time to the last worker
        #: reply, or in-process the slowest shard's ``batch_s`` —
        #: *modelled*, what an ideally parallel run of these shards
        #: would pay.
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
        # Restarts of workers since retired by restore().
        self._retired_restarts = 0
        #: oid → XPath source of every live subscription: the single
        #: source of truth, which snapshots carry and shards boot from.
        self._sources: dict[str, str] = {}
        for xpath_filter in parsed:
            _check_compiles(xpath_filter)
            self._sources[xpath_filter.oid] = xpath_filter.source or str(
                xpath_filter.path
            )

        self._ctx = None
        parallel = config.parallel
        if parallel is None:
            parallel = self.shards > 1
        if parallel and self.shards > 1:
            self._ctx = _mp_context()
        self.parallel = self._ctx is not None
        self._boot_shards()

    # ------------------------------------------------------------------
    # Shards: built from the sources' projection, whenever one is needed
    # ------------------------------------------------------------------

    def _projection(self, shard_id: int) -> dict[str, str]:
        """Shard *shard_id*'s workload (oid → XPath) as the sources
        have it right now."""
        return {
            oid: source
            for oid, source in self._sources.items()
            if shard_of_oid(oid, self.shards) == shard_id
        }

    def _boot_payload(self, shard_id: int, config: EngineConfig, epoch: int) -> dict:
        return build_payload(config, self._projection(shard_id), epoch)

    def _make_shard(self, shard_id: int) -> LocalShard | WorkerShard:
        # The per-shard config is fixed for the shard's life: restore()
        # — the one thing that changes it, through the inner kind —
        # rebuilds every shard.
        config = replace(self.config, engine=self.inner, shards=1, parallel=False)
        if not self.parallel:
            boot = partial(self._boot_payload, shard_id, config)
            return LocalShard(shard_id, boot, epoch=self._epoch)
        return WorkerShard(
            shard_id,
            partial(self._boot_payload, shard_id, _shippable(config)),
            self._ctx,
            QUEUE_DEPTH,
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
        """The machine options every shard runs."""
        return self.config.options

    @property
    def filter_count(self) -> int:
        return len(self._sources)

    @property
    def epoch(self) -> int:
        """The workload version: bumped by every update."""
        return self._epoch

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("engine is closed")

    def subscribe(self, oid: str, xpath: str) -> None:
        """Add a filter while serving.  Validated here — parsed and
        compiled, so a filter the AFA build refuses stops before the
        epoch moves — and applied on its CRC-32 shard without flushing
        that shard's warmed base tables."""
        self._check_open()
        if oid in self._sources:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        _check_compiles(parse_xpath(xpath, oid))  # eager; shards trust the parent
        self._epoch += 1
        self._sources[oid] = xpath
        self._shards[shard_of_oid(oid, self.shards)].subscribe(oid, xpath, self._epoch)

    def unsubscribe(self, oid: str) -> None:
        """Drop a filter while serving; a tombstone on its shard until
        the next compaction."""
        self._check_open()
        if oid not in self._sources:
            raise WorkloadError(f"unknown oid {oid!r}")
        del self._sources[oid]
        self._epoch += 1
        self._shards[shard_of_oid(oid, self.shards)].unsubscribe(oid, self._epoch)

    def compact(self) -> None:
        """Fold every shard's delta and tombstones into its base (a
        layered shard appends; the brute-force rebuild is its
        renumbering rule's to call)."""
        self._check_open()
        self._epoch += 1
        for shard in self._shards.values():
            shard.compact(self._epoch)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filter_batch(self, documents: Iterable[Document]) -> list[frozenset[str]]:
        """Filter *documents*; one oid-set per document, serial-identical.
        Each shard parses its own serialised copy of every document; the
        call is cut into ``batch_size``-document work items."""
        texts = [document_to_xml(doc) for doc in documents]
        size = self.config.batch_size
        chunks = [texts[offset : offset + size] for offset in range(0, len(texts), size)]
        return self._filter([(chunk, len(chunk)) for chunk in chunks])

    def _filter(self, items: Sequence[WorkItem]) -> list[frozenset[str]]:
        """The one data path: *items* fanned out to every shard."""
        self._check_open()
        outstanding: dict[int, dict] = {}
        entries: list[dict] = []
        emit = self.on_match is not None
        offset = 0  # an item of unknown size is a call's only item
        try:
            for texts, size in items:
                while len(outstanding) >= QUEUE_DEPTH:
                    self._fold(self._receive(outstanding), outstanding)
                self._batch_counter += 1
                batch_id = self._batch_counter
                entry = {
                    "offset": offset,
                    # The item's document count: None until the first
                    # complete reply fixes it.
                    "size": size,
                    "merged": [],
                    "waiting": set(self._shards),
                    "started": time.perf_counter(),
                    # The slowest shard's own batch seconds so far.
                    "slowest": 0.0,
                    # Event-time delivery bookkeeping: (doc_offset, oid)
                    # pairs already delivered (resubmitted items
                    # re-stream their matches), and doc offsets whose
                    # first match has been latency-recorded.
                    "emitted": set(),
                    "firsts": set(),
                }
                offset += size or 0
                entries.append(entry)
                outstanding[batch_id] = entry
                for shard in self._shards.values():
                    shard.submit(batch_id, texts, emit)
            while outstanding:
                self._fold(self._receive(outstanding), outstanding)
        finally:
            # A call that gave up (a shard reported an error, nothing
            # moved for result_timeout) abandons its items: a later
            # restart must not resubmit them, and _fold drops whatever
            # of theirs is still queued.  Empty on success.
            for batch_id in outstanding:
                for shard in self._workers.values():
                    shard.pending.pop(batch_id, None)
        return [frozenset(oids) for entry in entries for oids in entry["merged"]]

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

    def _fold(self, message: tuple, outstanding: dict[int, dict]) -> None:
        """Apply one shard message to the call's in-flight state."""
        kind = message[0]
        if kind == "ready":
            _, shard_id, info = message
            if shard_id in self._workers:
                self._workers[shard_id].last_info = info
            return
        if kind in ("match", "matches"):
            # Event-time delivery: a shard decided a document's first
            # match (``match``) or its later ones (one ``matches``
            # frame).  FIFO per-shard replies guarantee both precede the
            # shard's batch reply, so every match is folded in before
            # the batch completes.
            shard_id, batch_id = message[1], message[2]
            info_entry = outstanding.get(batch_id)
            if info_entry is None or shard_id not in info_entry["waiting"]:
                return  # late duplicate from a pre-crash incarnation
            emitted, firsts = info_entry["emitted"], info_entry["firsts"]
            base = self._doc_base + info_entry["offset"]
            hook = self.on_match
            for doc_offset, oid, event_index in (
                [message[3:]] if kind == "match" else message[3]
            ):
                key = (doc_offset, oid)
                if key in emitted:
                    continue  # resubmitted batch re-streamed this match
                emitted.add(key)
                if doc_offset not in firsts:
                    firsts.add(doc_offset)
                    self.first_match.record(time.perf_counter() - info_entry["started"])
                if hook is not None:
                    hook(oid, base + doc_offset, event_index)
            return
        if kind == "error":
            _, shard_id, batch_id, name, text = message
            if batch_id is not None and batch_id not in outstanding:
                return  # the other shards' word on a batch already given up on
            raise _shard_error(shard_id, batch_id, name, text)
        _, shard_id, batch_id, answers, info = message
        shard = self._workers.get(shard_id)
        info_entry = outstanding.get(batch_id)
        if shard is not None:
            shard.last_info = info
            shard.pending.pop(batch_id, None)
        if info_entry is None or shard_id not in info_entry["waiting"]:
            return  # duplicate from a pre-crash incarnation
        size = info_entry["size"]
        if size is None:  # the first complete reply fixes the count
            size = info_entry["size"] = len(answers)
        if len(answers) != size:
            raise ServiceError(
                f"shard {shard_id} returned {len(answers)} answers for an "
                f"item of {size} documents"
            )
        info_entry["waiting"].discard(shard_id)
        info_entry["slowest"] = max(info_entry["slowest"], info["batch_s"])
        unions = info_entry["merged"]
        if not unions:
            unions.extend(set() for _ in range(size))
        for mine, oids in zip(unions, answers):
            mine |= oids
        if not info_entry["waiting"]:
            self.batches += 1
            self.documents += size
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

        The parent parses nothing: it reads a file-like *source* into
        memory and ships the publisher's UTF-8 bytes whole, as one work
        item, to every shard, whose parse is the only one.  A source
        that is not well-formed raises the serial engine's
        :class:`~repro.errors.XMLSyntaxError`, word for word; the
        documents ahead of the fault were filtered and may already have
        fired ``on_match``, as on the layered engine.  ``batch_size``
        and :data:`QUEUE_DEPTH` do not cut a call; ``result_timeout``
        bounds its filtering on a shard."""
        if not isinstance(source, (str, bytes)):
            source = source.read()
        if isinstance(source, str):
            source = _encode_utf8(source)
        return self._filter([([source], None)])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture the sharded workload — sources and epoch — the same
        flat thing in both modes, and authoritative even while workers
        are mid-update (it never asks them)."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "shards": self.shards,
            "inner": self.inner,
            "epoch": self._epoch,
            "filters": dict(self._sources),
        }

    @staticmethod
    def _snapshot_filters(snapshot: Mapping[str, Any]) -> dict[str, str]:
        """The oid → XPath sources of a capture of any version.  A
        version-2 capture's ``routing`` and ``placement`` are not read:
        every filter lives on its CRC-32 shard, whatever it was written
        with, and the answers are the same."""
        from repro.xpush.persist import PersistError

        version = snapshot.get("version")
        if version in (2, SNAPSHOT_VERSION):
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
        shard is rebuilt from the captured sources, under this engine's
        own config.  A capture that is refused — malformed, or naming a
        filter that does not parse or compile — leaves the engine as it
        was: everything is checked before a shard is stopped."""
        from repro.xpush.persist import PersistError

        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise PersistError("not a persisted sharded engine snapshot")
        sources = self._snapshot_filters(snapshot)
        shards = int(snapshot.get("shards", 0))
        if shards < 1:
            raise PersistError("malformed sharded snapshot: shards")
        # Refused as EngineConfig refuses it, before any shard exists.
        inner = replace(self.config, inner=str(snapshot.get("inner", self.inner))).inner
        epoch = int(snapshot.get("epoch", 0))
        for oid, source in sources.items():
            _check_compiles(parse_xpath(source, oid))
        self._stop_shards()
        self.shards = shards
        self.inner = inner
        self._epoch = epoch
        self._sources = sources
        self._boot_shards()

    # ------------------------------------------------------------------
    # Test hooks, stats, lifecycle
    # ------------------------------------------------------------------

    def inject_crash(self, shard_id: int, exit_code: int = 17) -> None:
        """Make *shard_id*'s worker die on its next task (tests only)."""
        if not self._workers:
            raise ServiceError("inject_crash requires parallel mode")
        self._workers[shard_id].inject_crash(exit_code)

    def stats(self) -> dict[str, Any]:
        counts = [0] * self.shards
        for oid in self._sources:
            counts[shard_of_oid(oid, self.shards)] += 1
        loads = [float(count) for count in counts]
        # A shard's whole last report, over the zero block while its
        # worker has not reported yet.
        per_shard = [
            {**merged(()), **self._shards[shard_id].info(), "shard": shard_id, "filters": count}
            for shard_id, count in enumerate(counts)
        ]
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
            "backend": self.config.backend,
            "runtime": self.options.runtime,
            "serial_fallback": not self.parallel,
            "documents": self.documents,
            "batches": self.batches,
            "worker_restarts": self.worker_restarts,
            "queue_depths": depths,
            "per_shard": per_shard,
            "shard_load": loads,
            "imbalance": imbalance(loads),
            "batch_latency": self.latency.snapshot(),
            "first_match_latency": self.first_match.snapshot(),
            "critical_path_latency": self.critical_path.snapshot(),
            # The parent merges its workers' counters as a layered
            # engine merges its layers'.
            **merged(per_shard),
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

"""The parent-side orchestrator: :class:`ShardedFilterEngine`.

Scaling model (see ``docs/scaling.md``): every shard is a *replica* of
one engine over the whole workload, and the *documents* are dealt out —
each work item goes to exactly one shard — so the engine's answers are
exactly the serial engine's answers regardless of N.  The XPush machine
handles an event in amortised constant time whatever the workload's
size, so a shard holding half the filters would barely shorten its
pass; a shard holding half the documents halves it.

**What the orchestrator owns.**  One inner engine, compiled once, here,
over every filter (``config.inner`` names the kind; the default
``"layered"`` keeps updates from flushing a warmed base table).  It
never filters while there are workers: building it is the compile
check, and each worker — at boot and on every respawn — is forked with
it as its argument, so a replica inherits the compiled automata, a
trained machine, options and DTD as they are, with nothing pickled and
nothing compiled twice.  The oid → XPath **sources** are what
``snapshot()`` writes, with the epoch.  A shard sits behind the seam in
:mod:`repro.service.shard`: in-process when ``shards == 1``,
``parallel=False`` or the platform cannot ``fork``
(``stats()["serial_fallback"]``) — every local shard is then the
orchestrator's engine itself, taking turns on it — a worker process
otherwise; same API, same batch path, same answers.

**Update control plane.**  ``subscribe`` / ``unsubscribe`` / ``compact``
are each written once: applied to the orchestrator's engine first (a
bad XPath, a filter the AFA build refuses or a duplicate oid fails
there, before any epoch or shard changes), then the *epoch* is bumped
and the verb is broadcast to every shard.  That order is the whole
crash story: a worker that dies at any point is forked again from the
updated engine, so every update is applied exactly once and no control
message is ever replayed.  Verbs run between filter calls, and a call
drains its in-flight work before returning, so every call is answered
entirely pre-update or entirely post-update.  Batch replies carry the
shard's ``applied_epoch``, so answers are attributable to a workload
version.

**Data plane** — one for both kinds of shard.  ``filter_stream`` cuts
the publisher's UTF-8 bytes with one boundary scan
(:func:`~repro.xmlstream.split.split_documents`) into ``min(shards, n)``
contiguous runs of whole documents, one work item each; a source the scan refuses is shipped whole as one
item, so the error the caller sees is the shard parse's — the serial
engine's, word for word.  ``filter_batch`` submits ``document_to_xml``
texts cut into ``batch_size`` items.  Each item goes to the shard with
the fewest items outstanding (then the fewest documents answered), and
at most :data:`QUEUE_DEPTH` items per shard are in flight.  Every shard
answers in :func:`~repro.service.worker.run_batch`'s messages and
``_fold`` alone reads them: match dedupe, epoch tags and a failed item
work alike for both.  A hooked item's matches come as at most two
frames per document — the first match at once, the later ones in one
``matches`` frame flushed before the shard's next first match or its
reply — so ``on_match`` may see a document's non-first matches up to
one document later than they were decided.  A shard that refuses an
item reports its error's class and text; the call raises the failure
of its earliest failed item once every item ahead of it is answered,
a library error as itself and anything else as :class:`ServiceError`.
``parallel`` decides only where a reply is read and what the critical
path records.  An in-process shard answers inside ``submit`` and the
path is modelled as its ``batch_s``; a worker's replies are awaited
with ``multiprocessing.connection.wait`` on every result pipe and
process sentinel, and the path is the wall time to the reply.  A dead
worker is restarted, every item it had not answered is resubmitted
(re-answered at the *current* epoch), and duplicates from the pre-crash
incarnation are discarded idempotently.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import replace
from typing import IO, Any, Iterable, Mapping, Sequence, Union, cast

from repro import errors
from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.engine.protocol import FilterEngine, MatchHook
from repro.errors import ReproError, WorkloadError, XMLSyntaxError
from repro.service.latency import LatencyTracker
from repro.service.shard import DocumentText, LocalShard, ServiceError, WorkerShard
from repro.xmlstream.dom import Document, documents_of_events
from repro.xmlstream.events import EndDocument, Event
from repro.xmlstream.parser import _encode_utf8
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml
from repro.xpath.ast import XPathFilter
from repro.xpush.options import XPushOptions
from repro.xpush.stats import merged

__all__ = ["ServiceError", "ShardedFilterEngine"]

#: One work item: the texts one shard filters, and their document
#: count — ``None`` for a source the boundary scan refused, shipped
#: whole, whose count only the shard's parse can tell.
WorkItem = tuple[list[DocumentText], Union[int, None]]

#: ``snapshot()`` format tag of the sharded engine itself.
SNAPSHOT_FORMAT = "repro-sharded-engine"
SNAPSHOT_VERSION = 3

#: Work items in flight per shard and call, and (plus slack) each
#: worker's task queue bound: the backpressure that keeps a long
#: ``filter_batch`` from buffering every document ahead of the shards.
QUEUE_DEPTH = 4


def imbalance(loads: Sequence[float]) -> float:
    """Hottest-shard load over mean load; 1.0 is perfectly balanced
    (and the degenerate empty / all-idle answer)."""
    total = sum(loads)
    if total <= 0.0:
        return 1.0
    return max(loads) / (total / len(loads))


def _mp_context() -> Any:
    """The ``fork`` multiprocessing context, or None — the serial
    fallback: a worker is a replica only if it can inherit the
    parent's engine."""
    try:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        return multiprocessing.get_context("fork")
    except (ImportError, ValueError, OSError):
        return None


def _shard_error(shard_id: int, batch_id: int | None, name: str, text: str) -> ReproError:
    """A shard's failure as the parent raises it.  A shard parses its
    item as the serial engine does, so an item it refuses with a
    library error (``XMLSyntaxError``, ``MixedContentError``, …) is
    re-raised as that error with the same text — what the serial engine
    raises on the source.  Anything else — an inner engine's internal
    error, a failed update — is a :class:`ServiceError`."""
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
    """Filter documents dealt over N replicas of one engine.

    Built by :func:`~repro.engine.factory.create_engine` for
    ``EngineConfig(engine="sharded")``: *filters* are the parsed
    workload, and *config* holds every knob (``shards``, ``inner``,
    ``parallel``, …).
    """

    name = "sharded"

    def __init__(self, filters: Sequence[XPathFilter], config: EngineConfig):
        self.config = config
        # Workload-level facts a restore may change.
        self.shards = config.shards
        self.inner = config.inner

        self.documents = 0
        self.batches = 0
        self.latency = LatencyTracker()
        #: Per-item critical path: the wall time to the worker's reply,
        #: or in-process the answering shard's ``batch_s`` —
        #: *modelled*, what an ideally parallel run would pay.
        self.critical_path = LatencyTracker()
        #: Submit → first delivered match, per document that matched
        #: anything (populated while an ``on_match`` sink is attached).
        self.first_match = LatencyTracker()
        #: Event-time match sink (FilterEngine protocol): fired as
        #: shard match messages are folded, ahead of batch completion.
        #: ``doc_index`` is relative to the current filter call;
        #: ``event_index`` is the deciding event within the document.
        #: Emission order is monotone per shard, not globally — shards
        #: answer their documents independently.
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
        #: Documents each shard has answered since it was built.
        self._loads: list[int] = []
        # Restarts of workers since retired by restore().
        self._retired_restarts = 0
        #: oid → XPath source of every live subscription: what
        #: snapshots carry.
        self._sources = {f.oid: f.source or str(f.path) for f in filters}
        #: The one compiled engine every shard is a replica of.
        self._engine = self._compile(filters, self.inner)

        self._ctx = None
        parallel = config.parallel
        if parallel is None:
            parallel = self.shards > 1
        if parallel and self.shards > 1:
            self._ctx = _mp_context()
        self.parallel = self._ctx is not None
        self._boot_shards()

    # ------------------------------------------------------------------
    # Shards: replicas of the orchestrator's engine
    # ------------------------------------------------------------------

    def _compile(
        self, filters: Iterable[XPathFilter] | Mapping[str, str], inner: str
    ) -> FilterEngine:
        """The *inner* engine over *filters*: the workload's one compile,
        and its check — what the AFA build refuses is raised here."""
        config = replace(self.config, engine=inner, shards=1, parallel=False)
        return create_engine(config, filters)  # type: ignore[arg-type]

    def _make_shard(self, shard_id: int) -> LocalShard | WorkerShard:
        if not self.parallel:
            return LocalShard(shard_id, self._engine, epoch=self._epoch)
        return WorkerShard(
            shard_id,
            self._engine,
            self._ctx,
            QUEUE_DEPTH,
            self.config.result_timeout,
            epoch=self._epoch,
        )

    def _boot_shards(self) -> None:
        self._loads = [0] * self.shards
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
    # Update control plane — every verb: engine first, shards after
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
        """Add a filter while serving.  Compiled into the orchestrator's
        engine first — so a filter the AFA build refuses stops before
        the epoch moves — then applied on every replica without flushing
        its warmed base tables."""
        self._check_open()
        if oid in self._sources:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        self._engine.subscribe(oid, xpath)
        self._epoch += 1
        self._sources[oid] = xpath
        for shard in self._shards.values():
            shard.subscribe(oid, xpath, self._epoch)

    def unsubscribe(self, oid: str) -> None:
        """Drop a filter while serving; a tombstone on every replica
        until the next compaction."""
        self._check_open()
        if oid not in self._sources:
            raise WorkloadError(f"unknown oid {oid!r}")
        self._engine.unsubscribe(oid)
        del self._sources[oid]
        self._epoch += 1
        for shard in self._shards.values():
            shard.unsubscribe(oid, self._epoch)

    def compact(self) -> None:
        """Fold every replica's delta and tombstones into its base (a
        layered engine appends; the brute-force rebuild is its
        renumbering rule's to call)."""
        self._check_open()
        self._engine.compact()
        self._epoch += 1
        for shard in self._shards.values():
            shard.compact(self._epoch)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filter_batch(self, documents: Iterable[Document]) -> list[frozenset[str]]:
        """Filter *documents*; one oid-set per document, serial-identical.
        The call is cut into ``batch_size``-document work items, each
        serialised and parsed by the one shard it is dealt to."""
        texts = [document_to_xml(doc) for doc in documents]
        size = self.config.batch_size
        chunks = [texts[offset : offset + size] for offset in range(0, len(texts), size)]
        return self._filter([(chunk, len(chunk)) for chunk in chunks])

    def _deal(self, outstanding: dict[int, dict]) -> int:
        """The shard the next item goes to: the fewest items of this
        call outstanding, then the fewest documents answered."""
        busy = Counter(entry["shard"] for entry in outstanding.values())
        return min(self._shards, key=lambda shard_id: (busy[shard_id], self._loads[shard_id]))

    def _filter(self, items: Sequence[WorkItem]) -> list[frozenset[str]]:
        """The one data path: each of *items* dealt to one shard."""
        self._check_open()
        outstanding: dict[int, dict] = {}
        entries: list[dict] = []
        settled = 0  # entries[:settled] are answered

        def fold() -> None:
            nonlocal settled
            self._fold(self._receive(outstanding), outstanding)
            while settled < len(entries) and entries[settled]["answers"] is not None:
                settled += 1
            # The earliest failed item's error is the serial engine's:
            # raised once every item ahead of it is answered.
            if settled < len(entries) and "error" in entries[settled]:
                raise entries[settled]["error"]

        emit = self.on_match is not None
        offset = 0  # an item of unknown size is a call's only item
        try:
            for texts, size in items:
                while len(outstanding) >= QUEUE_DEPTH * len(self._shards):
                    fold()
                shard_id = self._deal(outstanding)
                self._batch_counter += 1
                batch_id = self._batch_counter
                entry = {
                    "offset": offset,
                    # The item's document count: None until the reply
                    # of a source shipped whole fixes it.
                    "size": size,
                    "shard": shard_id,
                    "answers": None,
                    "started": time.perf_counter(),
                    # Event-time delivery bookkeeping: (doc_offset, oid)
                    # pairs already delivered (a resubmitted item
                    # re-streams its matches), and doc offsets whose
                    # first match has been latency-recorded.
                    "emitted": set(),
                    "firsts": set(),
                }
                offset += size or 0
                entries.append(entry)
                outstanding[batch_id] = entry
                self._shards[shard_id].submit(batch_id, texts, emit)
            while settled < len(entries):
                fold()
        finally:
            # A call that gave up (a shard reported an error, nothing
            # moved for result_timeout) abandons its items: a later
            # restart must not resubmit them, and _fold drops whatever
            # of theirs is still queued.  Empty on success.
            for batch_id in outstanding:
                for shard in self._workers.values():
                    shard.pending.pop(batch_id, None)
        return [oids for entry in entries for oids in entry["answers"]]

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
                waiting = {bid: entry["shard"] for bid, entry in outstanding.items()}
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
            batch_id = message[2]
            entry = outstanding.get(batch_id)
            if entry is None:
                return  # late duplicate from a pre-crash incarnation
            emitted, firsts = entry["emitted"], entry["firsts"]
            base = self._doc_base + entry["offset"]
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
                    self.first_match.record(time.perf_counter() - entry["started"])
                if hook is not None:
                    hook(oid, base + doc_offset, event_index)
            return
        if kind == "error":
            _, shard_id, batch_id, name, text = message
            error = _shard_error(shard_id, batch_id, name, text)
            if batch_id is None:
                raise error
            entry = outstanding.pop(batch_id, None)
            if entry is not None:  # else: an item already given up on
                if shard_id in self._workers:
                    self._workers[shard_id].pending.pop(batch_id, None)
                entry["error"] = error
            return
        _, shard_id, batch_id, answers, info = message
        shard = self._workers.get(shard_id)
        if shard is not None:
            shard.last_info = info
            shard.pending.pop(batch_id, None)
        entry = outstanding.get(batch_id)
        if entry is None:
            return  # duplicate from a pre-crash incarnation
        size = entry["size"]
        if size is None:  # a source shipped whole: the shard counted it
            size = entry["size"] = len(answers)
        if len(answers) != size:
            raise ServiceError(
                f"shard {shard_id} returned {len(answers)} answers for an "
                f"item of {size} documents"
            )
        entry["answers"] = answers
        self._loads[shard_id] += size
        self.batches += 1
        self.documents += size
        elapsed = time.perf_counter() - entry["started"]
        self.latency.record(elapsed)
        # An in-process shard's wall time includes its queue: model it.
        self.critical_path.record(elapsed if self.parallel else info["batch_s"])
        del outstanding[batch_id]

    def filter_document(self, document: Document) -> frozenset[str]:
        """Filter a single document (a batch of one)."""
        return self.filter_batch([document])[0]

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        """Filter a SAX event stream; one oid-set per document.

        Documents are cut at ``EndDocument`` boundaries and dealt out
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

        The parent reads a file-like *source* into memory, finds its
        document boundaries with one :func:`split_documents` scan and
        deals ``min(shards, n)`` contiguous runs of its documents out,
        one to a shard; the shards' parse is the only one.  A source
        that is not well-formed is shipped whole to one shard and
        raises the serial engine's :class:`~repro.errors.XMLSyntaxError`,
        word for word; an item a shard refuses raises that shard's
        error.  Documents ahead of the fault, and possibly after it on
        another shard, were filtered and may already have fired
        ``on_match``.  ``batch_size`` does not cut a call;
        ``result_timeout`` bounds a shard's filtering of its run."""
        if not isinstance(source, (str, bytes)):
            source = source.read()
        if isinstance(source, str):
            source = _encode_utf8(source)
        try:
            slices = split_documents(source)
        except XMLSyntaxError:
            # The scan's text may differ from the shard parse's: let the
            # shard report it.
            return self._filter([([source], None)])
        runs = min(self.shards, len(slices))
        cuts = [len(slices) * run // max(runs, 1) for run in range(runs + 1)]
        return self._filter(
            [([b"".join(slices[lo:hi])], hi - lo) for lo, hi in zip(cuts, cuts[1:])]
        )

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
        every shard holds every filter, whatever it was written with,
        and the answers are the same."""
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
        """Replace the workload with a :meth:`snapshot` capture; the
        engine is recompiled from the captured sources, under this
        engine's own config, and every shard is rebuilt from it.  A
        capture that is refused — malformed, or naming a filter that
        does not parse or compile — leaves the engine as it was: the new
        engine is built before a shard is stopped."""
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
        engine = self._compile(sources, inner)
        self._stop_shards()
        self._engine.close()
        self.shards = shards
        self.inner = inner
        self._epoch = epoch
        self._sources = sources
        self._engine = engine
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
        loads = [float(count) for count in self._loads]
        # A shard's whole last report, over the zero block while its
        # worker has not reported yet.
        per_shard = [
            {**merged(()), **shard.info(), "shard": shard_id}
            for shard_id, shard in self._shards.items()
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
            # The parent merges its replicas' counters as a layered
            # engine merges its layers'; in-process shards share one
            # engine, counted once.
            **merged(per_shard if self.parallel else [self._engine.stats()]),
        }

    def _retire(self, shard: LocalShard | WorkerShard) -> None:
        self._retired_restarts += shard.restarts
        shard.stop()

    def _stop_shards(self) -> None:
        while self._shards:
            self._retire(self._shards.popitem()[1])

    def close(self) -> None:
        """Stop all shards and release the compiled engine; the engine
        cannot filter afterwards."""
        if self._closed:
            return
        self._closed = True
        self._stop_shards()
        self._engine.close()

    def __enter__(self) -> "ShardedFilterEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

"""One shard of the sharded service, behind one seam.

A shard is either an inner engine in this process (:class:`LocalShard`)
or a worker process (:class:`WorkerShard`); the orchestrator
(:class:`~repro.service.engine.ShardedFilterEngine`) writes every
control verb and its one data plane against the surface the two share::

    submit(batch_id, texts, emit)
    subscribe(oid, xpath, epoch)   unsubscribe(oid, epoch)
    compact(epoch)                 info()                 stop()

Both kinds answer a batch in :func:`~repro.service.worker.run_batch`'s
messages — a worker down its result pipe, a local shard into ``replies``
inside ``submit`` — and the orchestrator folds them alike.

Who owns what: the orchestrator owns the *workload* — the routing table
and the XPath sources — and nothing else is durable.  A shard owns an
engine built from that: it is handed ``boot``, a callable returning the
shard's boot payload (:func:`~repro.service.worker.build_payload`) as
projected from routing + sources *at the moment of the call*, and calls
it whenever it needs an engine — once for a local shard, on every
(re)spawn for a worker.  :class:`WorkerShard` alone owns the process,
its task queue, its per-incarnation result pipe and the batches it has
not answered yet (``pending``).

Crash recovery is therefore true by construction: a respawned worker
boots the *current* workload, the stale queue dies with the old process,
and a control message lost with it is deliberately not re-sent — its
effect is already in the projection.  The one invariant callers keep:
update routing and sources **before** calling a control verb.

``epoch`` on a shard is the epoch of the last update routed to it (or
the one it was created at); a worker boots at that epoch, and both kinds
report it back as ``info()["applied_epoch"]``.
"""

from __future__ import annotations

import queue as queue_module
import time
from collections import deque
from typing import Any, Callable, Sequence, Union

from repro.errors import ReproError
from repro.service import worker


class ServiceError(ReproError):
    """Raised when the sharded service cannot complete a batch."""


#: One document on the wire: a UTF-8 slice of the publisher's source
#: (``filter_stream``) or a serialised DOM (``filter_batch``).
DocumentText = Union[str, bytes]

#: ``boot(epoch)`` → the shard's boot payload, derived by the
#: orchestrator from its routing table and sources when called.
Boot = Callable[[int], dict]


class _Shard:
    """The control verbs, written once over each kind's ``_control``."""

    def _control(self, epoch: int, *op: str) -> None:
        raise NotImplementedError

    def subscribe(self, oid: str, xpath: str, epoch: int) -> None:
        self._control(epoch, "subscribe", oid, xpath)

    def unsubscribe(self, oid: str, epoch: int) -> None:
        self._control(epoch, "unsubscribe", oid)

    def compact(self, epoch: int) -> None:
        self._control(epoch, "compact")


class LocalShard(_Shard):
    """A shard hosted in this process: the inner engine, called directly."""

    restarts = 0  # an in-process engine has no process to lose

    def __init__(self, shard_id: int, boot: Boot, epoch: int = 0):
        self.shard_id = shard_id
        self.epoch = epoch
        #: Cumulative seconds spent filtering (workers measure their own).
        self.busy_s = 0.0
        #: Batch replies (worker protocol), oldest first, until read.
        self.replies: deque[tuple] = deque()
        self.engine = worker.build_engine(boot(epoch))

    def submit(self, batch_id: int, texts: Sequence[DocumentText], emit: bool) -> None:
        """Answer one batch now; its messages wait in ``replies``."""
        task = ("batch", batch_id, texts, emit)
        self.busy_s = worker.run_batch(
            self.engine, self.shard_id, task, self.epoch, self.busy_s, self.replies.append
        )

    def _control(self, epoch: int, *op: str) -> None:
        worker.apply_control(self.engine, *op)
        self.epoch = epoch

    def info(self) -> dict[str, Any]:
        return worker.engine_info(self.engine, self.epoch, self.busy_s)

    def stop(self) -> None:
        self.engine.close()


class WorkerShard(_Shard):
    """A shard hosted in a worker process (:mod:`repro.service.worker`).

    Control verbs are epoch-stamped messages on the same FIFO task queue
    as batches, so an update is visible to exactly the batches submitted
    after it.  :meth:`info` is the last report the worker sent (with its
    ready message and every batch reply).
    """

    def __init__(
        self,
        shard_id: int,
        boot: Boot,
        ctx: Any,
        queue_depth: int,
        result_timeout: float,
        epoch: int = 0,
    ):
        self.shard_id = shard_id
        self.epoch = epoch
        self.restarts = 0
        self.process = None
        self.tasks = None
        self.results = None
        # batch_id -> (texts, emit): everything needed to resubmit the
        # batch verbatim after a crash, match streaming included.
        self.pending: dict[int, tuple[Sequence[DocumentText], bool]] = {}
        self.last_info: dict[str, Any] = {}
        self._boot = boot
        self._ctx = ctx
        self._queue_depth = queue_depth
        self._result_timeout = result_timeout
        self._spawn()

    @property
    def dead(self) -> bool:
        return self.process is None or self.process.exitcode is not None

    def _spawn(self) -> None:
        for stale in (self.tasks, self.results):
            if stale is not None:  # free the dead incarnation's pipes
                try:
                    stale.close()
                except (OSError, ValueError):
                    pass
        # Small slack above queue_depth so a restart can always requeue
        # every pending batch without blocking on its own bound.
        self.tasks = self._ctx.Queue(maxsize=self._queue_depth + 2)
        # Per-incarnation result pipe: a worker hard-killed mid-write
        # leaves half a frame behind, which on a shared channel would
        # corrupt every other writer's stream, so no pipe is ever shared
        # between workers, and a restart abandons the old incarnation's
        # pipe (late pre-crash answers die with it).
        self.results, sender = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=worker.worker_main,  # looked up per spawn: tests patch it
            args=(self.shard_id, self._boot(self.epoch), self.tasks, sender),
            daemon=True,
            name=f"repro-shard-{self.shard_id}",
        )
        self.process.start()
        # The worker now holds the only write end, so its death reads
        # as end-of-file here — even in the middle of a frame.
        sender.close()

    def restart(self) -> None:
        """Respawn from the current projection and resubmit every batch
        the dead incarnation had not answered."""
        self.restarts += 1
        if self.process is not None:
            self.process.join(timeout=1.0)
        self._spawn()
        for batch_id, (texts, emit) in sorted(self.pending.items()):
            self.tasks.put(("batch", batch_id, texts, emit))

    def put_task(self, task: tuple) -> None:
        deadline = time.monotonic() + self._result_timeout
        while True:
            if self.dead:
                # restart() resubmits everything in self.pending —
                # including the batch this task may carry — and boots
                # the workload any control message would have changed.
                self.restart()
                return
            try:
                self.tasks.put(task, timeout=0.1)
                return
            except queue_module.Full:
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"shard {self.shard_id}: task queue stuck for "
                        f"{self._result_timeout:.0f}s"
                    ) from None

    def submit(self, batch_id: int, texts: Sequence[DocumentText], emit: bool) -> None:
        """Enqueue one batch; it stays in ``pending`` until answered."""
        self.pending[batch_id] = (texts, emit)
        self.put_task(("batch", batch_id, texts, emit))

    def _control(self, epoch: int, *op: str) -> None:
        self.epoch = epoch  # before the message: a respawn boots at it
        self.put_task(("control", epoch, *op))

    def info(self) -> dict[str, Any]:
        return self.last_info

    def inject_crash(self, exit_code: int = 17) -> None:
        """Make the worker die on its next task (tests only)."""
        self.tasks.put(("crash", exit_code))

    def stop(self) -> None:
        if self.process is None:
            return
        try:
            self.tasks.put_nowait(("stop",))
        except queue_module.Full:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)

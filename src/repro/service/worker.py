"""Worker-process side of the sharded filtering service.

Each worker is one replica of the parent's engine: the parent compiles
one inner :class:`~repro.engine.protocol.FilterEngine` over the whole
workload (:class:`~repro.service.engine.ShardedFilterEngine`), and a
worker — at boot and on every respawn — is forked with that engine as
its :func:`worker_main` argument, so nothing is pickled, parsed or
compiled on the way in: the worker's machine is the parent's, trained
(or not) and configured exactly as the parent's is, DTD included.
From then on the replica answers the documents dealt to it and applies
the same control messages the parent applied to its own engine.

:func:`run_batch` answers a batch in the messages below, for a worker
and an in-process :class:`~repro.service.shard.LocalShard` alike (a
local shard takes no control message: it is the parent's engine).

Protocol (plain picklable tuples):

parent → worker, on the shard's task queue:

- ``("batch", batch_id, [text, ...], emit)`` — filter each text as a
  (possibly multi-document) stream, reply with one oid-set per document
  in text order.  A text is a run of whole documents of the
  publisher's source as UTF-8 ``bytes``, cut where the parent's
  boundary scan found them (``filter_stream``: one text per batch), or
  one ``str`` serialised from a DOM (``filter_batch``); either way
  this worker's parse is the document's only parse.
  When ``emit`` is true, the worker additionally streams its match
  decisions *while the batch is still running* (event-time earliest
  answering), in ``match`` and ``matches`` frames ahead of the final
  batch reply on the same FIFO pipe;
- ``("control", epoch, op, ...)`` — a workload update:
  ``("control", e, "subscribe", oid, xpath)``,
  ``("control", e, "unsubscribe", oid)`` or
  ``("control", e, "compact")``.  Applied in FIFO order with batches,
  so a batch submitted after an update is always answered under it.
  No ack is sent and none is needed: the parent applied the update to
  its own engine *before* enqueuing the message, and a respawned
  worker is forked from exactly that engine, so a crash between
  enqueue and apply loses nothing (the stale queue dies with the old
  process);
- ``("crash", exit_code)`` — die immediately (test hook for the
  crash-recovery path);
- ``("stop",)`` — drain and exit cleanly.

worker → parent, on this incarnation's own result pipe (the write end
of a one-way ``Pipe``; the parent closed its copy, so this process
dying — even halfway through a frame — reads as end-of-file there):

- ``("ready", shard_id, info)`` — the replica is up;
- ``("match", shard_id, batch_id, doc_offset, oid, event_index)`` —
  a document's first match on this shard, sent the moment it is
  decided (``doc_offset`` is the document's position within the
  batch's answers);
- ``("matches", shard_id, batch_id, [(doc_offset, oid, event_index), ...])``
  — that document's later matches, in event order, buffered and sent
  as one frame when the shard decides a later document's first match
  (just before that ``match``) and at the latest just before the
  batch's reply or error.  A shard thus sends at most two match frames
  per document, not one per match, and its matches stay in
  ``(doc_offset, event_index)`` order.  Every match precedes the batch
  reply on the pipe, so the parent has folded it in by the time the
  batch completes; resubmitted batches re-stream their frames and the
  parent dedupes on ``(doc_offset, oid)``;
- ``("batch", shard_id, batch_id, [frozenset, ...], info)`` — ``info``
  also carries ``batch_s``, the seconds this batch took on this shard;
- ``("error", shard_id, batch_id, name, text)`` — a batch or control
  failed (bad document, internal error): the class name of the error
  and its text.  The parent re-raises a failed batch's library error
  (``XMLSyntaxError``, ``MixedContentError``, …) as itself, anything
  else as ``ServiceError``.

``info`` is the replica's ``stats()`` plus ``applied_epoch`` — the
epoch this worker booted at or of the last control message it applied.
Every batch reply is thereby *epoch-tagged*: the parent can attribute
each answer to a workload version, which matters after a crash, when
pending batches are resubmitted and re-answered at the *current* epoch
rather than the one they were first submitted under.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Callable


def engine_info(engine: Any, applied_epoch: int, busy_s: float = 0.0) -> dict[str, Any]:
    info = dict(engine.stats())
    info["applied_epoch"] = applied_epoch
    info["busy_s"] = busy_s
    return info


def worker_main(shard_id: int, payload: tuple, tasks, results) -> None:
    """Run one shard worker until a ``stop`` task (or a crash hook).
    *payload* is ``(engine, epoch)``: the parent's engine, inherited
    through the fork, and the workload version it holds."""
    # Everything inherited from the parent, the engine first, goes into
    # this process's permanent generation, so its collections never walk
    # (and copy) the parent's pages.  Frozen here rather than in the
    # parent, whose own freeze would outlive the fork: cyclic garbage
    # frozen there is never collected, and an unfreeze would thaw what
    # the embedding program froze itself.
    gc.freeze()
    engine, applied_epoch = payload
    busy_s = 0.0
    results.send(("ready", shard_id, engine_info(engine, applied_epoch)))
    while True:
        task = tasks.get()
        kind = task[0]
        if kind == "stop":
            return
        if kind == "crash":
            # Test hook: simulate a hard worker failure mid-stream.
            os._exit(task[1] if len(task) > 1 else 17)
        if kind == "control":
            _, epoch, op, *args = task
            try:
                if op not in ("subscribe", "unsubscribe", "compact"):
                    raise ValueError(f"unknown control op {op!r}")
                getattr(engine, op)(*args)
                applied_epoch = epoch
            except Exception as error:  # noqa: BLE001 - forwarded
                text = f"control {op} failed: {error}"
                results.send(("error", shard_id, None, type(error).__name__, text))
            continue
        if kind != "batch":
            results.send(("error", shard_id, None, "ValueError", f"unknown task {kind!r}"))
            continue
        busy_s = run_batch(engine, shard_id, task, applied_epoch, busy_s, results.send)


def run_batch(
    engine: Any,
    shard_id: int,
    task: tuple,
    applied_epoch: int,
    busy_s: float,
    send: Callable[[tuple], Any],
) -> float:
    """Answer one ``("batch", batch_id, texts, emit)`` *task* on
    *engine* as messages to *send*: each text is filtered as a
    multi-document stream and the answers are concatenated, so the
    reply is also the batch's document count.  Returns *busy_s* plus
    the batch's own seconds, which its reply carries as
    ``info["batch_s"]``."""
    _, batch_id, texts, emit = task
    doc_base = 0  # the batch offset of the engine's call-relative doc_index
    # The current document's non-first matches, and that document.
    later: list[tuple[int, str, int]] = []
    current = -1

    def _flush() -> None:
        if later:
            send(("matches", shard_id, batch_id, later.copy()))
            later.clear()

    def _relay(oid: str, doc_index: int, event_index: int) -> None:
        nonlocal current
        doc_offset = doc_base + doc_index
        if doc_offset == current:
            later.append((doc_offset, oid, event_index))
            return
        _flush()
        current = doc_offset
        send(("match", shard_id, batch_id, doc_offset, oid, event_index))

    engine.on_match = _relay if emit else None
    answers: list = []
    failure: Exception | None = None
    started = time.perf_counter()
    try:
        # Inner machines run with retain_results=False: the per-call
        # return is the only copy, nothing to clear between batches.
        for text in texts:
            doc_base = len(answers)
            answers.extend(engine.filter_stream(text))
    except Exception as error:  # noqa: BLE001 - forwarded to the parent
        failure = error
    finally:
        engine.on_match = None
    batch_s = time.perf_counter() - started
    _flush()  # the last document's later matches precede the reply
    if failure is not None:
        send(("error", shard_id, batch_id, type(failure).__name__, str(failure)))
    else:
        info = {**engine_info(engine, applied_epoch, busy_s + batch_s), "batch_s": batch_s}
        send(("batch", shard_id, batch_id, answers, info))
    return busy_s + batch_s

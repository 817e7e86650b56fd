"""Worker-process side of the sharded filtering service.

Each worker owns one shard: it boots an inner
:class:`~repro.engine.protocol.FilterEngine` through
:func:`~repro.engine.factory.create_engine` from a picklable payload
(:func:`build_payload`): the inner engine's
:class:`~repro.engine.config.EngineConfig` plus the shard's filters as
``oid → XPath`` sources — the parent's projection at the moment
of the (re)spawn.  The worker parses and compiles its own filters (and
trains its machine exactly when ``config.options.train`` says so, as
any engine of that config would); nothing about an engine's internal
state ever lives outside it.

:func:`run_batch` answers a batch in the messages below, and
:func:`apply_control` applies an update, for a worker and an
in-process :class:`~repro.service.shard.LocalShard` alike.

Protocol (plain picklable tuples):

parent → worker, on the shard's task queue:

- ``("batch", batch_id, [text, ...], emit)`` — filter each text as a
  (possibly multi-document) stream, reply with one oid-set per document
  in text order.  A text is the publisher's whole source as UTF-8
  ``bytes``, untouched (``filter_stream``: one text per batch), or one
  ``str`` serialised from a DOM (``filter_batch``); either way this
  worker's parse is the document's only parse on this shard.
  When ``emit`` is true, the worker additionally streams one
  ``("match", ...)`` message per decided match *while the batch is
  still running* (event-time earliest answering), ahead of the final
  batch reply on the same FIFO pipe;
- ``("control", epoch, op, ...)`` — a workload update:
  ``("control", e, "subscribe", oid, xpath)``,
  ``("control", e, "unsubscribe", oid)`` or
  ``("control", e, "compact")``.  Applied in FIFO order with batches,
  so a batch submitted after an update is always answered under it.
  No ack is sent and none is needed: the parent updated its sources
  *before* enqueuing the message, and a respawned
  worker boots from exactly those, so a crash between enqueue and
  apply loses nothing (the stale queue dies with the old process);
- ``("crash", exit_code)`` — die immediately (test hook for the
  crash-recovery path);
- ``("stop",)`` — drain and exit cleanly.

worker → parent, on this incarnation's own result pipe (the write end
of a one-way ``Pipe``; the parent closed its copy, so this process
dying — even halfway through a frame — reads as end-of-file there):

- ``("ready", shard_id, info)`` — engine built;
- ``("match", shard_id, batch_id, doc_offset, oid, event_index)`` —
  one event-time match decision (``doc_offset`` is the document's
  position within the batch's answers).  Always precedes the batch
  reply on the pipe, so the parent has folded every match in by the
  time the batch completes; resubmitted batches re-stream their
  matches and the parent dedupes on ``(doc_offset, oid)``;
- ``("batch", shard_id, batch_id, [frozenset, ...], info)`` — ``info``
  also carries ``batch_s``, the seconds this batch took on this shard;
- ``("error", shard_id, batch_id, name, text)`` — a batch or control
  failed (bad document, internal error): the class name of the error
  and its text.  The parent re-raises a failed batch's library error
  (``XMLSyntaxError``, ``MixedContentError``, …) as itself, anything
  else as ``ServiceError``.

``info`` is the inner engine's ``stats()`` plus ``applied_epoch`` — the
epoch this worker booted at or of the last control message it applied.
Every batch reply is thereby *epoch-tagged*: the parent can attribute
each answer to a workload version, which matters after a crash, when
pending batches are resubmitted and re-answered at the *current* epoch
rather than the one they were first submitted under.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Mapping

from repro.engine.factory import create_engine


def build_payload(config: Any, filters: Mapping[str, str], epoch: int = 0) -> dict:
    """The picklable description of one shard an engine boots from.

    *config* is the inner engine's :class:`EngineConfig`; *filters* is
    the shard's live workload as ``oid → XPath`` sources; *epoch* is
    the workload version those filters represent.
    """
    return {"config": config, "filters": dict(filters), "epoch": epoch}


def engine_info(engine: Any, applied_epoch: int, busy_s: float = 0.0) -> dict[str, Any]:
    info = dict(engine.stats())
    info["applied_epoch"] = applied_epoch
    info["busy_s"] = busy_s
    return info


def worker_main(shard_id: int, payload: dict, tasks, results) -> None:
    """Run one shard worker until a ``stop`` task (or a crash hook)."""
    try:
        engine = create_engine(payload["config"], payload["filters"])
    except Exception as error:  # noqa: BLE001 - forwarded to the parent
        text = f"worker init failed: {error}"
        results.send(("error", shard_id, None, type(error).__name__, text))
        return
    applied_epoch = payload["epoch"]
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
                apply_control(engine, op, *args)
                applied_epoch = epoch
            except Exception as error:  # noqa: BLE001 - forwarded
                text = f"control {op} failed: {error}"
                results.send(("error", shard_id, None, type(error).__name__, text))
            continue
        if kind != "batch":
            results.send(("error", shard_id, None, "ValueError", f"unknown task {kind!r}"))
            continue
        busy_s = run_batch(engine, shard_id, task, applied_epoch, busy_s, results.send)


def apply_control(engine: Any, op: str, *args: str) -> None:
    """Apply one workload update — ``subscribe``, ``unsubscribe`` or
    ``compact`` — to *engine*; a worker and a local shard alike."""
    if op in ("subscribe", "unsubscribe", "compact"):
        getattr(engine, op)(*args)
    else:
        raise ValueError(f"unknown control op {op!r}")


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

    def _relay(oid: str, doc_index: int, event_index: int) -> None:
        send(("match", shard_id, batch_id, doc_base + doc_index, oid, event_index))

    engine.on_match = _relay if emit else None
    answers: list | None = []
    started = time.perf_counter()
    try:
        # Inner machines run with retain_results=False: the per-call
        # return is the only copy, nothing to clear between batches.
        for text in texts:
            doc_base = len(answers)
            answers.extend(engine.filter_stream(text))
    except Exception as error:  # noqa: BLE001 - forwarded to the parent
        send(("error", shard_id, batch_id, type(error).__name__, str(error)))
        answers = None
    finally:
        engine.on_match = None
    batch_s = time.perf_counter() - started
    if answers is not None:
        info = {**engine_info(engine, applied_epoch, busy_s + batch_s), "batch_s": batch_s}
        send(("batch", shard_id, batch_id, answers, info))
    return busy_s + batch_s

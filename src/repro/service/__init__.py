"""Sharded, multi-process filtering service.

The paper's motivating deployment (Sec. 1) is a message broker
filtering a high-rate XML stream against very large subscription
workloads.  A single XPush machine shares work *within* one process,
and its cost per event does not depend on the workload's size; this
package scales *across* processes by partitioning the document stream
— not the workload: the parent compiles one engine over every filter,
N worker processes are forked as replicas of it, and each work item
of documents is dealt to one of them (with bounded inter-stage
buffering in the spirit of schema-based event-processor scheduling):

- :mod:`repro.service.shard` — the one seam between "a shard" and how
  it is hosted: :class:`LocalShard` (the orchestrator's engine itself,
  in this process) and :class:`WorkerShard` (a worker process with its
  queue, pipe and unanswered batches) share the control verbs, and a
  worker is forked — and a crashed one forked again — from the
  orchestrator's engine;
- :mod:`repro.service.worker` — the worker-process main loop: runs the
  inherited engine, answers batches and applies control messages in
  FIFO order;
- :mod:`repro.service.engine` — :class:`ShardedFilterEngine`, the
  parent-side orchestrator: the sources and the one compiled engine,
  every control verb written once and broadcast, a source cut into one
  run of documents per shard, batched publish over bounded work queues
  with backpressure, crash detection with restart-and-resubmit.

See ``docs/scaling.md`` for the operational contract.
"""

from repro.service.engine import ServiceError, ShardedFilterEngine

__all__ = ["ServiceError", "ShardedFilterEngine"]

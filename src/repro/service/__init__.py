"""Sharded, multi-process filtering service.

The paper's motivating deployment (Sec. 1) is a message broker
filtering a high-rate XML stream against very large subscription
workloads.  A single XPush machine shares work *within* one process;
this package scales *across* processes by partitioning the workload —
not the document stream — into N shards, compiling one machine per
shard, and fanning every document batch out to all shards (the
software analogue of the parallel filter engines in FPGA XML-filtering
architectures, with bounded inter-stage buffering in the spirit of
schema-based event-processor scheduling):

- :mod:`repro.service.shard` — the one seam between "a shard" and how
  it is hosted: :class:`LocalShard` (an inner engine in this process)
  and :class:`WorkerShard` (a worker process with its queue, pipe and
  unanswered batches) share the control verbs, and both are built — and
  a crashed worker rebuilt — from the orchestrator's XPath sources, the
  only durable state the service has;
- :mod:`repro.service.worker` — the worker-process main loop: boots an
  inner engine from ``{config, filters, epoch}``, then answers batches
  and applies control messages in FIFO order;
- :mod:`repro.service.engine` — :class:`ShardedFilterEngine`, the
  parent-side orchestrator: the sources, each filter on the shard the
  CRC-32 of its oid names (:func:`~repro.service.engine.shard_of_oid`),
  every control verb written once, batched publish over bounded work
  queues with backpressure, crash detection with restart-and-resubmit.

See ``docs/scaling.md`` for the operational contract.
"""

from repro.service.engine import ServiceError, ShardedFilterEngine

__all__ = ["ServiceError", "ShardedFilterEngine"]

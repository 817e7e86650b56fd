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

- :mod:`repro.service.placement` — where filters live: the two
  placement policies (``hash``: CRC-32 of the oid; ``cost``: a
  per-filter cost model, AFA states × estimated σ, placed by LPT at
  boot and onto the lightest shard afterwards), load / imbalance
  gauges and the ``rebalance`` / ``split`` / ``merge`` migration
  planners;
- :mod:`repro.service.shard` — the one seam between "a shard" and how
  it is hosted: :class:`LocalShard` (an inner engine in this process)
  and :class:`WorkerShard` (a worker process with its queue, pipe and
  unanswered batches) share the control verbs, and both are built — and
  a crashed worker rebuilt — from the orchestrator's routing table and
  XPath sources, the only durable state the service has;
- :mod:`repro.service.worker` — the worker-process main loop: boots an
  inner engine from ``{config, filters, epoch}``, then answers batches
  and applies control messages in FIFO order;
- :mod:`repro.service.engine` — :class:`ShardedFilterEngine`, the
  parent-side orchestrator: routing table + sources, every control
  verb written once, batched publish over bounded work queues with
  backpressure, crash detection with restart-and-resubmit.

See ``docs/scaling.md`` for the operational contract.
"""

from repro.service.engine import ServiceError, ShardedFilterEngine
from repro.service.placement import (
    PLACEMENT_POLICIES,
    CostModel,
    FilterCost,
    Move,
    imbalance,
    place_filters,
    plan_drain,
    plan_rebalance,
    route_new,
    shard_loads,
)

__all__ = [
    "PLACEMENT_POLICIES",
    "CostModel",
    "FilterCost",
    "Move",
    "ServiceError",
    "ShardedFilterEngine",
    "imbalance",
    "place_filters",
    "plan_drain",
    "plan_rebalance",
    "route_new",
    "shard_loads",
]

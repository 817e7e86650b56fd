"""Runtime counters for the XPush machine — the raw material of the
paper's evaluation (Sec. 7).

- state counts and average state size → Figs. 6, 7, 10, 11;
- table lookups vs hits ("One can think of the XPush machine as a
  cache") → the hit ratio of Fig. 8;
- events and bytes processed → throughput (the abstract's MB/s claim);
- evictions / deported states and the resident-memory gauges →
  the Sec. 6 memory manager (bounded-memory infinite streams).

It also owns the engine stats schema: :data:`MACHINE_KEYS` are the
machine counters every engine's ``stats()`` reports, and
:func:`merged` is the one place they combine — over a layered engine's
layers and over a sharded engine's shards alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Mapping


@dataclass
class MachineStats:
    """Mutable counters updated on the machine's hot path.

    The machine keeps the per-event cost of its books to one write per
    probe (``lookups``): ``misses`` is counted on the miss path only,
    ``hits`` is derived from the two, and ``events`` is settled once per
    document, at ``endDocument`` — a document abandoned mid-way is
    settled when the next one starts, or when the machine's own
    ``filter_stream`` / ``process_events`` call ends.

    ``resident_bytes`` and ``table_entries`` are *gauges* mirrored from
    the machine's :class:`~repro.xpush.state.StateStore` at every
    document boundary; ``codegen_compile_ms`` and ``codegen_handlers``
    are gauges stamped by the machine when the codegen runtime binds
    its compiled handlers (re-stamped after ``reset()``).  The other
    fields are cumulative counters.
    """

    events: int = 0
    documents: int = 0
    bytes_processed: int = 0
    lookups: int = 0  # probes of t_push/t_value/t_pop/t_badd and leaf tables
    misses: int = 0  # probes that found no entry and computed one
    pop_computed: int = 0
    add_computed: int = 0
    value_computed: int = 0
    push_computed: int = 0
    carried: int = 0  # pop/push misses whose old block a predecessor store answered
    codegen_compile_ms: float = 0.0  # gauge: one-time handler compile cost
    codegen_handlers: int = 0  # gauge: compiled functions bound (codegen runtime)
    codegen_fallbacks: int = 0  # transitions interpreted while codegen requested
    evictions: int = 0  # memo entries dropped by the clock sweep
    gc_states: int = 0  # states deported by a sweep
    resident_bytes: int = 0  # gauge: estimated bytes of states + tables
    table_entries: int = 0  # gauge: live memo-table entries

    @property
    def hits(self) -> int:
        """Probes answered from an existing entry."""
        return self.lookups - self.misses

    @property
    def hit_ratio(self) -> float:
        """Successful lookups / total lookups (Fig. 8)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        return {**dataclasses.asdict(self), "hits": self.hits, "hit_ratio": self.hit_ratio}

    def reset(self) -> None:
        # Every counter, current and future — a hardcoded list silently
        # skips fields added later.
        for field in dataclasses.fields(self):
            setattr(self, field.name, field.default)


#: The :class:`MachineStats` counters an engine reports as they are.
_COUNTED = (
    "events", "carried", "evictions", "gc_states", "lookups", "hits",
    "codegen_compile_ms", "codegen_handlers", "codegen_fallbacks",
)

#: The machine counters of every engine's ``stats()``, summed by
#: :func:`merged`.  ``retired_filters`` counts passengers: folded-away
#: AFAs still in a machine's sid space, and in ``afa_states``, until a
#: renumbering.  ``lookups`` and ``hits`` make the merged ``hit_ratio``
#: a ratio of sums, not a sum of ratios.
MACHINE_KEYS = (
    "afa_states", "xpush_states", "retired_filters", "resident_bytes", "table_entries",
    *_COUNTED,
)


def machine_block(machine: Any) -> dict[str, float]:
    """One :class:`~repro.xpush.machine.XPushMachine`'s counters under
    :data:`MACHINE_KEYS`; the memory gauges are read live, predecessor
    store included, not as mirrored at the last document boundary."""
    stats, workload = machine.stats, machine.workload
    return {
        "afa_states": workload.state_count,
        "xpush_states": machine.state_count,
        "retired_filters": workload.retired_filters,
        "resident_bytes": machine.resident_bytes,
        "table_entries": machine.table_entries,
        **{key: getattr(stats, key) for key in _COUNTED},
    }


def merged(blocks: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """:data:`MACHINE_KEYS` summed over *blocks* (machine blocks, or
    whole ``stats()`` dicts that carry them) plus the ``hit_ratio`` of
    the sums; no blocks give the zero block."""
    out: dict[str, float] = {key: 0 for key in MACHINE_KEYS}
    for block in blocks:
        for key in MACHINE_KEYS:
            out[key] += block[key]
    lookups = out["lookups"]
    out["hit_ratio"] = out["hits"] / lookups if lookups else 0.0
    return out

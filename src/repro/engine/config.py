""":class:`EngineConfig` — every engine knob, in one place.

Before this module existed each engine surface re-declared its own
slice of the configuration space (machine options on
:class:`~repro.xpush.options.XPushOptions`, shard/batch/queue knobs on
the service, the compaction threshold on the layered engine) and every
composite had to hand-thread each knob through its constructor.
``EngineConfig`` subsumes all of them: it *contains* the machine-level
:class:`~repro.xpush.options.XPushOptions` (runtime,
``max_memory_bytes``, ``retain_results``, the Sec. 5 optimisation
flags) and adds the engine-level knobs around it.  A config plus a
workload is everything :func:`repro.engine.create_engine` needs.

Configs are frozen and validated eagerly at construction, so a bad
knob fails where it was written, not in a worker process later.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import WorkloadError
from repro.xmlstream.dtd import DTD
from repro.xpush.options import XPushOptions

#: Engine kinds :func:`repro.engine.create_engine` builds: the
#: in-process XPush engine, under either of its two names, and the
#: sharded service over it.
ENGINES = ("layered", "xpush", "sharded")


def _default_options() -> XPushOptions:
    """The library-wide default machine variant (TD, as the service
    always defaulted to: top-down pruning, and so no value
    precomputation)."""
    return XPushOptions(top_down=True)


@dataclass(frozen=True)
class EngineConfig:
    """Consolidated configuration for any :class:`FilterEngine`.

    Attributes:
        engine: the engine to build, one of :data:`ENGINES`:
            ``"layered"`` — the in-process XPush engine, which
            ``"xpush"`` also names — or ``"sharded"``.
        options: the machine-level :class:`XPushOptions` (Sec. 5
            optimisation flags, runtime representation, memory bound,
            ``retain_results``).  The engines return answers per
            call and force ``retain_results=False`` on their machines.
        dtd: optional DTD (order optimisation / training).
        compact_threshold: the life of a layered engine's delta: it
            is folded into the base at this many uncompacted
            insertions, or once this many documents have been answered
            since the last insertion, whichever comes first (the fold
            runs at the start of a filter call, never inside a
            document).
        shards: shard count for the sharded service (>= 1).
        inner: kind of the one engine the sharded service compiles
            and replicates to every shard — ``"layered"`` or
            ``"xpush"``, the same engine.
        batch_size: documents per work item dealt to the shards by
            ``filter_batch`` / ``filter_events``, whose documents the
            parent holds; a ``filter_stream`` call is cut into one run
            of documents per shard instead.
        parallel: force worker processes on (True), off (False) or
            auto (None = processes when ``shards > 1``); workers need
            ``fork``, without it the shards run in process.
        result_timeout: seconds of no shard progress before a batch is
            declared stuck — for ``filter_stream``, a shard's filtering
            of its run.
    """

    engine: str = "layered"
    options: XPushOptions = field(default_factory=_default_options)
    dtd: DTD | None = None
    compact_threshold: int = 64
    shards: int = 1
    inner: str = "layered"
    batch_size: int = 16
    parallel: bool | None = None
    result_timeout: float = 60.0

    def __post_init__(self) -> None:
        if not isinstance(self.options, XPushOptions):
            raise WorkloadError(
                f"options must be XPushOptions, got {type(self.options).__name__}"
            )
        if self.compact_threshold < 1:
            raise WorkloadError(
                f"compact_threshold must be >= 1, got {self.compact_threshold}"
            )
        if self.shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {self.shards}")
        if self.batch_size < 1:
            raise WorkloadError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.result_timeout <= 0:
            raise WorkloadError(
                f"result_timeout must be > 0 seconds, got {self.result_timeout}"
            )
        if self.engine not in ENGINES:
            raise WorkloadError(f"unknown engine {self.engine!r}; known: {list(ENGINES)}")
        if self.inner not in ENGINES[:2]:  # the in-process engine's two names
            raise WorkloadError(
                f"unknown inner engine {self.inner!r}; known: {list(ENGINES[:2])}"
            )

    @property
    def backend(self) -> str:
        """The one XML scanner; read by the e2e harness until direction
        1's re-seat of it deletes this property."""
        return "expat"

    def with_engine(self, engine: str, **overrides: Any) -> "EngineConfig":
        """A copy selecting a different engine kind (plus overrides) —
        how composites derive their inner-engine config."""
        return replace(self, engine=engine, **overrides)

    def describe(self) -> str:
        parts = [self.engine, self.options.describe()]
        if self.engine == "sharded":
            parts.append(f"{self.shards}x{self.inner}")
        return ":".join(parts)

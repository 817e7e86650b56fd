"""The engine registry: ``create_engine(config)``.

Composites (:class:`~repro.service.ShardedFilterEngine`,
:class:`~repro.broker.MessageBroker`) and applications construct their
engines exclusively through this factory, so a new engine kind — or a
new knob on an existing one — is a one-site change: register a builder
here, add the field to :class:`~repro.engine.config.EngineConfig`, and
every composite, the CLI and the benches can use it.

Builders receive the parsed filter list and the full config; they read
only the fields they understand.  The ``snapshot`` argument resumes an
engine from a prior :meth:`~repro.engine.protocol.FilterEngine.snapshot`
capture instead of a filter list (how ``repro … --state`` files load).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.engine.config import EngineConfig
from repro.engine.protocol import FilterEngine
from repro.engine.serial import (
    eager_engine,
    naive_engine,
    normalize_filters,
    xfilter_engine,
    yfilter_engine,
)
from repro.errors import WorkloadError
from repro.xpath.ast import XPathFilter
from repro.xpush.layered import LayeredFilterEngine

WorkloadSpec = Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None

EngineBuilder = Callable[[list[XPathFilter], EngineConfig], FilterEngine]

_REGISTRY: dict[str, EngineBuilder] = {}


def register_engine(name: str, builder: EngineBuilder) -> None:
    """Register (or override) an engine kind for :func:`create_engine`."""
    _REGISTRY[name] = builder


def engine_names() -> list[str]:
    """The registered engine kinds, sorted."""
    return sorted(_REGISTRY)


def create_engine(
    config: EngineConfig | None = None,
    filters: WorkloadSpec = None,
    *,
    snapshot: Mapping[str, Any] | None = None,
) -> FilterEngine:
    """Build the engine *config* names, over *filters* or a *snapshot*.

    Exactly one workload source may be given; with neither, the engine
    starts empty and grows through ``subscribe``.
    """
    config = config or EngineConfig()
    if snapshot is not None and filters:
        raise WorkloadError("pass either filters or snapshot, not both")
    builder = _REGISTRY.get(config.engine)
    if builder is None:
        raise WorkloadError(
            f"unknown engine {config.engine!r}; known: {engine_names()}"
        )
    engine = builder([] if snapshot is not None else normalize_filters(filters), config)
    if snapshot is not None:
        engine.restore(dict(snapshot))
    return engine


# ----------------------------------------------------------------------
# Built-in builders
# ----------------------------------------------------------------------


def _build_layered(filters: list[XPathFilter], config: EngineConfig) -> FilterEngine:
    return LayeredFilterEngine(
        filters,
        config.options,
        config.dtd,
        compact_threshold=config.compact_threshold,
        backend=config.backend,
        training_seed=config.training_seed,
    )


def _build_sharded(filters: list[XPathFilter], config: EngineConfig) -> FilterEngine:
    # Local import: the service package builds its inner engines through
    # this factory, so the dependency must point service -> engine only.
    from repro.service.engine import ShardedFilterEngine

    return ShardedFilterEngine(filters, config=config)


# One in-process engine over the XPush machine, under two names: the
# benchmark harness (benchmarks/e2e, frozen) builds "xpush" where it
# never updates and "layered" where it does.  ROADMAP, "Carried over".
register_engine("xpush", _build_layered)
register_engine("layered", _build_layered)
register_engine("sharded", _build_sharded)
register_engine("eager", eager_engine)
register_engine("naive", naive_engine)
register_engine("xfilter", xfilter_engine)
register_engine("yfilter", yfilter_engine)

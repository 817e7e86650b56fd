"""``create_engine(config)``: the one constructor of the library's engines.

The sharded service (for its one inner engine), the CLI, the serving
tier's callers and applications construct their engines through this
factory.  There are two: ``config.engine == "sharded"`` builds the
sharded service, any other kind the config accepts
(:data:`~repro.engine.config.ENGINES`) the in-process XPush engine.
The ``snapshot`` argument resumes an engine from a prior
:meth:`~repro.engine.protocol.FilterEngine.snapshot` capture instead of
a filter list (how ``repro … --state`` files load).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.engine.config import EngineConfig
from repro.engine.protocol import FilterEngine
from repro.errors import WorkloadError
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload
from repro.xpush.layered import LayeredFilterEngine

WorkloadSpec = Sequence[XPathFilter] | Mapping[str, str] | Iterable[str] | None


def normalize_filters(filters: WorkloadSpec) -> list[XPathFilter]:
    """Accept the workload spellings used across the library — parsed
    filters, an oid→xpath mapping, or bare source strings.  Each
    distinct source is parsed once (:func:`parse_workload`)."""
    if filters is None:
        return []
    if isinstance(filters, Mapping):
        return parse_workload(dict(filters))
    items = list(filters)
    sources = {f"q{i}": item for i, item in enumerate(items) if not isinstance(item, XPathFilter)}
    parsed = iter(parse_workload(sources))
    return [item if isinstance(item, XPathFilter) else next(parsed) for item in items]


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
    parsed = [] if snapshot is not None else normalize_filters(filters)
    engine: FilterEngine
    if config.engine == "sharded":
        # Local import: the service package builds its inner engines
        # through this factory, so the dependency must point service ->
        # engine only.
        from repro.service.engine import ShardedFilterEngine

        engine = ShardedFilterEngine(parsed, config)
    else:
        # "xpush" and "layered" name one engine: the benchmark harness
        # builds "xpush" where it never updates and "layered" where it
        # does.  ROADMAP, direction 1.
        engine = LayeredFilterEngine(
            parsed,
            config.options,
            config.dtd,
            compact_threshold=config.compact_threshold,
        )
    if snapshot is not None:
        engine.restore(dict(snapshot))
    return engine

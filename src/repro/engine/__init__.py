"""One engine surface for the whole library.

Both filtering engines — the in-process XPush engine and the sharded
multi-process service over it — conform to the
:class:`~repro.engine.protocol.FilterEngine` protocol, are configured by
one consolidated :class:`~repro.engine.config.EngineConfig`, and are
constructed through :func:`~repro.engine.factory.create_engine`:

    from repro.engine import EngineConfig, create_engine

    engine = create_engine(
        EngineConfig(engine="sharded", shards=4, inner="layered"),
        {"q0": "//a[b = 1]"},
    )
    engine.subscribe("q1", "//c")          # live update, no table flush
    answers = engine.filter_stream(xml)    # one oid-set per document
    engine.close()

The related-work baselines (:mod:`repro.baselines`) and the eager
Sec. 3.2 machine (:mod:`repro.xpush.eager`) are no engines of this
surface: the figures and the tests call them directly, as comparison
fixtures and references.

See ``docs/architecture.md`` for the full contract, including the
dynamic-update control plane of the sharded service.
"""

from repro.engine.config import BACKENDS, ENGINES, EngineConfig
from repro.engine.factory import create_engine
from repro.engine.protocol import FilterEngine, StreamSource

__all__ = [
    "BACKENDS",
    "ENGINES",
    "EngineConfig",
    "FilterEngine",
    "StreamSource",
    "create_engine",
]

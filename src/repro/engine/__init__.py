"""One engine surface for the whole library.

Every filtering engine — the in-process XPush engine, the sharded
multi-process service over it, the eager machine and the three
related-work baselines — conforms to the
:class:`~repro.engine.protocol.FilterEngine` protocol, is configured by
one consolidated :class:`~repro.engine.config.EngineConfig`, and is
constructed through :func:`~repro.engine.factory.create_engine`:

    from repro.engine import EngineConfig, create_engine

    engine = create_engine(
        EngineConfig(engine="sharded", shards=4, inner="layered"),
        {"q0": "//a[b = 1]"},
    )
    engine.subscribe("q1", "//c")          # live update, no table flush
    answers = engine.filter_stream(xml)    # one oid-set per document
    engine.close()

See ``docs/architecture.md`` for the full contract, including the
dynamic-update control plane of the sharded service.
"""

from repro.engine.config import BACKENDS, EngineConfig
from repro.engine.factory import create_engine, engine_names, register_engine
from repro.engine.protocol import FilterEngine, StreamSource
from repro.engine.serial import BaselineEngine

__all__ = [
    "BACKENDS",
    "BaselineEngine",
    "EngineConfig",
    "FilterEngine",
    "StreamSource",
    "create_engine",
    "engine_names",
    "register_engine",
]

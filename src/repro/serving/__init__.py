"""The network serving tier: many publishers, many subscribers, one
engine — the paper's "large number of clients" made literal.

    from repro.engine import EngineConfig, create_engine
    from repro.serving import FilterServer, ServerThread, ServingClient

    engine = create_engine(EngineConfig(), {"q0": "//a[b = 1]"})
    with ServerThread(FilterServer(engine)) as handle:
        with ServingClient(*handle.address) as client:
            client.subscribe("q1", "//c", consumer="alice")
            answers = client.publish("<a><b>1</b></a><c/>")
            inbox = client.poll("alice", timeout=1.0)["events"]
    engine.close()  # the caller owns the engine; the server borrows it

Layers (bottom up): :mod:`repro.serving.protocol` (length-prefixed JSON
frames), :mod:`repro.serving.consumers` (per-subscriber queues and
slow-consumer policies), :mod:`repro.serving.server` (the asyncio
``FilterServer`` + verb dispatch), :mod:`repro.serving.http` (the plain
HTTP adapter on the same port), :mod:`repro.serving.client` (the
blocking client), :mod:`repro.serving.runner` (background-thread runner).
See ``docs/serving.md`` for the wire protocol and operational model.
"""

from repro.serving.client import ServingClient
from repro.serving.consumers import POLICIES, Consumer, ConsumerClosed
from repro.serving.protocol import (
    MAX_FRAME,
    Frame,
    FrameDecoder,
    decode_body,
    encode_frame,
)
from repro.serving.runner import ServerThread
from repro.serving.server import FilterServer

__all__ = [
    "Consumer",
    "ConsumerClosed",
    "FilterServer",
    "Frame",
    "FrameDecoder",
    "MAX_FRAME",
    "POLICIES",
    "ServerThread",
    "ServingClient",
    "decode_body",
    "encode_frame",
]

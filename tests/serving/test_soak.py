"""Serving-tier soak (slow tier): realistic workload, real datasets.

Excluded from the tier-1 default run by the ``slow`` marker; the CI
``serving-tests`` job runs it under a hard timeout.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import EngineConfig
from repro.serving import ServingClient
from repro.xmlstream.writer import document_to_xml
from repro.xpush.machine import XPushMachine

from tests.conftest import make_workload

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(engine="layered"),
        EngineConfig(engine="sharded", shards=2, batch_size=4),
    ],
    ids=["layered", "sharded"],
)
def test_soak_concurrent_publishers_over_protein_stream(
    serve, config, protein, protein_docs
):
    filters = make_workload(protein, 60, seed=2026)
    workload = {f.oid: f.source for f in filters}
    texts = [document_to_xml(doc) for doc in protein_docs]
    machine = XPushMachine.from_xpath(dict(workload))
    expected = {text: machine.filter_stream(text) for text in texts}

    handle = serve(config, dict(workload))
    host, port = handle.address
    if config.engine == "sharded" and not handle.server.engine.parallel:
        pytest.skip("multiprocessing unavailable on this platform")

    with ServingClient(host, port) as control:
        control.create_consumer("audit", policy="drop_oldest", high_watermark=64)
        # route a third of the workload to the audit consumer
        for oid in sorted(workload)[::3]:
            control.unsubscribe(oid)
            control.subscribe(oid, workload[oid], consumer="audit")

        errors: list[Exception] = []
        mismatches: list[str] = []

        def publisher(offset: int) -> None:
            try:
                with ServingClient(host, port, timeout=60.0) as client:
                    for round_number in range(3):
                        for i, text in enumerate(texts):
                            if (i + offset + round_number) % 3:
                                continue
                            if client.publish(text) != expected[text]:
                                mismatches.append(text[:80])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=publisher, args=(p,)) for p in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90)
        assert not errors, errors
        assert not mismatches, mismatches

        stats = control.stats()
        assert stats["publish_errors"] == 0
        assert stats["published_docs"] > 0
        audit = stats["consumers"]["audit"]
        assert audit["enqueued"] > 0
        assert audit["depth"] <= 64
        assert not audit["evicted"]
        # the queue really got drained by policy, not by luck
        assert audit["enqueued"] == audit["delivered"] + audit["dropped"] + audit["depth"]

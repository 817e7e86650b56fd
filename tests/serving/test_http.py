"""The HTTP adapter: same verbs, same answers, plain urllib clients."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import EngineConfig

from tests.serving.conftest import FILTER_POOL


def _post(base: str, path: str, data: bytes) -> dict:
    request = urllib.request.Request(base + path, data=data, method="POST")
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _post_json(base: str, path: str, payload: dict) -> dict:
    return _post(base, path, json.dumps(payload).encode("utf-8"))


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


@pytest.fixture
def base(serve):
    handle = serve(EngineConfig(engine="layered"), dict(FILTER_POOL))
    return f"http://{handle.server.host}:{handle.server.port}"


def test_server_stats_nest_the_engine_load_gauges(serve):
    handle = serve(
        EngineConfig(engine="sharded", shards=2, parallel=False), dict(FILTER_POOL)
    )
    base = f"http://{handle.server.host}:{handle.server.port}"
    assert _post(base, "/publish", b"<a><b>1</b></a><c/><a/>")["ok"]
    stats = _get(base, "/stats")["stats"]
    # The engine's stats ride nested; the server lifts none of them.
    assert "shard_load" not in stats and "imbalance" not in stats
    engine = stats["engine"]
    # Documents answered per shard: three, dealt in two runs.
    assert engine["shard_load"] == [1.0, 2.0]
    assert engine["imbalance"] == 2.0 / 1.5
    assert [entry["filters"] for entry in engine["per_shard"]] == [len(FILTER_POOL)] * 2


def test_full_http_lifecycle(base):
    assert _get(base, "/healthz")["ok"] is True

    reply = _post_json(
        base, "/consumers", {"consumer": "web", "policy": "drop_oldest",
                            "high_watermark": 8},
    )
    assert reply["ok"] and reply["stats"]["policy"] == "drop_oldest"

    reply = _post_json(
        base, "/subscribe", {"oid": "w0", "xpath": "//a[b = 1]", "consumer": "web"}
    )
    assert reply["ok"] and reply["epoch"] == 1

    reply = _post(base, "/publish", b"<a><b>1</b></a><c/>")
    assert reply["ok"]
    assert reply["results"] == [["q0", "q1", "q5", "q6", "w0"], []]

    reply = _get(base, "/poll?consumer=web&timeout=1&max=10")
    assert reply["ok"] and not reply["closed"]
    assert [event["oids"] for event in reply["events"]] == [["w0"]]

    stats = _get(base, "/stats")["stats"]
    assert stats["published_docs"] == 2
    assert stats["consumers"]["web"]["delivered"] == 1
    assert stats["engine"]["engine"] == "layered"

    reply = _post_json(base, "/unsubscribe", {"oid": "w0"})
    assert reply["ok"] and reply["epoch"] == 2
    reply = _post_json(base, "/compact", {})
    assert reply["ok"] and reply["epoch"] == 3


def test_http_long_poll_waits_for_a_publish(base):
    _post_json(base, "/consumers", {"consumer": "waiter"})
    _post_json(base, "/subscribe", {"oid": "w0", "xpath": "//a", "consumer": "waiter"})

    received: list[dict] = []

    def long_poll():
        received.append(_get(base, "/poll?consumer=waiter&timeout=10"))

    poller = threading.Thread(target=long_poll)
    poller.start()
    # the poll parks server-side until this publish fans out
    _post(base, "/publish", b"<a/>")
    poller.join(15)
    assert not poller.is_alive()
    assert received and [e["oids"] for e in received[0]["events"]] == [["w0"]]


def test_http_error_statuses(base):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base, "/no-such-path")
    assert excinfo.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base, "/publish")  # GET on a POST endpoint
    assert excinfo.value.code == 405

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base, "/subscribe", b"{not json")
    assert excinfo.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_json(base, "/subscribe", {"oid": "q0", "xpath": "//a"})  # duplicate
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["kind"] == "WorkloadError"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base, "/poll?consumer=nobody")
    assert excinfo.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base, "/publish", "<a>￿".encode("utf-8", "surrogatepass")[:5] + b"\xff")
    assert excinfo.value.code == 400


def test_http_json_body_with_a_lone_surrogate_is_a_client_error(base):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base, "/subscribe", b'{"oid": "bad\\ud800", "xpath": "//a"}')
    assert excinfo.value.code == 400
    assert "surrogate" in json.loads(excinfo.value.read())["error"]
    assert _get(base, "/stats")["stats"]["engine"]["filters"] == len(FILTER_POOL)
    assert _post(base, "/publish", b"<a/>")["ok"]


def test_http_bad_xml_is_a_client_error_not_a_crash(base):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(base, "/publish", b"<a><unclosed>")
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["kind"] == "XMLSyntaxError"
    # the server survived the engine error
    assert _post(base, "/publish", b"<c/>")["ok"]
    assert _get(base, "/stats")["stats"]["publish_errors"] == 1

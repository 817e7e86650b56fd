"""The parent sleeps on file descriptors, not on a clock.

While a batch is out, ``ShardedFilterEngine`` blocks in
``multiprocessing.connection.wait`` on every worker's result pipe and
process sentinel.  These tests pin what that buys: a worker's death
wakes the parent at once, a worker that merely stops answering is
given exactly ``result_timeout``, and half a reply left behind by a
killed worker is end-of-file, not a hang.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time

import pytest

from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.service import worker as worker_module
from repro.service.engine import ServiceError

FILTERS = {"root": "/a", "child": "/a/b", "value": "/a/b[text()='1']", "other": "/r"}
SOURCE = "<a><b>1</b></a><a><b>2</b></a><r/><a/>" * 3
EXPECTED = [
    frozenset({"root", "child", "value"}),
    frozenset({"root", "child"}),
    frozenset({"other"}),
    frozenset({"root"}),
] * 3


def _engine(result_timeout: float):
    engine = create_engine(
        EngineConfig(
            engine="sharded",
            inner="xpush",
            shards=2,
            parallel=True,
            batch_size=4,
            result_timeout=result_timeout,
        ),
        FILTERS,
    )
    if not engine.parallel:
        engine.close()
        pytest.skip("multiprocessing unavailable on this platform")
    return engine


def _pid(engine, shard_id: int) -> int:
    return engine._workers[shard_id].process.pid


def test_killed_worker_wakes_the_waiting_parent():
    engine = _engine(result_timeout=30.0)
    try:
        assert engine.filter_stream(SOURCE) == EXPECTED  # both workers booted
        before = engine.stats()
        # Each shard holds one half of the next call: shard 0 the first.
        victim = _pid(engine, 0)
        # Stopped, the worker cannot answer: the parent is certainly
        # asleep in wait() when the kill lands.
        os.kill(victim, signal.SIGSTOP)
        killed_at: list[float] = []

        def _kill() -> None:
            killed_at.append(time.monotonic())
            os.kill(victim, signal.SIGKILL)

        timer = threading.Timer(0.3, _kill)
        timer.start()
        fired: list[tuple[int, str]] = []
        engine.on_match = lambda oid, doc, event: fired.append((doc, oid))
        try:
            answers = engine.filter_stream(SOURCE)
        finally:
            engine.on_match = None
            timer.join()
        recovered_in = time.monotonic() - killed_at[0]
        assert answers == EXPECTED
        # Restart, resubmission and answer all happen on the sentinel's
        # wake-up — well inside the second a capped poll could sleep.
        assert recovered_in < 0.8
        after = engine.stats()
        assert after["worker_restarts"] - before["worker_restarts"] == 1
        # Answered exactly once: counted once, every match delivered once,
        # though the restarted worker was handed its whole run again (a
        # filter_stream call is one item per shard).
        assert after["documents"] - before["documents"] == len(EXPECTED)
        assert after["batches"] - before["batches"] == 2
        assert sorted(fired) == sorted(
            (doc, oid) for doc, oids in enumerate(EXPECTED) for oid in oids
        )
        assert _pid(engine, 0) != victim
    finally:
        engine.close()


def test_stopped_worker_times_out_at_result_timeout():
    engine = _engine(result_timeout=0.5)
    victim = None
    try:
        assert engine.filter_stream(SOURCE) == EXPECTED
        victim = _pid(engine, 1)
        os.kill(victim, signal.SIGSTOP)  # alive, so never restarted
        started = time.monotonic()
        with pytest.raises(ServiceError, match="no shard progress"):
            engine.filter_stream(SOURCE)
        waited = time.monotonic() - started
        assert 0.5 <= waited < 2.0
        assert engine.stats()["worker_restarts"] == 0
    finally:
        if victim is not None:
            os.kill(victim, signal.SIGKILL)
        engine.close()


def test_half_a_reply_from_a_killed_worker_is_end_of_file(monkeypatch, tmp_path):
    marker = tmp_path / "torn-once"
    real_worker_main = worker_module.worker_main

    def _tearing_worker(shard_id, payload, tasks, results):
        class _Torn:
            """Shard 0's first batch reply stops halfway, then SIGKILL."""

            def send(self, message):
                if shard_id == 0 and message[0] == "batch" and not marker.exists():
                    marker.touch()
                    frame = pickle.dumps(message)
                    torn = struct.pack("!i", len(frame)) + frame[: len(frame) // 2]
                    os.write(results.fileno(), torn)
                    os.kill(os.getpid(), signal.SIGKILL)
                results.send(message)

        real_worker_main(shard_id, payload, tasks, _Torn())

    monkeypatch.setattr(worker_module, "worker_main", _tearing_worker)
    engine = _engine(result_timeout=10.0)
    try:
        if engine._ctx.get_start_method() != "fork":
            pytest.skip("the patched worker is inherited by fork only")
        started = time.monotonic()
        assert engine.filter_stream(SOURCE) == EXPECTED
        assert time.monotonic() - started < 5.0  # no hang on the torn frame
        assert marker.exists()
        stats = engine.stats()
        assert stats["worker_restarts"] == 1
        # The other shard's pipe never saw the torn frame.
        assert engine.filter_stream(SOURCE) == EXPECTED
        assert engine.stats()["worker_restarts"] == 1
    finally:
        engine.close()


def test_a_worker_killed_between_a_first_match_and_its_frame(monkeypatch, tmp_path):
    marker = tmp_path / "killed-once"
    real_worker_main = worker_module.worker_main

    def _dying_worker(shard_id, payload, tasks, results):
        class _Dying:
            """Shard 0 — which holds the call's first documents — dies
            as it would send its second ``matches`` frame: document 0's
            frame and document 1's first match are already on the pipe,
            document 1's frame is not."""

            frames = 0

            def send(self, message):
                if shard_id == 0 and message[0] == "matches" and not marker.exists():
                    self.frames += 1
                    if self.frames == 2:
                        marker.touch()
                        os.kill(os.getpid(), signal.SIGKILL)
                results.send(message)

        real_worker_main(shard_id, payload, tasks, _Dying())

    monkeypatch.setattr(worker_module, "worker_main", _dying_worker)
    engine = _engine(result_timeout=10.0)
    try:
        if engine._ctx.get_start_method() != "fork":
            pytest.skip("the patched worker is inherited by fork only")
        fired: list[tuple[int, str, int]] = []
        engine.on_match = lambda oid, doc, event: fired.append(
            (doc, oid, engine._workers[0].restarts)
        )
        assert engine.filter_stream(SOURCE) == EXPECTED
        assert marker.exists() and engine.stats()["worker_restarts"] == 1
        # Every (doc, oid) exactly once, though the respawned worker
        # re-streamed the whole item's frames.
        assert sorted((doc, oid) for doc, oid, _ in fired) == sorted(
            (doc, oid) for doc, oids in enumerate(EXPECTED) for oid in oids
        )
        # Folded before the crash: document 0's two shard-0 matches and
        # document 1's first; document 1's later one came from the
        # respawned worker, which re-streamed the others in vain.
        def _shard_0(document):
            return [r for doc, oid, r in fired if doc == document and oid in ("root", "child")]

        assert _shard_0(0) == [0, 0] and _shard_0(1) == [0, 1]
    finally:
        engine.on_match = None
        engine.close()

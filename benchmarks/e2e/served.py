"""Load generator for the serving tier: a ``repro serve`` child process,
two framed connections, one thread.

The server runs in its **own process** (``python -m repro serve``), so
the generator and the system under test do not share an interpreter
lock.  Connection 1 carries every verb (subscribe, publish, stats);
connection 2 is attached to the ``tap`` consumer and every match frame
read off it is timestamped.  Frames are built with the public codec (:func:`repro.serving.encode_frame`,
:class:`repro.serving.FrameDecoder`), which is also how the framing
layer's cost is measured.

The child is always reaped: :meth:`ServerChild.close` terminates, waits,
and kills on timeout; :class:`Session` calls it when its own set-up
fails, and the served window closes the session in a ``finally``.
"""

from __future__ import annotations

import os
import re
import select
import socket
import subprocess
import sys
import time
from typing import Any, Callable

from repro.serving import FrameDecoder, encode_frame

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
_BANNER = re.compile(r"# serving engine=\S+ on (\S+):(\d+) ")

TAP = "tap"
SENTINEL_OID = "sentinel"


def server_cpus() -> list[int]:
    """The CPUs a session gives its server: all but the first of this
    process's (all of it, when there is only one)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[1:] or cpus


class ServerChild:
    """``python -m repro serve`` on an ephemeral port, reaped on exit."""

    def __init__(self, engine: str = "layered", boot_timeout: float = 30.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--engine", engine,
             "--port", "0", "--policy", "drop_oldest"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            self.host, self.port = self._read_banner(boot_timeout)
        except BaseException:
            self.close()
            raise

    def _read_banner(self, timeout: float) -> tuple[str, int]:
        assert self.process.stderr is not None
        ready, _, _ = select.select([self.process.stderr], [], [], timeout)
        line = self.process.stderr.readline() if ready else ""
        found = _BANNER.match(line)
        if found is None:
            raise RuntimeError(f"serve child gave no banner (got {line!r})")
        return found.group(1), int(found.group(2))

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stderr is not None:
            process.stderr.close()


class Wire:
    """One framed TCP connection, non-blocking: its owner polls it.

    The generator never sleeps in ``recv``.  A blocked reader has to be
    woken by the other CPU for every frame, and in a VM that wake-up
    costs tens of microseconds and varies with the host: blocking reads
    spread closed-loop docs/s over +-23 % from run to run on the dev
    host, polled reads over +-4 %.
    """

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.decoder = FrameDecoder()

    def send(self, data: bytes, blocked: Callable[[], Any], timeout: float = 30.0) -> None:
        """Write all of *data*, calling *blocked* whenever the socket
        buffer is full: the server may itself be blocked writing to a
        connection this side has stopped reading, so the caller reads
        there; a send that stays blocked for *timeout* seconds raises."""
        view = memoryview(data)
        deadline = 0.0
        while view:
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                now = time.perf_counter()
                deadline = deadline or now + timeout
                if now > deadline:
                    raise TimeoutError("server stopped reading") from None
                blocked()

    def poll(self) -> list[dict[str, Any]]:
        """Frames that have arrived by now (possibly none)."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        return self.decoder.feed(chunk)

    def close(self) -> None:
        self.sock.close()


class Session:
    """A booted server with the workload subscribed and the tap attached.

    ``sources`` spread round-robin over ``consumers`` server-side
    consumers nobody drains (``drop_oldest`` keeps them bounded), except
    the sentinel filter, which is routed to ``tap``: it matches every
    document, so each one produces exactly one frame on connection 2.
    One thread owns both connections and polls them in turn; ``arrived``
    maps a document's server sequence number to when its tap frame was
    read.
    """

    def __init__(self, sources: dict[str, str], consumers: int, timeout: float = 30.0):
        self.timeout = timeout
        self.subscribe_seconds: list[float] = []
        self.arrived: dict[int, float] = {}
        self.duplicates = 0
        self.acks: list[dict[str, Any]] = []
        self.wires: list[Wire] = []
        self.child = ServerChild()
        # Generator and server on disjoint CPUs for the session's life,
        # so the polling generator never takes time from the server.
        self.affinity = os.sched_getaffinity(0)
        try:
            if len(self.affinity) > 1:
                server = set(server_cpus())
                os.sched_setaffinity(self.child.pid, server)
                os.sched_setaffinity(0, self.affinity - server)
            self.control = Wire(self.child.host, self.child.port)
            self.tap_wire = Wire(self.child.host, self.child.port)
            self.wires += [self.control, self.tap_wire]
            for index, (oid, xpath) in enumerate(sources.items()):
                consumer = TAP if oid == SENTINEL_OID else f"c{index % consumers}"
                started = time.perf_counter()
                self.request({"op": "subscribe", "oid": oid, "xpath": xpath, "consumer": consumer})
                self.subscribe_seconds.append(time.perf_counter() - started)
            self.tap_wire.send(encode_frame({"op": "attach", "consumer": TAP}), self.pump)
            self.wait(lambda: self.pump() or self.acks)  # the attach ack, on connection 2
            self.acks.clear()
        except BaseException:
            self.close()
            raise

    def pump(self) -> None:
        """Read what has arrived: acks off connection 1, match frames
        off connection 2 (timestamped as they are read)."""
        self.acks.extend(self.control.poll())
        frames = self.tap_wire.poll()
        if frames:
            now = time.perf_counter()
            for frame in frames:
                if frame.get("event") != "match":
                    self.acks.append(frame)
                elif frame["seq"] in self.arrived:
                    self.duplicates += 1
                else:
                    self.arrived[frame["seq"]] = now

    def wait(self, done: Callable[[], Any], timeout: float | None = None) -> bool:
        """Pump until ``done()`` is truthy; False on timeout."""
        deadline = time.perf_counter() + (self.timeout if timeout is None else timeout)
        while not done():
            if time.perf_counter() > deadline:
                return False
            self.pump()
        return True

    def send(self, data: bytes) -> None:
        """Send one verb frame on connection 1, reading both connections
        for as long as the socket will not take it."""
        self.control.send(data, self.pump, self.timeout)

    def roundtrip(self, data: bytes) -> dict[str, Any]:
        """Send one verb frame on connection 1 and wait for its reply."""
        self.send(data)
        if not self.wait(lambda: self.acks):
            raise TimeoutError("no reply from the server")
        return self.acks.pop(0)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        reply = self.roundtrip(encode_frame(payload))
        if not reply.get("ok", False):
            raise RuntimeError(f"server refused {payload.get('op')}: {reply.get('error')}")
        return reply

    def stats(self) -> dict[str, Any]:
        return dict(self.request({"op": "stats"})["stats"])

    def close(self) -> None:
        for wire in self.wires:
            wire.close()
        self.child.close()
        os.sched_setaffinity(0, self.affinity)

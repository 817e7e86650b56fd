"""Run a :class:`FilterServer` on a background thread.

Synchronous code — the test wall, the benchmarks, an application that
is not itself async — needs a live server without owning an event
loop.  :class:`ServerThread` runs one loop on a daemon thread, starts
the server there, and exposes thread-safe start/stop; used as a context
manager it guarantees the loop dies with the block:

    server = FilterServer(create_engine(EngineConfig()))
    with ServerThread(server) as handle:
        client = ServingClient(*handle.address)
        ...
    server.engine.close()  # stopping the server never closes it

Stopping performs the server's graceful drain *on the loop* before the
loop is shut down, so in-flight publishes finish and attached consumers
get their close frames.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.errors import ServingError
from repro.serving.server import FilterServer


class ServerThread:
    """Own one event loop on a daemon thread and run *server* on it."""

    def __init__(self, server: FilterServer, start_timeout: float = 10.0):
        self.server = server
        self._start_timeout = start_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise ServingError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serving", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._start_timeout):
            raise ServingError("server thread failed to start in time")
        if self._startup_error is not None:
            raise ServingError(f"server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - reported to starter
                self._startup_error = error
                return
            finally:
                self._ready.set()
            loop.run_forever()
        finally:
            # Drain callbacks scheduled during stop(), then close.
            try:
                loop.run_until_complete(asyncio.sleep(0))
            except RuntimeError:  # pragma: no cover - loop already closing
                pass
            asyncio.set_event_loop(None)
            loop.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def port(self) -> int:
        return self.server.port

    def run_coroutine(self, coro: Any, timeout: float = 30.0) -> Any:
        """Run *coro* on the server's loop; returns its result."""
        if self._loop is None:
            raise ServingError("server thread is not running")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def stats(self, timeout: float = 30.0) -> dict[str, Any]:
        return dict(self.run_coroutine(self.server.stats(), timeout))

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Gracefully stop the server, then the loop and the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive() and self._startup_error is None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain, timeout=timeout), loop
            )
            try:
                future.result(timeout + 5.0)
            except (TimeoutError, Exception):  # noqa: BLE001 - stop must not raise
                pass
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Fixtures and a timeout harness for the serving-tier test wall.

Every test in this directory talks to a live asyncio server over a
real loopback socket, so a deadlock (a wedged event loop, a forgotten
drain) would otherwise hang the whole suite.  Each test therefore runs
under a hard timeout: the ``pytest-timeout`` plugin when it is
installed (CI installs it — see the ``serving-tests`` job), else a
SIGALRM-based fallback implemented here, so the wall fails fast in
every environment.
"""

from __future__ import annotations

import asyncio
import gc
import signal

import pytest

from repro.engine import EngineConfig, create_engine
from repro.serving import FilterServer, ServerThread

#: Hard per-test budget, seconds.  Generous: the slowest test boots a
#: multi-process sharded engine; a healthy run stays far below it.
DEFAULT_TIMEOUT = 120

#: Filter pool shared by the serving differential tests (the same
#: control-plane wrinkles the update-plane wall exercises: predicates,
#: OR, NOT, wildcards, attribute tests).
FILTER_POOL = {
    "q0": "//a[b = 1]",
    "q1": "/a/b",
    "q2": "//*[@k = 'x']",
    "q3": "//b[text() = 2]",
    "q4": "/a[not(b = 1)]",
    "q5": "//a[b = 1 or b = 2]",
    "q6": "//a",
    "q7": "//r[a/b = 3]",
}

#: Document pool: single documents plus multi-document streams.
DOC_POOL = [
    "<a><b>1</b></a>",
    "<a><b>2</b></a>",
    "<a><c/></a>",
    "<b>2</b>",
    "<a k='x'><b>1</b><a><b>2</b></a></a>",
    "<r><a><b>3</b></a></r>",
    "<a><b>1</b></a><b>2</b>",           # two documents in one publish
    "<r><a><b>3</b></a></r><a><c/></a><a><b>2</b></a>",  # three
]

try:
    import pytest_timeout as _pytest_timeout  # noqa: F401

    HAVE_PYTEST_TIMEOUT = True
except ImportError:
    HAVE_PYTEST_TIMEOUT = False


def pytest_collection_modifyitems(items):
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(DEFAULT_TIMEOUT))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback when pytest-timeout is absent: honour the same
    ``timeout`` marker so the wall cannot hang a plugin-less run."""
    marker = item.get_closest_marker("timeout")
    use_alarm = (
        not HAVE_PYTEST_TIMEOUT
        and marker is not None
        and hasattr(signal, "SIGALRM")
    )
    if not use_alarm:
        return (yield)
    seconds = float(marker.args[0]) if marker.args else float(DEFAULT_TIMEOUT)

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds:.0f}s serving-test timeout"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def serve():
    """Start servers on background threads; stop them all and close
    their engines at teardown.

    Usage: ``handle = serve(config, filters, **server_kwargs)``.

    asyncio only *logs* an exception that escapes a connection callback
    or a push pump, so each server loop gets an exception handler that
    records it, and a test whose server recorded one fails at teardown.
    """
    handles: list[ServerThread] = []
    escaped: list[dict] = []

    def _record(loop: asyncio.AbstractEventLoop, context: dict) -> None:
        escaped.append(context)

    async def _install() -> None:
        asyncio.get_running_loop().set_exception_handler(_record)

    def _serve(
        config: EngineConfig | None = None, filters=None, **kwargs
    ) -> ServerThread:
        server = FilterServer(create_engine(config, filters), **kwargs)
        handle = ServerThread(server).start()
        handle.run_coroutine(_install())
        handles.append(handle)
        return handle

    yield _serve
    for handle in handles:
        handle.stop()
        handle.server.engine.close()  # the server borrows, never closes
    gc.collect()  # a task that died unobserved reports when collected
    if escaped:
        pytest.fail(
            "an exception escaped a server task: "
            + "; ".join(
                f"{context.get('message')}: {context.get('exception')!r}"
                for context in escaped
            )
        )

"""Bytes that are not UTF-8 are malformed XML, on every engine and backend.

Each engine meets the bytes somewhere else: the layered engine decodes
them in its parser, a sharded engine in the boundary scan before
anything reaches a shard.  Every one of them must answer
:class:`~repro.errors.XMLSyntaxError`, never a bare
``UnicodeDecodeError``, and the CLI must turn that into exit 2.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import EngineConfig, create_engine
from repro.errors import XMLSyntaxError
from repro.service.engine import ShardedFilterEngine, _mp_context

FILTERS = {"q0": "//a", "q1": "/a[b = 1]"}

NOT_UTF8 = {
    "invalid-start-byte": b"<a>\xff</a>",
    "truncated": b"<a>caf\xc3</a>",
}


def _engine(kind: str, backend: str):
    if kind == "layered":
        return create_engine(EngineConfig(backend=backend), FILTERS)
    if kind == "sharded-workers" and _mp_context() is None:
        pytest.skip("multiprocessing unavailable on this platform")
    return ShardedFilterEngine(
        FILTERS, 2, backend=backend, parallel=kind == "sharded-workers"
    )


@pytest.mark.parametrize("data", NOT_UTF8.values(), ids=list(NOT_UTF8))
@pytest.mark.parametrize("kind", ["layered", "sharded-inprocess", "sharded-workers"])
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_bytes_that_are_not_utf8_are_a_syntax_error(backend, kind, data):
    engine = _engine(kind, backend)
    try:
        with pytest.raises(XMLSyntaxError):
            engine.filter_stream(data)
        # Refused before anything was half-applied: the engine serves on.
        assert engine.filter_stream(b"<a><b>1</b></a>") == [frozenset({"q0", "q1"})]
    finally:
        engine.close()


def test_cli_reports_input_that_is_not_utf8(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("//a\n")
    bad = tmp_path / "bad.xml"
    bad.write_bytes(NOT_UTF8["truncated"])
    assert main(["filter", "--queries", str(queries), "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err

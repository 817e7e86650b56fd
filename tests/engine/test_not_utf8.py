"""Text that is not UTF-8 is malformed XML, on every engine and scanner.

Bytes that do not decode, and a ``str`` holding a lone surrogate (which
no UTF-8 encodes), meet each engine somewhere else: the layered engine
decodes or encodes them in its parser; a sharded engine encodes a
``str`` in the parent and ships bytes, which each shard decodes in its
own parse.  Every one of them must answer
:class:`~repro.errors.XMLSyntaxError` — with the layered engine's text
— never a bare ``UnicodeDecodeError`` or ``UnicodeEncodeError``, and
the CLI must turn that into exit 2.  Each case runs on expat and again
on the oracle scanner (``tests/scanner_oracle.py``, id ``"python"``).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import EngineConfig, create_engine
from repro.errors import XMLSyntaxError
from repro.service.engine import ShardedFilterEngine, _mp_context
from repro.xmlstream.split import split_documents

from tests.scanner_oracle import scanning

FILTERS = {"q0": "//a", "q1": "/a[b = 1]"}

NOT_UTF8 = {
    "invalid-start-byte": b"<a>\xff</a>",
    "truncated": b"<a>caf\xc3</a>",
}

#: A well-formed document ahead of one holding an unpaired surrogate.
LONE_SURROGATE = "<a><b>1</b></a><a>x\ud800</a>"


def _engine(kind: str):
    if kind == "layered":
        return create_engine(EngineConfig(), FILTERS)
    if kind == "sharded-workers" and _mp_context() is None:
        pytest.skip("multiprocessing unavailable on this platform")
    return ShardedFilterEngine(FILTERS, 2, parallel=kind == "sharded-workers")


def _refuses_like_the_layered_engine(kind: str, backend: str, data) -> None:
    with scanning(backend):
        layered = _engine("layered")
        with pytest.raises(XMLSyntaxError) as reference:
            layered.filter_stream(data)
        layered.close()
        engine = _engine(kind)
        try:
            with pytest.raises(XMLSyntaxError) as raised:
                engine.filter_stream(data)
            assert str(raised.value) == str(reference.value)
            # Nothing was half-applied: the engine serves on.
            assert engine.filter_stream(b"<a><b>1</b></a>") == [frozenset({"q0", "q1"})]
        finally:
            engine.close()


KINDS = ["layered", "sharded-inprocess", "sharded-workers"]


@pytest.mark.parametrize("data", NOT_UTF8.values(), ids=list(NOT_UTF8))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_bytes_that_are_not_utf8_are_a_syntax_error(backend, kind, data):
    _refuses_like_the_layered_engine(kind, backend, data)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_a_str_with_a_lone_surrogate_is_a_syntax_error(backend, kind):
    _refuses_like_the_layered_engine(kind, backend, LONE_SURROGATE)
    with pytest.raises(XMLSyntaxError, match="at character 19"):
        split_documents(LONE_SURROGATE)


def test_cli_reports_input_that_is_not_utf8(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("//a\n")
    bad = tmp_path / "bad.xml"
    bad.write_bytes(NOT_UTF8["truncated"])
    assert main(["filter", "--queries", str(queries), "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err

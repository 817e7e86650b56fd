"""Differential wall for the text-forwarding data plane.

In parallel mode ``filter_stream`` never builds a tree: the parent cuts
the source at document boundaries and every worker parses the
publisher's own bytes.  Whatever the source looks like, the answers
must be the serial ``xpush`` engine's on the same source with the same
parser backend — and a source the serial engine rejects must be
rejected here too, by the parent, before anything is shipped.
"""

from __future__ import annotations

import io

import pytest

from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.errors import ReproError, XMLSyntaxError
from repro.service.engine import ServiceError

BATCH_SIZE = 3

FILTERS = {
    "root": "/a",
    "esc": "/a/b[text()='x<y&z']",
    "quot": "/a[@k='say \"hi\" & <go>']",
    "utf": "//c[text()='é😀ß']",
    "attr_utf": "//c[@n='ü']",
    "cdata": "/a/d[text()='<z> & co']",
    "charref": "/a/e[text()='AB']",
    "deep": "//f/g",
    "num": "/a/h[text()=7]",
    "other": "/r/s",
}

ESCAPES = '<a k="say &quot;hi&quot; &amp; &lt;go&gt;"><b>x&lt;y&amp;z</b></a>'
UTF8 = '<a><c n="ü">é😀ß</c><!-- ünï --></a>'
CDATA = "<a><d><![CDATA[<z> & co]]></d><e>&#65;&#x42;</e></a>"
PLAIN = "<a><f><g/></f><h>7</h></a>"
OTHER = "<r><s/></r>"
EMPTY_ROOT = '<a k="1>2"/>'

#: name → one source of zero or more concatenated documents.
SOURCES = {
    "declaration-first": '<?xml version="1.0" encoding="utf-8"?>' + ESCAPES + PLAIN,
    "declaration-between": ESCAPES + '<?xml version="1.0"?>' + PLAIN,
    "doctype-between": PLAIN + "<!DOCTYPE r [<!ELEMENT r (s)>]>" + OTHER + ESCAPES,
    "comment-between": ESCAPES + "<!-- <a> not a document </a> -->" + UTF8,
    "pi-between": PLAIN + "<?target some data?>" + CDATA,
    "cdata-and-references": CDATA + CDATA,
    "attribute-escapes": ESCAPES + EMPTY_ROOT + ESCAPES,
    "multi-byte": UTF8 + PLAIN + UTF8 + "<!-- € -->" + OTHER,
    "whitespace-between": "\n  " + PLAIN + "\n\n\t" + UTF8 + "  \r\n" + OTHER + "\n",
    "trailing-comment": PLAIN + "  <!-- the end -->  ",
    "empty": "",
    "whitespace-only": " \n\t ",
    "comment-only": "<!-- nothing here -->",
    "more-than-a-batch": (ESCAPES + UTF8 + CDATA + PLAIN + OTHER) * (BATCH_SIZE + 1),
}

MALFORMED = {
    "unclosed-tail": "<a>x</a><a>y",
    "mismatched-tail": PLAIN + "<a></b>",
    "text-between": PLAIN + "stray" + PLAIN,
    "bad-entity": PLAIN + "<a>&nope;</a>",
}


@pytest.fixture(scope="module", params=["expat", "python"])
def engines(request):
    backend = request.param
    serial = create_engine(EngineConfig(engine="xpush", backend=backend), FILTERS)
    sharded = create_engine(
        EngineConfig(
            engine="sharded",
            inner="xpush",
            shards=2,
            parallel=True,
            batch_size=BATCH_SIZE,
            warm=False,
            backend=backend,
            result_timeout=30.0,
        ),
        FILTERS,
    )
    if not sharded.parallel:
        sharded.close()
        pytest.skip("multiprocessing unavailable on this platform")
    yield serial, sharded
    sharded.close()
    serial.close()


def _as_str(text: str):
    return text


def _as_bytes(text: str):
    return text.encode("utf-8")


def _as_text_file(text: str):
    return io.StringIO(text)


def _as_binary_file(text: str):
    return io.BytesIO(text.encode("utf-8"))


SOURCE_KINDS = [_as_str, _as_bytes, _as_text_file, _as_binary_file]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_forwarded_slices_answer_like_the_serial_engine(engines, name):
    serial, sharded = engines
    expected = serial.filter_stream(SOURCES[name])
    for kind in SOURCE_KINDS:
        assert sharded.filter_stream(kind(SOURCES[name])) == expected, kind.__name__


def test_the_sources_exercise_every_filter(engines):
    serial, _ = engines
    matched = set()
    for text in SOURCES.values():
        matched.update(*serial.filter_stream(text))
    assert matched == set(FILTERS)


def test_large_call_is_cut_into_batches(engines):
    serial, sharded = engines
    before = sharded.stats()["batches"]
    source = SOURCES["more-than-a-batch"]
    answers = sharded.filter_stream(source)
    assert answers == serial.filter_stream(source)
    assert len(answers) == 5 * (BATCH_SIZE + 1)
    assert sharded.stats()["batches"] - before == -(-len(answers) // BATCH_SIZE)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_source_raises_in_the_parent_before_shipping(engines, name):
    serial, sharded = engines
    with pytest.raises(XMLSyntaxError) as reference:
        serial.filter_stream(MALFORMED[name])
    before = sharded.stats()
    for kind in SOURCE_KINDS:
        with pytest.raises(XMLSyntaxError) as raised:
            sharded.filter_stream(kind(MALFORMED[name]))
        assert str(raised.value) == str(reference.value)
    after = sharded.stats()
    assert (after["batches"], after["documents"]) == (before["batches"], before["documents"])
    assert after["worker_restarts"] == 0
    # Nothing was shipped, so nothing is left over to confuse the next call.
    assert sharded.filter_stream(PLAIN) == serial.filter_stream(PLAIN)


def test_mixed_content_is_reported_as_the_serial_engine_reports_it(engines):
    """The document reaches the workers as written, so they see the
    text *after* the element child — the DOM round trip used to move it
    in front and report "element <b> opened after text" instead."""
    serial, sharded = engines
    with pytest.raises(ReproError, match="text after element children"):
        serial.filter_stream("<a><b/>y</a>")
    with pytest.raises(ServiceError, match="text after element children"):
        sharded.filter_stream("<a><b/>y</a>")
    assert sharded.filter_stream(PLAIN) == serial.filter_stream(PLAIN)


def test_filter_batch_shares_the_text_path(engines):
    from repro.xmlstream.dom import parse_forest

    serial, sharded = engines
    source = SOURCES["more-than-a-batch"]
    documents = parse_forest(source)
    assert sharded.filter_batch(documents) == serial.filter_stream(source)

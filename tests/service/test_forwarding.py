"""Differential wall for the text-forwarding data plane.

``filter_stream`` parses nothing in the parent: one boundary scan cuts
the publisher's bytes into runs of whole documents, one per shard, and
the shard's parse is each document's only one.  Whatever the source
looks like, the answers must be the serial ``xpush`` engine's on the
same source with the same scanner — and a source the serial engine
rejects must be rejected here with the serial engine's own error,
raised from a shard's report.  Every case runs on expat and again with
the oracle scanner (``tests/scanner_oracle.py``, id ``"python"``)
parsing in the serial engine and the shards.
"""

from __future__ import annotations

import io

import pytest

import repro.xmlstream.parser
from repro.engine.config import EngineConfig
from repro.engine.factory import create_engine
from repro.errors import MixedContentError, XMLSyntaxError
from repro.service import engine as sharded_module
from repro.service import worker
from repro.service.engine import ServiceError
from repro.xmlstream.dom import parse_forest

from tests.scanner_oracle import scanning

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
    with scanning(request.param):  # workers fork inside: they inherit it
        serial = create_engine(EngineConfig(engine="xpush"), FILTERS)
        sharded = create_engine(
            EngineConfig(
                engine="sharded",
                inner="xpush",
                shards=2,
                parallel=True,
                batch_size=BATCH_SIZE,
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


def _dealt(engine, call):
    """What *call* did to *engine*: its answers, the ``on_match`` fires
    as ``(doc_index, oid, event_index)``, and the move of each shard's
    document count and of the item count."""
    before = engine.stats()
    fired = []
    engine.on_match = lambda oid, doc, event: fired.append((doc, oid, event))
    try:
        answers = call()
    finally:
        engine.on_match = None
    after = engine.stats()
    loads = [b - a for a, b in zip(before.get("shard_load", ()), after.get("shard_load", ()))]
    return answers, sorted(fired), loads, after.get("batches", 0) - before.get("batches", 0)


def test_a_stream_call_is_dealt_as_one_item_per_shard(engines):
    """An n-document call is ``min(shards, n)`` items, each answered by
    exactly one shard, with the documents and the ``on_match`` indexes
    of the serial engine."""
    serial, sharded = engines
    for text in (PLAIN, OTHER + PLAIN, SOURCES["more-than-a-batch"]):
        expected, fired, _, _ = _dealt(serial, lambda: serial.filter_stream(text))
        answers, sharded_fired, loads, items = _dealt(
            sharded, lambda: sharded.filter_stream(text)
        )
        assert answers == expected
        assert sharded_fired == fired
        assert items == min(2, len(answers)) == sum(load > 0 for load in loads)
        assert sum(loads) == len(answers)
    assert loads == [len(answers) // 2] * 2 and len(answers) == 5 * (BATCH_SIZE + 1)


def test_large_call_is_cut_into_batches(engines):
    """``filter_batch``, whose documents the parent holds, still cuts
    at ``batch_size``."""
    serial, sharded = engines
    source = SOURCES["more-than-a-batch"]
    before = sharded.stats()["batches"]
    answers = sharded.filter_batch(parse_forest(source))
    assert answers == serial.filter_stream(source)
    assert len(answers) == 5 * (BATCH_SIZE + 1)
    assert sharded.stats()["batches"] - before == -(-len(answers) // BATCH_SIZE)


def _refuse(*args, **kwargs):
    raise AssertionError("the parent parsed")


def test_the_parent_makes_no_parse_call(engines, monkeypatch):
    """Worker mode only: in-process shards parse in the parent by
    design.  The parent's one look at a source is one boundary scan per
    call: it never calls ``parse_into`` and builds no event scanner —
    the scan drives a bare expat parser of its own.  The shards are
    already booted, and forked workers keep the entry points they had,
    so only the parent is held to this."""
    serial, sharded = engines
    expected = {name: serial.filter_stream(text) for name, text in SOURCES.items()}
    split = sharded_module.split_documents
    scans = []

    def _counted_split(*args):
        scans.append(args)
        return split(*args)

    monkeypatch.setattr(repro.xmlstream.parser, "parse_into", _refuse)
    monkeypatch.setattr(repro.xmlstream.parser, "ExpatScanner", _refuse)
    monkeypatch.setattr(sharded_module, "split_documents", _counted_split)
    for name, text in SOURCES.items():
        for kind in SOURCE_KINDS:
            del scans[:]
            assert sharded.filter_stream(kind(text)) == expected[name], (name, kind)
            assert len(scans) == 1, (name, kind)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_source_raises_the_serial_engines_syntax_error(engines, name):
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
    # The other shard's report of the same fault is dropped, so nothing
    # is left over to confuse the next call.
    assert sharded.filter_stream(PLAIN) == serial.filter_stream(PLAIN)


def test_mixed_content_is_reported_as_the_serial_engine_reports_it(engines):
    """The document reaches the workers as written, so they see the
    text *after* the element child — the DOM round trip used to move it
    in front and report "element <b> opened after text" instead — and
    the parent re-raises the machine's own error type."""
    serial, sharded = engines
    with pytest.raises(MixedContentError, match="text after element children") as reference:
        serial.filter_stream("<a><b/>y</a>")
    with pytest.raises(MixedContentError) as raised:
        sharded.filter_stream("<a><b/>y</a>")
    assert str(raised.value) == str(reference.value)
    assert sharded.filter_stream(PLAIN) == serial.filter_stream(PLAIN)


def test_filter_batch_shares_the_text_path(engines):
    serial, sharded = engines
    source = SOURCES["more-than-a-batch"]
    documents = parse_forest(source)
    assert sharded.filter_batch(documents) == serial.filter_stream(source)


def test_shards_that_disagree_on_the_document_count_fail_the_call(monkeypatch):
    """The parent's cut fixes each item's document count; a shard
    answering for a different number of documents is a
    ``ServiceError``, never a silently misaligned answer list."""
    run_batch = worker.run_batch

    def _one_document_short(engine, shard_id, task, applied_epoch, busy_s, send):
        def _send(message):
            if message[0] == "batch" and shard_id == 0:
                message = (*message[:3], message[3][:-1], message[4])
            send(message)

        return run_batch(engine, shard_id, task, applied_epoch, busy_s, _send)

    monkeypatch.setattr(worker, "run_batch", _one_document_short)
    engine = create_engine(EngineConfig(engine="sharded", shards=2, parallel=False), FILTERS)
    try:
        with pytest.raises(ServiceError, match="returned 1 answers for an item of 2"):
            engine.filter_stream(PLAIN + OTHER + PLAIN + OTHER)
        assert engine.stats()["documents"] == 0
    finally:
        engine.close()


def test_the_earliest_failed_item_raises(monkeypatch):
    """Two items fail with different errors: the call raises the one
    the serial engine raises — that of the earlier document — though
    the later item's report is read first (in-process shards are read
    in shard order, and shard 0 holds items 1 and 3)."""
    source = PLAIN + "<a>x<b/></a>" + "<a>x<c/></a>"
    serial = create_engine(EngineConfig(engine="xpush"), FILTERS)
    with pytest.raises(MixedContentError) as reference:
        serial.filter_stream(source)
    assert "<b>" in str(reference.value)
    engine = create_engine(
        EngineConfig(engine="sharded", shards=2, parallel=False, batch_size=1), FILTERS
    )
    try:
        with pytest.raises(MixedContentError) as raised:
            engine.filter_batch(parse_forest(source))
        assert str(raised.value) == str(reference.value)
        assert engine.filter_stream(PLAIN) == serial.filter_stream(PLAIN)
    finally:
        engine.close()

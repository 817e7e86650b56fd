"""Tests for the push-mode event path: PushScanner/ExpatScanner feed
protocol, chunk-boundary rollback, parse_into byte accounting."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import EventHandler
from repro.xmlstream.expat_backend import ExpatScanner
from repro.xmlstream.parser import (
    PushScanner,
    count_bytes,
    iterparse,
    make_scanner,
    parse_events,
    parse_into,
    resolve_backend,
)

#: One input exercising every token kind the scanner knows.
TRICKY = (
    '<?xml version="1.0"?>'
    "<!DOCTYPE a [<!ELEMENT a ANY>]>"
    "<a q=\"1&amp;2\" p='y y'>"
    "<!-- comment -->"
    "<b> 4 </b>"
    "<![CDATA[ ]]>"
    "x<![CDATA[y < z]]>w"
    "</a>"
    "<d/> <e f20='&#65;'/>"
)


class Recorder(EventHandler):
    """Records the raw callback sequence (no Event objects involved)."""

    def __init__(self):
        self.calls = []

    def start_document(self):
        self.calls.append(("startDocument",))

    def start_element(self, label):
        self.calls.append(("startElement", label))

    def text(self, value):
        self.calls.append(("text", value))

    def end_element(self, label):
        self.calls.append(("endElement", label))

    def end_document(self):
        self.calls.append(("endDocument",))


#: Leaf candidates of every shape: text split by a comment or entity,
#: CDATA, whitespace only, empty, with children, whitespace in the tag,
#: a root that is a leaf.
LEAVES = (
    "<r><c>1<!-- x -->2</c><c><![CDATA[v]]></c><c> </c><c></c>"
    "<c><d>1</d></c><c >v</c><c>&amp;</c><c><!-- only --></c></r>"
    "<r>v</r><r><c x=''>t</c></r>"
)


class LeafRecorder(Recorder):
    """A :class:`Recorder` that also takes fused leaves, and records them
    as the triples they stand for."""

    def __init__(self):
        super().__init__()
        self.leaves = 0

    def leaf(self, label, value):
        self.leaves += 1
        self.calls += [("startElement", label), ("text", value), ("endElement", label)]


def calls_of(text, scanner_class, splits, recorder_class=None):
    recorder = (recorder_class or Recorder)()
    scanner = scanner_class(recorder)
    last = 0
    for split in splits:
        scanner.feed(text[last:split])
        last = split
    scanner.feed(text[last:])
    scanner.close()
    return recorder.calls


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_every_split_point_is_equivalent(scanner_class):
    """Tokens straddling a feed boundary must be re-parsed, not lost."""
    whole = calls_of(TRICKY, scanner_class, [])
    assert whole  # sanity: the tricky input produces events
    for split in range(len(TRICKY) + 1):
        assert calls_of(TRICKY, scanner_class, [split]) == whole, split


@pytest.mark.parametrize("text", [TRICKY, LEAVES], ids=["tricky", "leaves"])
@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_leaf_stream_expands_to_the_classic_stream(scanner_class, text):
    """A handler with ``leaf`` gets fused leaves; expanded to triples
    they are the classic stream, at every split point."""
    whole = calls_of(text, scanner_class, [])
    for split in range(len(text) + 1):
        assert calls_of(text, scanner_class, [split], LeafRecorder) == whole, split


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_leaves_sent_for_attributes_and_text_only_elements(scanner_class):
    recorder = LeafRecorder()
    scanner = scanner_class(recorder)
    scanner.feed(LEAVES)
    scanner.close()
    # <c>1..2</c>, CDATA, <c >v</c>, &amp;, <d>1</d>, <r>v</r> and @x; not
    # the whitespace-only, empty, comment-only or parent elements, nor an
    # element with attributes (its start tag is not held back).
    assert recorder.leaves == 7


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_one_character_feeds(scanner_class):
    whole = calls_of(TRICKY, scanner_class, [])
    assert calls_of(TRICKY, scanner_class, range(len(TRICKY))) == whole


def test_push_and_pull_agree():
    recorder = Recorder()
    parse_into(TRICKY, recorder, backend="python")
    from_pull = Recorder()
    for event in iterparse(TRICKY):
        kind = type(event).__name__
        if kind == "StartElement":
            from_pull.start_element(event.label)
        elif kind == "Text":
            from_pull.text(event.value)
        elif kind == "EndElement":
            from_pull.end_element(event.label)
        elif kind == "StartDocument":
            from_pull.start_document()
        else:
            from_pull.end_document()
    assert recorder.calls == from_pull.calls


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_parse_into_counts_bytes_for_every_source_kind(backend):
    xml = "<café><λ>наука</λ></café>"  # multi-byte labels and text
    expected = len(xml.encode("utf-8"))
    assert expected != len(xml)  # the count is bytes, not characters
    for source in (xml, xml.encode("utf-8"), io.StringIO(xml), io.BytesIO(xml.encode("utf-8"))):
        handler = Recorder()
        assert parse_into(source, handler, backend=backend) == expected
        assert handler.calls[1] == ("startElement", "café")


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_multibyte_character_straddles_binary_chunks(backend):
    xml = "<a>" + "λ中𝄞" * 50 + "</a>"
    raw = xml.encode("utf-8")
    for chunk_size in (1, 2, 3, 7):
        handler = Recorder()
        total = parse_into(io.BytesIO(raw), handler, backend=backend, chunk_size=chunk_size)
        assert total == len(raw)
        assert ("text", "λ中𝄞" * 50) in handler.calls


def test_machine_counts_bytes_for_file_like_sources():
    """The CLI MB/s figure must not read 0 for file inputs."""
    from repro.xpush.machine import XPushMachine

    xml = "<a><b>1</b></a>" * 5
    for backend in ("python", "expat"):
        machine = XPushMachine.from_xpath({"o1": "//a[b/text() = 1]"})
        results = machine.filter_stream(io.StringIO(xml), backend=backend)
        assert results == [frozenset({"o1"})] * 5
        assert machine.stats.bytes_processed == count_bytes(xml)


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_feed_after_close_rejected(scanner_class):
    scanner = scanner_class(Recorder())
    scanner.feed("<a/>")
    scanner.close()
    with pytest.raises(XMLSyntaxError):
        scanner.feed("<b/>")


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_close_is_idempotent(scanner_class):
    recorder = Recorder()
    scanner = scanner_class(recorder)
    scanner.feed("<a/>")
    scanner.close()
    scanner.close()
    assert recorder.calls.count(("endDocument",)) == 1


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_incomplete_input_fails_at_close(scanner_class):
    for bad in ("<a>", "<a", "<a b=", "<!-- never closed", "<a><![CDATA[x"):
        scanner = scanner_class(Recorder())
        with pytest.raises(XMLSyntaxError):
            scanner.feed(bad)
            scanner.close()


def test_resolve_backend():
    assert resolve_backend("python") == "python"
    assert resolve_backend("expat") == "expat"
    assert resolve_backend("auto") in ("python", "expat")
    with pytest.raises(ValueError):
        resolve_backend("libxml")
    assert type(make_scanner(Recorder(), "python")) is PushScanner
    assert type(make_scanner(Recorder(), "expat")) is ExpatScanner


def test_iterparse_backend_selector():
    xml = "<a p='1'><b>x</b></a><c/>"
    assert list(iterparse(xml, backend="expat")) == parse_events(xml)
    assert list(iterparse(xml, backend="auto")) == parse_events(xml)


@pytest.mark.parametrize("scanner_class", [PushScanner, ExpatScanner])
def test_empty_and_markup_only_streams(scanner_class):
    for text in ("", "   \n\t ", "<!-- just a comment -->", "<?pi data?>"):
        if scanner_class is ExpatScanner and text == "<?pi data?>":
            continue  # expat requires a PI target before content; skip
        recorder = Recorder()
        scanner = scanner_class(recorder)
        scanner.feed(text)
        scanner.close()
        assert recorder.calls == []


def test_handler_exceptions_propagate():
    class Boom(EventHandler):
        def start_element(self, label):
            raise RuntimeError("boom")

    for backend in ("python", "expat"):
        with pytest.raises(RuntimeError, match="boom"):
            parse_into("<a/>", Boom(), backend=backend)

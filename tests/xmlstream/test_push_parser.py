"""Tests for the push-mode event path: the feed protocol and chunk
boundaries of ExpatScanner and of the oracle PushScanner, parse_into
byte accounting on either (``"python"`` runs it on the oracle)."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.engine import EngineConfig, create_engine
from repro.xmlstream import parser as parser_module
from repro.xmlstream.dom import parse_forest
from repro.xmlstream.events import EventHandler, Text
from repro.xmlstream.expat_backend import ExpatScanner
from repro.xmlstream.parser import count_bytes, iterparse, parse_events, parse_into
from repro.xpush.machine import XPushMachine

from tests.scanner_oracle import PushScanner, scanning

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
    parse_into(TRICKY, recorder)
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
        with scanning(backend):
            assert parse_into(source, handler) == expected
        assert handler.calls[1] == ("startElement", "café")


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_multibyte_character_straddles_binary_chunks(backend):
    xml = "<a>" + "λ中𝄞" * 50 + "</a>"
    raw = xml.encode("utf-8")
    for chunk_size in (1, 2, 3, 7):
        handler = Recorder()
        with scanning(backend):
            total = parse_into(io.BytesIO(raw), handler, chunk_size=chunk_size)
        assert total == len(raw)
        assert ("text", "λ中𝄞" * 50) in handler.calls


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_a_whole_source_is_fed_a_chunk_at_a_time(backend, monkeypatch):
    """Each document boundary restarts the scanner on the rest of the
    chunk it came in, so a source fed whole costs time quadratic in its
    documents; a two-byte character straddles the binary chunks."""
    xml = "<a x='λ'>λ</a>" * 40
    document = [("startDocument",), ("startElement", "a"), ("startElement", "@x"), ("text", "λ")]
    document += [("endElement", "@x"), ("text", "λ"), ("endElement", "a"), ("endDocument",)]
    fed = []
    with scanning(backend):
        scanner_class = parser_module.ExpatScanner
        feed = scanner_class.feed

        def counted_feed(scanner, chunk):
            fed.append(len(chunk))
            feed(scanner, chunk)

        monkeypatch.setattr(scanner_class, "feed", counted_feed)
        for source in (xml, xml.encode("utf-8")):
            fed.clear()
            handler = Recorder()
            assert parse_into(source, handler, chunk_size=7) == count_bytes(xml)
            assert handler.calls == document * 40
            assert max(fed) == 7 and sum(fed) == len(source)


def test_machine_counts_bytes_for_file_like_sources():
    """The CLI MB/s figure must not read 0 for file inputs."""
    xml = "<a><b>1</b></a>" * 5
    for backend in ("python", "expat"):
        machine = XPushMachine.from_xpath({"o1": "//a[b/text() = 1]"})
        with scanning(backend):
            results = machine.filter_stream(io.StringIO(xml))
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


#: A literal tab and newline in an attribute value, CR LF in text.
UNNORMALISED = "<a x='1\t2\n3'><b>4\r\n5</b></a>"


def test_attribute_whitespace_reaches_every_entry_point_as_spaces():
    """XML 1.0 (3.3.3): a literal tab or newline in an attribute value
    is a space, whichever entry point parses it."""
    expected = Text("1 2 3")
    assert expected in parse_events(UNNORMALISED)
    assert expected in list(iterparse(UNNORMALISED))
    assert expected in list(iterparse(io.BytesIO(UNNORMALISED.encode("utf-8")), chunk_size=3))
    (document,) = parse_forest(UNNORMALISED)
    assert document.root.attribute("x") == "1 2 3"
    engine = create_engine(EngineConfig(), {"q": "/a[@x = '1 2 3']", "r": "//a[@x = '1\t2\n3']"})
    assert engine.filter_stream(UNNORMALISED) == [frozenset({"q"})]
    engine.close()


def test_line_ends_in_text_are_normalised():
    """XML 1.0 (2.11): ``\\r\\n`` in character data is one ``\\n``."""
    assert Text("4\n5") in parse_events(UNNORMALISED)
    (document,) = parse_forest(UNNORMALISED)
    assert document.root.children[0].text == "4\n5"


def test_a_parser_other_than_expat_is_refused():
    """``backend`` survives only as the one value the e2e harness
    passes; nothing else names a parser."""
    for parse in (
        lambda backend: parse_into("<a/>", EventHandler(), backend=backend),
        lambda backend: parse_forest("<a/>", backend=backend),
        lambda backend: XPushMachine.from_xpath({"q": "/a"}).filter_stream("<a/>", backend=backend),
    ):
        parse("expat")
        for backend in ("python", "auto"):
            with pytest.raises(ValueError, match="expat is the only scanner"):
                parse(backend)
    assert EngineConfig().backend == "expat"


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
        with scanning(backend), pytest.raises(RuntimeError, match="boom"):
            parse_into("<a/>", Boom())

"""Tests for the streaming XML parser's entry points (expat underneath)."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import iterparse, parse_events

from tests.scanner_oracle import decode_entities, oracle_events


def kinds(events):
    return [type(e).__name__ for e in events]


def test_minimal_document():
    events = parse_events("<a/>")
    assert events == [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]


def test_text_and_nesting():
    events = parse_events("<a><b>hi</b></a>")
    assert events == [
        StartDocument(),
        StartElement("a"),
        StartElement("b"),
        Text("hi"),
        EndElement("b"),
        EndElement("a"),
        EndDocument(),
    ]


def test_attributes_become_pseudo_elements_in_source_order():
    events = parse_events('<a q="2" p="1"/>')
    labels = [e.label for e in events if isinstance(e, StartElement)]
    assert labels == ["a", "@q", "@p"]


def test_paper_section2_example():
    events = parse_events('<a c="3"> <b> 4 </b> </a>')
    assert [e for e in events if isinstance(e, Text)] == [Text("3"), Text(" 4 ")]
    assert kinds(events) == [
        "StartDocument",
        "StartElement",
        "StartElement",
        "Text",
        "EndElement",
        "StartElement",
        "Text",
        "EndElement",
        "EndElement",
        "EndDocument",
    ]


def test_whitespace_between_elements_is_ignorable():
    events = parse_events("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
    texts = [e.value for e in events if isinstance(e, Text)]
    assert texts == ["x", "y"]


def test_multiple_concatenated_documents():
    events = parse_events("<a>1</a><b>2</b>")
    docs = kinds(events).count("StartDocument")
    assert docs == 2
    assert kinds(events).count("EndDocument") == 2


def test_comments_pis_doctype_and_cdata():
    xml = (
        '<?xml version="1.0"?>'
        "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>"
        "<!-- hello -->"
        "<a><![CDATA[1 < 2 & 3]]></a>"
    )
    events = parse_events(xml)
    assert [e.value for e in events if isinstance(e, Text)] == ["1 < 2 & 3"]


def test_cdata_and_text_coalesce():
    events = parse_events("<a>x<![CDATA[y]]>z</a>")
    assert [e.value for e in events if isinstance(e, Text)] == ["xyz"]


def test_entities_decoded():
    events = parse_events("<a p='&lt;&gt;&amp;&apos;&quot;&#65;&#x42;'>x&amp;y</a>")
    texts = [e.value for e in events if isinstance(e, Text)]
    assert texts == ["<>&'\"AB", "x&y"]


def test_decode_entities_errors():
    with pytest.raises(XMLSyntaxError):
        decode_entities("&nosuch;")
    with pytest.raises(XMLSyntaxError):
        decode_entities("&unterminated")


def test_mismatched_tags_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_events("<a></b>")


def test_unclosed_element_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_events("<a><b></b>")


def test_text_outside_root_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_events("stray <a/>")


def test_unquoted_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_events("<a c=3/>")


def test_iterparse_is_lazy_and_chunk_size_independent():
    xml = "<a>" + "<b>x</b>" * 200 + "</a>"
    for chunk_size in (1, 7, 64, 1 << 16):
        assert list(iterparse(xml, chunk_size=chunk_size)) == parse_events(xml)


def test_iterparse_accepts_file_objects_and_bytes():
    xml = "<a><b>1</b></a>"
    assert list(iterparse(io.StringIO(xml))) == parse_events(xml)
    assert list(iterparse(xml.encode("utf-8"))) == parse_events(xml)


def test_expat_agrees_with_our_parser():
    xml = '<a c="3"><b> 4 </b><d/></a>'
    ours = oracle_events(xml)
    theirs = parse_events(xml)
    assert ours == theirs


def test_self_closing_root_is_a_full_document():
    events = parse_events("<a/><b/>")
    assert kinds(events) == [
        "StartDocument",
        "StartElement",
        "EndElement",
        "EndDocument",
    ] * 2


def test_deeply_nested_ok():
    depth = 400
    xml = "".join(f"<e{i}>" for i in range(depth)) + "x" + "".join(
        f"</e{i}>" for i in reversed(range(depth))
    )
    events = parse_events(xml)
    assert kinds(events).count("StartElement") == depth

"""Tests for XML serialisation."""

from repro.xmlstream.dom import Document, Element, parse_document
from repro.xmlstream.events import events_of_document
from repro.xmlstream.writer import (
    document_to_xml,
    element_to_xml,
    escape_attribute,
    escape_text,
)


def test_escaping():
    assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"
    assert escape_attribute('say "hi" & <go>') == "say &quot;hi&quot; &amp; &lt;go&gt;"


def test_serialise_and_reparse():
    doc = Document(
        Element(
            "a",
            attributes=[("c", "3"), ("d", 'x"y')],
            children=[Element("b", text="1 < 2"), Element("e")],
        )
    )
    text = document_to_xml(doc)
    reparsed = parse_document(text)
    assert events_of_document(reparsed) == events_of_document(doc)


def test_pretty_print_round_trips():
    doc = parse_document("<a><b>x</b><c><d>y</d></c></a>")
    pretty = document_to_xml(doc, indent=2)
    assert "\n" in pretty
    assert events_of_document(parse_document(pretty)) == events_of_document(doc)


def test_empty_element_shorthand():
    assert element_to_xml(Element("x")) == "<x/>"
    assert element_to_xml(Element("x", text="")) == "<x></x>"

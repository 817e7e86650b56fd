"""Tests for the DOM and tree building."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.dom import (
    Document,
    Element,
    documents_of_events,
    parse_document,
    parse_forest,
)
from repro.xmlstream.events import events_of_document


def test_parse_document_basics():
    doc = parse_document('<a c="3"><b>4</b><b>5</b></a>')
    root = doc.root
    assert root.label == "a"
    assert root.attribute("c") == "3"
    assert root.attribute("missing") is None
    assert [b.text for b in root.children if b.label == "b"] == ["4", "5"]
    assert doc.size() == 3
    assert doc.depth() == 2


def test_parse_document_rejects_forests():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a/><b/>")


def test_parse_forest():
    docs = parse_forest("<a/><b>x</b><c/>")
    assert [d.root.label for d in docs] == ["a", "b", "c"]


def test_event_round_trip():
    doc = parse_document('<a c="3"><b>4</b><d><e>z</e></d></a>')
    rebuilt = documents_of_events(events_of_document(doc))
    assert len(rebuilt) == 1
    assert events_of_document(rebuilt[0]) == events_of_document(doc)


def test_mixed_content_detection():
    clean = parse_document("<a><b>x</b></a>")
    assert not clean.has_mixed_content()
    mixed = parse_document("<a>t<b>x</b></a>")
    assert mixed.has_mixed_content()


def test_iter_descendants_preorder():
    doc = parse_document("<a><b><c/></b><d/></a>")
    labels = [node.label for node in doc.root.iter_descendants()]
    assert labels == ["a", "b", "c", "d"]


def test_attribute_value_with_entities():
    doc = parse_document('<a t="a&amp;b"/>')
    assert doc.root.attribute("t") == "a&b"


def test_empty_elements():
    doc = parse_document("<a><b/><c></c></a>")
    b, c = doc.root.children
    assert b.text is None and c.text is None
    assert not b.children and not c.children

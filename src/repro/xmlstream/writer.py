"""Serialisation of DOM trees and event streams back to XML text.

Used by the data generators (synthetic Protein/NASA streams), the
training-document generator (Sec. 5) and the round-trip tests.
"""

from __future__ import annotations

from typing import Iterable

from repro.xmlstream.dom import Document, Element


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(value).replace('"', "&quot;")


def element_to_xml(element: Element, indent: int | None = None, _level: int = 0) -> str:
    """Serialise *element*; pretty-print with *indent* spaces when given.

    Pretty-printing only inserts whitespace between element children
    (never inside text content), so it round-trips through the parser,
    which treats inter-element whitespace as ignorable.
    """
    pieces: list[str] = []
    _write_element(element, pieces, indent, _level)
    return "".join(pieces)


def _write_element(element: Element, out: list[str], indent: int | None, level: int) -> None:
    newline = "" if indent is None else "\n"
    # An explicit stack (depth is bounded by memory, not the recursion
    # limit): an element is written when popped, and its end tag, pushed
    # beneath its children, when they are done.
    pending: list[tuple[Element, int] | str] = [(element, level)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        element, level = item
        pad = "" if indent is None else " " * (indent * level)
        out.append(pad)
        out.append(f"<{element.label}")
        for name, value in element.attributes:
            out.append(f' {name}="{escape_attribute(value)}"')
        if element.text is None and not element.children:
            out.append("/>")
            out.append(newline)
            continue
        out.append(">")
        if element.text is not None:
            out.append(escape_text(element.text))
        end_tag = f"</{element.label}>{newline}"
        if element.children:
            out.append(newline)
            pending.append(pad + end_tag)
            pending.extend((child, level + 1) for child in reversed(element.children))
        else:
            out.append(end_tag)


def document_to_xml(document: Document, indent: int | None = None) -> str:
    """Serialise one document."""
    return element_to_xml(document.root, indent)


def stream_to_xml(documents: Iterable[Document], indent: int | None = None) -> str:
    """Serialise a stream of documents to one concatenated text blob,
    the on-the-wire format consumed by :func:`repro.xmlstream.iterparse`."""
    return "".join(document_to_xml(doc, indent) for doc in documents)

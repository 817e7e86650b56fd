"""XML substrate: SAX-style events, streaming parser, DOM, writer, DTD.

This package implements everything the paper assumes about XML:

- the five-event SAX model of Sec. 2, with attributes lowered to
  ``@name`` pseudo-elements (:mod:`repro.xmlstream.events`);
- a streaming parser producing those events, C expat under the event
  model (:mod:`repro.xmlstream.parser`);
- a small DOM used by the reference evaluator, the baselines and the
  data generators (:mod:`repro.xmlstream.dom`);
- a serialiser (:mod:`repro.xmlstream.writer`);
- a boundary scan that cuts a concatenated source into per-document
  byte slices without building anything (:mod:`repro.xmlstream.split`);
- a DTD model with the sibling-order relation needed by the order
  optimisation, plus DTD-driven document generation
  (:mod:`repro.xmlstream.dtd`).
"""

from repro.xmlstream.dom import Document, Element, parse_document, parse_forest
from repro.xmlstream.dtd import DTD, ContentParticle, ElementDecl
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
    events_of_document,
    is_attribute_label,
)
from repro.xmlstream.events import EventHandler
from repro.xmlstream.parser import iterparse, parse_events, parse_into
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml, element_to_xml

__all__ = [
    "DTD",
    "ContentParticle",
    "Document",
    "Element",
    "ElementDecl",
    "EndDocument",
    "EndElement",
    "Event",
    "EventHandler",
    "StartDocument",
    "StartElement",
    "Text",
    "document_to_xml",
    "element_to_xml",
    "events_of_document",
    "is_attribute_label",
    "iterparse",
    "parse_document",
    "parse_forest",
    "parse_events",
    "parse_into",
    "split_documents",
]

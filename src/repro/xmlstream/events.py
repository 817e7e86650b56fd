"""The SAX event model of the paper (Sec. 2).

The paper uses a *modified* SAX parser that generates exactly five event
types::

    startDocument()
    startElement(a)
    text(s)
    endElement(a)
    endDocument()

with one deliberate simplification: **attributes are treated like
elements**.  An attribute ``c="3"`` on element ``a`` is delivered as the
pseudo-element sequence ``startElement(@c) text("3") endElement(@c)``
immediately after ``startElement(a)`` and before any child element.
Throughout the library, a *label* is therefore either an element name
(``a``) or an attribute name prefixed with ``@`` (``@c``).

Events are plain, immutable dataclass values so that streams can be
generated, stored, replayed and compared cheaply; every consumer in the
library (XPush machine, baselines, validators) is written against this
event vocabulary rather than against raw XML text.

The push-mode scanner knows one more callback, which a handler may
define and :class:`EventHandler` does not: ``leaf(label, value)``,
defined as exactly ``start_element(label); text(value);
end_element(label)``.  To a handler that has it, the scanner sends every
attribute as ``leaf("@name", value)`` and every element that holds
only non-whitespace text (``<x>v</x>``) as ``leaf("x", "v")`` — one
call instead of three.  Every other handler receives the classic
triples, and the event *objects* stay the five above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

ATTRIBUTE_PREFIX = "@"


def is_attribute_label(label: str) -> bool:
    """Return True if *label* names an attribute pseudo-element (``@c``)."""
    return label.startswith(ATTRIBUTE_PREFIX)


def attribute_label(name: str) -> str:
    """Return the pseudo-element label for attribute *name* (``c`` → ``@c``)."""
    return ATTRIBUTE_PREFIX + name


@dataclass(frozen=True, slots=True)
class StartDocument:
    """Marks the beginning of one XML document on the stream."""


@dataclass(frozen=True, slots=True)
class StartElement:
    """Opens an element or attribute pseudo-element.

    Attributes:
        label: element name, or ``@name`` for an attribute.
    """

    label: str

    @property
    def is_attribute(self) -> bool:
        return is_attribute_label(self.label)


@dataclass(frozen=True, slots=True)
class Text:
    """Character data (element text content or an attribute's value)."""

    value: str


@dataclass(frozen=True, slots=True)
class EndElement:
    """Closes the innermost open element or attribute pseudo-element."""

    label: str

    @property
    def is_attribute(self) -> bool:
        return is_attribute_label(self.label)


@dataclass(frozen=True, slots=True)
class EndDocument:
    """Marks the end of one XML document on the stream."""


Event = Union[StartDocument, StartElement, Text, EndElement, EndDocument]


class EventHandler:
    """Callback interface mirroring Fig. 2 of the paper.

    Subclass and override the five methods; :func:`dispatch` routes a
    stream of :class:`Event` values to them.  The XPush machine, the
    baselines and the document validators all implement this interface.
    A handler that also defines ``leaf(label, value)`` receives fused
    leaves from the scanner (module docstring); this class defines no
    ``leaf``, so its subclasses get the triples unless they opt in.
    """

    def start_document(self) -> None:  # pragma: no cover - trivial default
        pass

    def start_element(self, label: str) -> None:  # pragma: no cover
        pass

    def text(self, value: str) -> None:  # pragma: no cover
        pass

    def end_element(self, label: str) -> None:  # pragma: no cover
        pass

    def end_document(self) -> None:  # pragma: no cover
        pass


def dispatch(events: Iterator[Event] | list[Event], handler: EventHandler) -> None:
    """Feed each event in *events* to the matching *handler* callback."""
    for event in events:
        kind = type(event)
        if kind is StartElement:
            handler.start_element(event.label)
        elif kind is Text:
            handler.text(event.value)
        elif kind is EndElement:
            handler.end_element(event.label)
        elif kind is StartDocument:
            handler.start_document()
        elif kind is EndDocument:
            handler.end_document()
        else:  # defensive: streams may be user-supplied
            raise TypeError(f"not an XML stream event: {event!r}")


def events_of_document(document) -> list[Event]:
    """Serialise a :class:`repro.xmlstream.dom.Document` to its event list.

    Attributes are lowered to ``@name`` pseudo-elements in document
    order, before element children, exactly as the paper's modified SAX
    parser does.  The list is cached on the document (parsed documents
    are immutable; replaying one must not re-walk the tree each time).
    """
    cached = document.event_cache
    if cached is not None:
        return cached
    out: list[Event] = [StartDocument()]
    # An explicit stack, so nesting depth is bounded by memory and not
    # by the interpreter's recursion limit: an element is opened when
    # popped, and closed by the EndElement pushed beneath its children.
    pending: list = [document.root]
    while pending:
        element = pending.pop()
        if type(element) is EndElement:
            out.append(element)
            continue
        out.append(StartElement(element.label))
        for name, value in element.attributes:
            out.append(StartElement(attribute_label(name)))
            out.append(Text(value))
            out.append(EndElement(attribute_label(name)))
        if element.text is not None:
            out.append(Text(element.text))
        pending.append(EndElement(element.label))
        pending.extend(reversed(element.children))
    out.append(EndDocument())
    document.event_cache = out
    return out

"""A small in-memory XML tree.

The XPush machine itself never materialises documents — that is its
point — but a DOM is still needed elsewhere in the system:

- the *reference evaluator* (:mod:`repro.xpath.semantics`) defines
  ground-truth filter semantics on trees;
- the *naive baseline* evaluates each filter per document on a DOM;
- the data and training generators build trees before serialising them.

The model matches the paper's data model: element nodes carry a label,
an ordered list of attributes, and either text content *or* element
children (mixed content is representable but flagged, since the XPush
machine rejects it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import XMLSyntaxError


@dataclass(slots=True)
class Element:
    """One element node.

    Attributes:
        label: the element name.
        attributes: ordered ``(name, value)`` pairs (names without ``@``).
        text: character content, or ``None`` when the element has element
            children or is empty.
        children: child elements, in document order.
    """

    label: str
    attributes: list[tuple[str, str]] = field(default_factory=list)
    text: str | None = None
    children: list["Element"] = field(default_factory=list)

    def attribute(self, name: str) -> str | None:
        """Return the value of attribute *name*, or None when absent."""
        for key, value in self.attributes:
            if key == name:
                return value
        return None

    def iter_descendants(self) -> Iterator["Element"]:
        """Yield self and every descendant element, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @property
    def has_mixed_content(self) -> bool:
        """True when the element has both text and element children."""
        return self.text is not None and bool(self.children)

    def depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        deepest = 0
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            deepest = max(deepest, level)
            stack.extend((child, level + 1) for child in node.children)
        return deepest

    def size(self) -> int:
        """Number of element nodes in the subtree (attributes excluded)."""
        return sum(1 for _node in self.iter_descendants())


@dataclass(slots=True)
class Document:
    """One XML document: a single root element.

    ``event_cache`` holds the document's serialised event list after
    the first :func:`repro.xmlstream.events.events_of_document` call —
    parsed documents are never mutated, and callers (benchmarks, the
    serving tier) replay the same document many times."""

    root: Element
    event_cache: "list | None" = field(
        default=None, repr=False, compare=False
    )

    def depth(self) -> int:
        return self.root.depth()

    def size(self) -> int:
        return self.root.size()

    def has_mixed_content(self) -> bool:
        return any(node.has_mixed_content for node in self.root.iter_descendants())


class _TreeBuilder:
    """Event handler that assembles a Document from the five-event stream."""

    def __init__(self) -> None:
        self.documents: list[Document] = []
        self._stack: list[Element] = []
        self._attr: str | None = None
        self._root: Element | None = None

    def start_document(self) -> None:
        self._stack = []
        self._root = None
        self._attr = None

    def start_element(self, label: str) -> None:
        if label.startswith("@"):
            if self._attr is not None:
                raise XMLSyntaxError("nested attribute pseudo-elements")
            self._attr = label[1:]
            self._stack[-1].attributes.append((self._attr, ""))
            return
        element = Element(label)
        if self._stack:
            self._stack[-1].children.append(element)
        elif self._root is None:
            self._root = element
        else:
            raise XMLSyntaxError("multiple root elements in one document")
        self._stack.append(element)

    def text(self, value: str) -> None:
        if self._attr is not None:
            owner = self._stack[-1]
            name, old = owner.attributes[-1]
            owner.attributes[-1] = (name, old + value)
            return
        if not self._stack:
            raise XMLSyntaxError("text outside the root element")
        node = self._stack[-1]
        node.text = value if node.text is None else node.text + value

    def end_element(self, label: str) -> None:
        if label.startswith("@"):
            if self._attr != label[1:]:
                raise XMLSyntaxError(f"mismatched attribute close: {label}")
            self._attr = None
            return
        if not self._stack or self._stack[-1].label != label:
            raise XMLSyntaxError(f"mismatched end tag </{label}>")
        self._stack.pop()

    def end_document(self) -> None:
        if self._stack:
            raise XMLSyntaxError(f"unclosed element <{self._stack[-1].label}>")
        if self._root is None:
            raise XMLSyntaxError("empty document")
        self.documents.append(Document(self._root))


def documents_of_events(events: Sequence) -> list[Document]:
    """Assemble Documents from a five-event stream (inverse of
    :func:`repro.xmlstream.events.events_of_document`)."""
    from repro.xmlstream.events import dispatch

    builder = _TreeBuilder()
    dispatch(iter(events), builder)
    return builder.documents


def parse_document(text: str) -> Document:
    """Parse XML *text* containing exactly one document into a DOM."""
    documents = parse_forest(text)
    if len(documents) != 1:
        raise XMLSyntaxError(f"expected one document, found {len(documents)}")
    return documents[0]


def parse_forest(
    text: str,
    backend: str = "expat",  # only "expat"; direction 1's re-seat of the e2e harness deletes it
) -> list[Document]:
    """Parse XML *text* containing zero or more concatenated documents.

    The trees are assembled straight from the push-mode scanner's
    callbacks (see :func:`repro.xmlstream.parser.parse_into`), so no
    intermediate event objects are materialised.
    """
    from repro.xmlstream.parser import parse_into

    builder = _TreeBuilder()
    parse_into(text, builder, backend=backend)
    return builder.documents

"""The library's XML scanner: C expat under the five-event model.

:class:`ExpatScanner` wraps the C expat parser behind a push protocol —
``feed(chunk)`` / ``close()``, the handler's callbacks invoked directly,
no event objects allocated, the tokenisation itself in C — and layers
the paper's data model on top:

- **whitespace-only text is suppressed**: character data (including
  CDATA content) is accumulated across expat callbacks and flushed as
  one ``text`` event at the next structural event, only when it is
  non-whitespace — expat otherwise reports inter-element whitespace and
  splits large text nodes arbitrarily;
- **attributes keep source order**: ``ordered_attributes`` mode is used
  (expat's dict form reorders under some builds), and each attribute is
  lowered to the paper's ``@name`` pseudo-element triple;
- **multiple concatenated documents** are supported even though a C
  expat parser handles exactly one document: when expat reports *junk
  after document element* the error byte offset is used to restart a
  fresh parser on the remaining input, so ``<a/><b/>`` parses as two
  documents.  A restart rescans no document body, but copies the rest
  of the chunk in hand, so callers feed bounded chunks;
- input is always decoded as UTF-8 (``ParserCreate("utf-8")``),
  regardless of what an XML declaration claims; an input that never
  starts an element (empty, whitespace, comments only) is an empty
  stream, not an error;
- expat errors surface as :class:`repro.errors.XMLSyntaxError`, the
  library-wide parse-failure type.

A handler that defines ``leaf`` (:mod:`repro.xmlstream.events`) gets
each attribute, and each element holding only non-whitespace text, as
one ``leaf`` call; expat is then given the fused handlers
(:func:`_fused_handlers`), every other handler a :class:`_Triples`'.

The handlers expat holds reach the handler's callbacks and a small
per-parser state cell, never the scanner, so a parse leaves no
reference cycle: reference counting frees the scanner, its parser and
whatever the parse made when it returns, and a closed engine goes with
its last reference, not at the next cyclic collection.  The tests hold
an independent pure-Python scanner (``tests/scanner_oracle.py``) that
every parser wall diffs this one against.
"""

from __future__ import annotations

import xml.parsers.expat as _expat
from xml.parsers.expat import errors as _expat_errors

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import EventHandler

_JUNK_AFTER_DOC = _expat_errors.codes[_expat_errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT]
_NO_ELEMENTS = _expat_errors.codes[_expat_errors.XML_ERROR_NO_ELEMENTS]

def _encode_utf8(text: str, offset: int = 0) -> bytes:
    """*text* as UTF-8 bytes; a lone surrogate — which a ``str`` can
    hold and UTF-8 cannot encode — is a syntax error at its character
    offset in the source (*offset*: where *text* starts there)."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as error:
        raise XMLSyntaxError(
            f"not encodable as UTF-8 ({error.reason}) at character {offset + error.start}"
        ) from None


# When a second document's ``<`` arrives at the end of one chunk, expat
# buffers the incomplete token ("<", "<!", "<!-") and reports the junk
# error only on the next feed, with the error offset pointing a few
# bytes *before* that feed's data.  A short tail of previously-fed bytes
# is retained so the restart can always reconstruct the remainder.
_TAIL_BYTES = 64


class _Triples:
    """expat's handlers for a handler without ``leaf``: each attribute
    goes as its start, text and end triple.  An object of its own, not
    the scanner, holds the handler's callbacks and one parser's pending
    text and depth, and sets *opened*'s one item when the parser starts
    an element."""

    __slots__ = (
        "_opened",
        "_on_start_document",
        "_on_start",
        "_on_text",
        "_on_end",
        "_on_end_document",
        "_pending",
        "_depth",
    )

    def __init__(self, opened, on_start_document, on_start, on_text, on_end, on_end_document):
        self._opened = opened
        self._on_start_document = on_start_document
        self._on_start = on_start
        self._on_text = on_text
        self._on_end = on_end
        self._on_end_document = on_end_document
        self._pending: list[str] = []
        self._depth = 0

    def _flush_text(self) -> None:
        pending = self._pending
        if not pending:
            return
        value = pending[0] if len(pending) == 1 else "".join(pending)
        pending.clear()
        if value.strip():
            self._on_text(value)

    def _start(self, name: str, attrs: list[str]) -> None:
        self._flush_text()
        if self._depth == 0:
            self._opened[0] = True
            self._on_start_document()
        self._depth += 1
        self._on_start(name)
        if attrs:
            on_start = self._on_start
            on_text = self._on_text
            on_end = self._on_end
            for i in range(0, len(attrs), 2):
                label = "@" + attrs[i]
                on_start(label)
                on_text(attrs[i + 1])
                on_end(label)

    def _end(self, name: str) -> None:
        self._flush_text()
        self._depth -= 1
        self._on_end(name)
        if self._depth == 0:
            self._on_end_document()


def _fused_handlers(opened, on_start_document, on_start, on_text, on_end, on_end_document, on_leaf):
    """The start, end and character-data handlers of one parser for a
    handler with ``leaf``: those of :class:`_Triples` with attributes sent as
    leaves and a start tag without them held back, so that its end tag
    around non-whitespace text sends the three as one leaf.  The held
    tag, the depth and the pending text live in closure cells, and
    *opened*'s one item is set when the parser starts an element; a
    restart on the next document binds a fresh set, as it starts at
    depth 0 with nothing held or pending."""
    pending: list[str] = []
    held: str | None = None
    depth = 0

    def flush() -> None:  # :meth:`_Triples._flush_text` on the closure's list
        value = pending[0] if len(pending) == 1 else "".join(pending)
        pending.clear()
        if value.strip():
            on_text(value)

    def start(name: str, attrs: list[str]) -> None:
        nonlocal held, depth
        if held is not None:
            label, held = held, None
            on_start(label)
        if pending:
            flush()
        if not depth:
            opened[0] = True
            on_start_document()
        depth += 1
        if attrs:
            on_start(name)
            for i in range(0, len(attrs), 2):
                on_leaf("@" + attrs[i], attrs[i + 1])
        else:
            held = name

    def end(name: str) -> None:
        # Expat has checked the tag pair: a held start is *name*.
        nonlocal held, depth
        if held is not None:
            held = None
            if pending:
                value = pending[0] if len(pending) == 1 else "".join(pending)
                if value.strip():
                    pending.clear()
                    depth -= 1
                    on_leaf(name, value)
                    if not depth:
                        on_end_document()
                    return
            on_start(name)
        if pending:
            flush()
        depth -= 1
        on_end(name)
        if not depth:
            on_end_document()

    return start, end, pending.append


class ExpatScanner:
    """Push-mode scanner backed by C expat; multi-document capable."""

    __slots__ = ("_callbacks", "_parser", "_opened", "_fed", "_tail", "_closed")

    def __init__(self, handler: EventHandler):
        self._callbacks = (
            handler.start_document,
            handler.start_element,
            handler.text,
            handler.end_element,
            handler.end_document,
            getattr(handler, "leaf", None),
        )
        self._closed = False
        self._new_parser()

    @property
    def line(self) -> int:
        """Current 1-based input line (within the current document)."""
        return max(1, self._parser.CurrentLineNumber)

    def _new_parser(self) -> None:
        parser = _expat.ParserCreate("utf-8")
        parser.buffer_text = True
        parser.ordered_attributes = True
        # The handlers hold the callbacks and this cell, never ``self``.
        self._opened = opened = [False]
        if self._callbacks[-1] is None:
            triples = _Triples(opened, *self._callbacks[:-1])
            handlers = (triples._start, triples._end, triples._pending.append)
        else:
            handlers = _fused_handlers(opened, *self._callbacks)
        (
            parser.StartElementHandler,
            parser.EndElementHandler,
            parser.CharacterDataHandler,
        ) = handlers
        self._parser = parser
        self._fed = 0
        self._tail = b""

    # ------------------------------------------------------------------
    # Push protocol
    # ------------------------------------------------------------------

    def feed(self, chunk: str | bytes) -> None:
        if self._closed:
            raise XMLSyntaxError("feed() after close()")
        if isinstance(chunk, str):
            chunk = _encode_utf8(chunk)
        data = chunk
        while data:
            parser = self._parser
            try:
                parser.Parse(data, False)
            except _expat.ExpatError as error:
                if error.code != _JUNK_AFTER_DOC:
                    raise XMLSyntaxError(str(error), error.lineno, error.offset) from None
                # A new top-level document begins at the error offset:
                # restart a fresh parser on the remaining bytes.
                start = parser.ErrorByteIndex - self._fed
                if start >= 0:
                    data = data[start:]
                else:
                    if -start > len(self._tail):  # pragma: no cover - safety net
                        raise XMLSyntaxError(
                            "cannot locate document boundary", error.lineno
                        ) from None
                    data = self._tail[start:] + data
                self._new_parser()
                continue
            self._fed += len(data)
            self._tail = (self._tail + data)[-_TAIL_BYTES:]
            return

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._parser.Parse(b"", True)
        except _expat.ExpatError as error:
            # An input that ends without ever starting an element
            # (empty, whitespace, comments/PIs only) is an empty stream.
            if error.code == _NO_ELEMENTS and not self._opened[0]:
                return
            raise XMLSyntaxError(str(error), error.lineno, error.offset) from None

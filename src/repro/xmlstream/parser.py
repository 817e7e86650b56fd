"""Drive the XML scanner over a source: the library's parse entry points.

The paper's five-event stream (:mod:`repro.xmlstream.events`) comes from
one scanner, C expat behind
:class:`~repro.xmlstream.expat_backend.ExpatScanner`: a push-mode
``feed(chunk)`` / ``close()`` object that invokes the handler's
callbacks directly and keeps only expat's buffer and the open-element
depth, so arbitrarily large documents and infinite concatenated streams
are processed in O(depth) memory — the property the XPush machine
relies on.  This module drives it:

- :func:`parse_into` feeds a string / bytes / file-like source straight
  into a handler and returns the number of UTF-8 bytes processed — the
  zero-allocation event path the machine and the engines run on;
- :func:`iterparse` — the pull-mode API — is a thin generator over the
  push path: a small buffering handler materialises
  :class:`~repro.xmlstream.events.Event` values chunk by chunk;
- :func:`parse_events` parses eagerly into an event list.

Scope (deliberately matched to the paper's data model):

- elements, attributes, character data, CDATA sections;
- comments, processing instructions, XML declarations and DOCTYPE
  declarations are parsed and skipped;
- character and entity references are decoded, and attribute values
  and line ends are normalised as XML 1.0 says (a literal tab or
  newline in an attribute value is a space, ``\\r\\n`` is ``\\n``);
- whitespace-only text between elements is treated as ignorable (it is
  never content in the paper's datasets, and treating it as text would
  make every document look mixed-content);
- **multiple concatenated documents** in one input are supported: each
  top-level element yields its own ``StartDocument``/``EndDocument``
  pair.  This is exactly the "stream of XML documents" of Sec. 2.

Attributes are emitted as ``@name`` pseudo-elements in source order,
immediately after the owning ``startElement`` — the paper's modified
SAX convention.  To a handler that defines the optional ``leaf``
callback (:mod:`repro.xmlstream.events`) an attribute goes as one
``leaf("@name", value)``, and so does an element holding only
non-whitespace text.
"""

from __future__ import annotations

import codecs
from typing import IO, Iterator

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    EventHandler,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.expat_backend import ExpatScanner, _encode_utf8


def _not_utf8(error: UnicodeDecodeError, offset: int = 0) -> XMLSyntaxError:
    """*error* as the syntax error it is, at its byte offset in the
    source (*offset*: where the decoded bytes start there)."""
    return XMLSyntaxError(f"invalid UTF-8 ({error.reason}) at byte {offset + error.start}")


def _decode_utf8(
    data: bytes,
    offset: int = 0,
    decoder: codecs.IncrementalDecoder | None = None,
    final: bool = False,
) -> str:
    """*data* as text, or :func:`_not_utf8`'s error; *offset* is where
    *data* starts in the source (an incremental *decoder*'s held-back
    bytes from the previous chunk start before it)."""
    held = len(decoder.getstate()[0]) if decoder is not None else 0
    try:
        return data.decode("utf-8") if decoder is None else decoder.decode(data, final)
    except UnicodeDecodeError as error:
        raise _not_utf8(error, offset - held) from None


def _utf8_length(chunk: str, offset: int = 0) -> int:
    # Pure-ASCII strings (the overwhelmingly common chunk) are free to
    # measure; only genuinely non-ASCII chunks pay for an encode.
    return len(chunk) if chunk.isascii() else len(_encode_utf8(chunk, offset))


def parse_into(
    source: str | bytes | IO,
    handler: EventHandler,
    backend: str = "expat",  # only "expat"; direction 1's re-seat of the e2e harness deletes it
    chunk_size: int = 1 << 16,
) -> int:
    """Push-parse *source* straight into *handler*'s callbacks.

    This is the zero-allocation event path: no ``Event`` objects are
    created between the scanner and the handler.  *source* may be a
    string, UTF-8 bytes, or a file-like object open in text or binary
    mode.  Returns the number of UTF-8 **bytes** processed, so callers
    can account throughput for file-like sources too.
    """
    if backend != "expat":
        raise ValueError(f"unknown parser backend {backend!r}: expat is the only scanner")
    scanner = ExpatScanner(handler)
    if isinstance(source, (str, bytes)):
        if isinstance(source, bytes):
            total = len(source)
            _decode_utf8(source)  # refuses non-UTF-8 whole; expat gets the bytes
        else:
            total = _utf8_length(source)
        # A chunk at a time, as iterparse: a restart at each document
        # boundary re-feeds the rest of its chunk, not of the source.
        for start in range(0, len(source), chunk_size):
            scanner.feed(source[start : start + chunk_size])
        scanner.close()
        return total
    total = 0
    chars = 0  # characters read so far from a text-mode source
    decoder = None
    while True:
        chunk = source.read(chunk_size)
        if not chunk:
            break
        if isinstance(chunk, bytes):
            if decoder is None:
                decoder = codecs.getincrementaldecoder("utf-8")()
            offset, total = total, total + len(chunk)
            chunk = _decode_utf8(chunk, offset, decoder)
            if not chunk:
                continue
        else:
            total += _utf8_length(chunk, chars)
            chars += len(chunk)
        scanner.feed(chunk)
    if decoder is not None:
        tail = _decode_utf8(b"", total, decoder, final=True)
        if tail:
            scanner.feed(tail)
    scanner.close()
    return total


class _EventBuffer(EventHandler):
    """Bridge handler materialising Event objects for pull-mode callers."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def start_document(self) -> None:
        self.events.append(StartDocument())

    def start_element(self, label: str) -> None:
        self.events.append(StartElement(label))

    def text(self, value: str) -> None:
        self.events.append(Text(value))

    def end_element(self, label: str) -> None:
        self.events.append(EndElement(label))

    def end_document(self) -> None:
        self.events.append(EndDocument())


def iterparse(source: str | bytes | IO, chunk_size: int = 1 << 16) -> Iterator[Event]:
    """Lazily parse *source* (a string, bytes, or file-like object)
    into the five-event stream, in O(depth) memory.

    This pull-mode API is a thin generator over the push path: events
    are materialised chunk by chunk.  Prefer :func:`parse_into` on hot
    paths — it skips event materialisation entirely.
    """
    sink = _EventBuffer()
    scanner = ExpatScanner(sink)
    events = sink.events
    if isinstance(source, bytes):
        source = _decode_utf8(source)
    if isinstance(source, str):
        for start in range(0, len(source), chunk_size):
            scanner.feed(source[start : start + chunk_size])
            if events:
                yield from events
                events.clear()
    else:
        decoder = None
        consumed = 0  # bytes read before the current chunk
        while True:
            chunk = source.read(chunk_size)
            if not chunk:
                break
            if isinstance(chunk, bytes):
                if decoder is None:
                    decoder = codecs.getincrementaldecoder("utf-8")()
                offset, consumed = consumed, consumed + len(chunk)
                chunk = _decode_utf8(chunk, offset, decoder)
                if not chunk:
                    continue
            scanner.feed(chunk)
            if events:
                yield from events
                events.clear()
        if decoder is not None:
            tail = _decode_utf8(b"", consumed, decoder, final=True)
            if tail:
                scanner.feed(tail)
    scanner.close()
    yield from events
    events.clear()


def parse_events(text: str | bytes) -> list[Event]:
    """Parse *text* eagerly and return the full event list."""
    sink = _EventBuffer()
    parse_into(text, sink)
    return sink.events


def count_bytes(text: str) -> int:
    """UTF-8 size of *text*; used for MB/s throughput accounting."""
    return _utf8_length(text)


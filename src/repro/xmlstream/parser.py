"""A from-scratch streaming (incremental) XML parser — push-mode core.

Produces the paper's five-event stream (:mod:`repro.xmlstream.events`)
without ever materialising the document: the scanner keeps only a small
input buffer and the open-element stack, so arbitrarily large documents
and infinite concatenated streams are processed in O(depth) memory —
the property the XPush machine relies on.

Architecture (this module):

- :class:`PushScanner` is the core engine: an *incremental push-mode*
  scanner with ``feed(chunk)`` / ``close()``.  Its inner loops are
  run-based — ``str.find``, compiled regexes and slicing over the
  buffered text instead of per-character method calls — and it invokes
  the five :class:`~repro.xmlstream.events.EventHandler` callbacks
  *directly*, so the hot path allocates no per-event objects at all.
  A token that straddles a chunk boundary is detected by a speculative
  parse that rolls back (nothing is emitted) and resumes on the next
  ``feed``.
- :func:`parse_into` drives a scanner over a string / bytes / file-like
  source and returns the number of UTF-8 bytes processed.  The
  ``backend`` argument selects this pure-python scanner, the streaming
  C-expat backend (:mod:`repro.xmlstream.expat_backend`), or ``auto``.
- :func:`iterparse` — the original pull-mode API — is kept as a thin
  generator over the push path: a small buffering handler materialises
  :class:`~repro.xmlstream.events.Event` values chunk by chunk.

Scope (deliberately matched to the paper's data model):

- elements, attributes, character data, CDATA sections;
- comments, processing instructions, XML declarations and DOCTYPE
  declarations are parsed and skipped;
- predefined and numeric character references are decoded;
- whitespace-only text between elements is treated as ignorable (it is
  never content in the paper's datasets, and treating it as text would
  make every document look mixed-content);
- **multiple concatenated documents** in one input are supported: each
  top-level element yields its own ``StartDocument``/``EndDocument``
  pair.  This is exactly the "stream of XML documents" of Sec. 2.

Attributes are emitted as ``@name`` pseudo-elements in source order,
immediately after the owning ``startElement`` — the paper's modified
SAX convention.
"""

from __future__ import annotations

import codecs
import re
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

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_ASCII = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS_ASCII = _NAME_START_ASCII | set("0123456789.-")

# ASCII fast paths; non-ASCII names fall back to the char predicates.
_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_NAME_CONT_RE = re.compile(r"[A-Za-z0-9_:.\-]*")
_WS_RUN = re.compile(r"[ \t\r\n]+")
_DOCTYPE_DELIM = re.compile(r"[\[\]>]")

#: Valid values for the ``backend`` argument accepted across the library.
BACKENDS = ("python", "expat", "auto")


def _is_name_start(ch: str) -> bool:
    return ch in _NAME_START_ASCII or (ord(ch) > 127 and ch.isalpha())


def _is_name_char(ch: str) -> bool:
    return ch in _NAME_CHARS_ASCII or (ord(ch) > 127 and (ch.isalnum() or ch == "·"))


def decode_entities(raw: str) -> str:
    """Decode predefined and numeric character references in *raw*."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    n = len(raw)
    find = raw.find
    while i < n:
        amp = find("&", i)
        if amp < 0:
            out.append(raw[i:])
            break
        if amp > i:
            out.append(raw[i:amp])
        end = find(";", amp + 1)
        if end < 0:
            raise XMLSyntaxError("unterminated entity reference")
        name = raw[amp + 1 : end]
        try:
            if name.startswith("#x") or name.startswith("#X"):
                out.append(chr(int(name[2:], 16)))
            elif name.startswith("#"):
                out.append(chr(int(name[1:])))
            elif name in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[name])
            else:
                raise XMLSyntaxError(f"unknown entity &{name};")
        except (ValueError, OverflowError):
            raise XMLSyntaxError(f"bad character reference &{name};") from None
        i = end + 1
    return "".join(out)


class _Underflow(Exception):
    """Internal: a token straddles the end of the buffered input; roll
    back and wait for the next ``feed`` (or fail at ``close``)."""


class PushScanner:
    """Incremental push-mode scanner over the five-event model.

    Feed string chunks with :meth:`feed` and finish with :meth:`close`;
    the handler's ``start_document`` / ``start_element`` / ``text`` /
    ``end_element`` / ``end_document`` callbacks are invoked directly as
    runs of input are consumed — no event objects are allocated.

    The scanner only retains unconsumed input: memory is bounded by the
    chunk size plus the largest single token/text node, and the open
    element stack (O(depth)).
    """

    __slots__ = (
        "_on_start_document",
        "_on_start",
        "_on_text",
        "_on_end",
        "_on_end_document",
        "_data",
        "_pos",
        "_eof",
        "_closed",
        "_stack",
        "_pending",
        "line",
    )

    def __init__(self, handler: EventHandler):
        self._on_start_document = handler.start_document
        self._on_start = handler.start_element
        self._on_text = handler.text
        self._on_end = handler.end_element
        self._on_end_document = handler.end_document
        self._data = ""
        self._pos = 0
        self._eof = False
        self._closed = False
        self._stack: list[str] = []
        self._pending: list[str] = []
        self.line = 1

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------

    def feed(self, chunk: str) -> None:
        """Consume as much of the buffered input + *chunk* as possible."""
        if self._closed:
            raise XMLSyntaxError("feed() after close()")
        if self._pos:
            self._data = self._data[self._pos :] + chunk
            self._pos = 0
        elif self._data:
            self._data += chunk
        else:
            self._data = chunk
        self._run()

    def close(self) -> None:
        """Signal end of input; flushes trailing text and validates."""
        if self._closed:
            return
        self._closed = True
        self._eof = True
        self._run()
        self._flush_text()
        if self._stack:
            raise XMLSyntaxError(
                f"unclosed element <{self._stack[-1]}> at end of input", self.line
            )
        self._data = ""
        self._pos = 0

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        data = self._data
        n = len(data)
        pos = self._pos
        find = data.find
        pending = self._pending
        while pos < n:
            if data[pos] != "<":
                # Character-data run up to the next '<' (or buffer end).
                lt = find("<", pos)
                if lt < 0:
                    if not self._eof:
                        break  # run may continue; wait for more input
                    run = data[pos:]
                    pos = n
                else:
                    run = data[pos:lt]
                    pos = lt
                self.line += run.count("\n")
                if "&" in run:
                    run = decode_entities(run)
                pending.append(run)
                continue
            try:
                pos = self._markup(data, pos, n)
            except _Underflow:
                if self._eof:
                    raise XMLSyntaxError(
                        "unexpected end of input inside markup", self.line
                    ) from None
                break
        self._pos = pos

    def _markup(self, data: str, pos: int, n: int) -> int:
        """Consume one markup item starting at ``data[pos] == '<'``.

        Returns the new position.  Raises :class:`_Underflow` (with *no*
        state mutated and *no* events emitted) when the item is not yet
        complete in the buffer.
        """
        nxt = pos + 1
        if nxt >= n:
            raise _Underflow
        ch = data[nxt]
        if ch not in "/?!":
            return self._start_tag(data, pos, n)
        if ch == "/":
            return self._end_tag(data, pos, n)
        if ch == "?":
            end = data.find("?>", nxt + 1)
            if end < 0:
                raise _Underflow
            self.line += data.count("\n", pos, end)
            return end + 2
        # '<!': comment, CDATA section or DOCTYPE declaration.
        if data.startswith("<!--", pos):
            end = data.find("-->", pos + 4)
            if end < 0:
                raise _Underflow
            self.line += data.count("\n", pos, end)
            return end + 3
        if data.startswith("<![CDATA[", pos):
            end = data.find("]]>", pos + 9)
            if end < 0:
                raise _Underflow
            run = data[pos + 9 : end]
            self.line += run.count("\n")
            self._pending.append(run)  # CDATA content: no entity decoding
            return end + 3
        if data.startswith("<!DOCTYPE", pos):
            return self._doctype(data, pos, n)
        if not self._eof and n - pos < 9:
            raise _Underflow  # could still become <!-- / <![CDATA[ / <!DOCTYPE
        raise XMLSyntaxError("malformed markup declaration", self.line)

    def _doctype(self, data: str, pos: int, n: int) -> int:
        """Skip a DOCTYPE declaration, including an internal subset."""
        nesting = 0
        i = pos + 9
        while True:
            match = _DOCTYPE_DELIM.search(data, i)
            if match is None:
                raise _Underflow
            delim = data[match.start()]
            i = match.end()
            if delim == "[":
                nesting += 1
            elif delim == "]":
                nesting -= 1
            elif nesting <= 0:  # '>'
                self.line += data.count("\n", pos, i)
                return i

    def _name(self, data: str, pos: int, n: int) -> tuple[str, int]:
        if pos >= n:
            raise _Underflow
        match = _NAME_RE.match(data, pos)
        if match is None:
            if not _is_name_start(data[pos]):
                raise XMLSyntaxError(
                    f"expected a name, found {data[pos]!r}", self.line
                )
            j = _NAME_CONT_RE.match(data, pos + 1).end()
        else:
            j = match.end()
        # Rare path: names containing non-ASCII characters.
        while j < n and ord(data[j]) > 127 and _is_name_char(data[j]):
            j = _NAME_CONT_RE.match(data, j + 1).end()
        if j >= n and not self._eof:
            raise _Underflow  # the name may continue in the next chunk
        return data[pos:j], j

    def _end_tag(self, data: str, pos: int, n: int) -> int:
        name, j = self._name(data, pos + 2, n)
        while True:
            if j >= n:
                raise _Underflow
            ch = data[j]
            if ch == ">":
                break
            if ch in " \t\r\n":
                j += 1
                continue
            raise XMLSyntaxError(f"expected '>' in </{name}>", self.line)
        end = j + 1
        self.line += data.count("\n", pos, end)
        self._flush_text()
        stack = self._stack
        if not stack or stack[-1] != name:
            opened = stack[-1] if stack else None
            raise XMLSyntaxError(f"</{name}> does not match <{opened}>", self.line)
        stack.pop()
        self._on_end(name)
        if not stack:
            self._on_end_document()
        return end

    def _start_tag(self, data: str, pos: int, n: int) -> int:
        name, j = self._name(data, pos + 1, n)
        if j >= n:
            raise _Underflow
        stack = self._stack
        ch = data[j]
        if ch == ">":
            # Fast path: no attributes, no whitespace.
            self._flush_text()
            if not stack:
                self._on_start_document()
            self._on_start(name)
            stack.append(name)
            return j + 1
        attributes: list[tuple[str, str]] | None = None
        while True:
            if ch in " \t\r\n":
                j = _WS_RUN.match(data, j).end()
                if j >= n:
                    raise _Underflow
                ch = data[j]
                continue
            if ch == ">":
                empty = False
                j += 1
                break
            if ch == "/":
                if j + 1 >= n:
                    raise _Underflow
                if data[j + 1] != ">":
                    raise XMLSyntaxError(f"expected '/>' in <{name}>", self.line)
                empty = True
                j += 2
                break
            attr_name, j = self._name(data, j, n)
            if j < n and data[j] in " \t\r\n":
                j = _WS_RUN.match(data, j).end()
            if j >= n:
                raise _Underflow
            if data[j] != "=":
                raise XMLSyntaxError(
                    f"expected '=' after attribute {attr_name!r}", self.line
                )
            j += 1
            if j < n and data[j] in " \t\r\n":
                j = _WS_RUN.match(data, j).end()
            if j >= n:
                raise _Underflow
            quote = data[j]
            if quote != '"' and quote != "'":
                raise XMLSyntaxError("attribute value must be quoted", self.line)
            endq = data.find(quote, j + 1)
            if endq < 0:
                raise _Underflow
            value = data[j + 1 : endq]
            if "&" in value:
                value = decode_entities(value)
            if attributes is None:
                attributes = [(attr_name, value)]
            else:
                attributes.append((attr_name, value))
            j = endq + 1
            if j >= n:
                raise _Underflow
            ch = data[j]
        # Committed: the whole tag is in the buffer.  Emit.
        self.line += data.count("\n", pos, j)
        self._flush_text()
        if not stack:
            self._on_start_document()
        self._on_start(name)
        if attributes is not None:
            on_start = self._on_start
            on_text = self._on_text
            on_end = self._on_end
            for attr_name, value in attributes:
                label = "@" + attr_name
                on_start(label)
                on_text(value)
                on_end(label)
        if empty:
            self._on_end(name)
            if not stack:
                self._on_end_document()
        else:
            stack.append(name)
        return j

    def _flush_text(self) -> None:
        pending = self._pending
        if not pending:
            return
        value = pending[0] if len(pending) == 1 else "".join(pending)
        pending.clear()
        if value.strip():
            if not self._stack:
                raise XMLSyntaxError("text outside any element", self.line)
            self._on_text(value)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend name: ``auto`` picks ``expat`` when the C
    parser is importable (it always is on CPython), else ``python``."""
    if backend == "python" or backend == "expat":
        return backend
    if backend != "auto":
        raise ValueError(
            f"unknown parser backend {backend!r} (expected one of {BACKENDS})"
        )
    try:
        import xml.parsers.expat  # noqa: F401

        return "expat"
    except ImportError:  # pragma: no cover - CPython always ships expat
        return "python"


def make_scanner(handler: EventHandler, backend: str = "auto"):
    """A push-mode scanner (``feed``/``close``) for *handler*."""
    if resolve_backend(backend) == "expat":
        from repro.xmlstream.expat_backend import ExpatScanner

        return ExpatScanner(handler)
    return PushScanner(handler)


# ----------------------------------------------------------------------
# Driving a scanner over a source
# ----------------------------------------------------------------------


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


def _utf8_length(chunk: str) -> int:
    # Pure-ASCII strings (the overwhelmingly common chunk) are free to
    # measure; only genuinely non-ASCII chunks pay for an encode.
    return len(chunk) if chunk.isascii() else len(chunk.encode("utf-8"))


def parse_into(
    source: str | bytes | IO,
    handler: EventHandler,
    backend: str = "auto",
    chunk_size: int = 1 << 16,
) -> int:
    """Push-parse *source* straight into *handler*'s callbacks.

    This is the zero-allocation event path: no ``Event`` objects are
    created between the scanner and the handler.  *source* may be a
    string, UTF-8 bytes, or a file-like object open in text or binary
    mode.  Returns the number of UTF-8 **bytes** processed, so callers
    can account throughput for file-like sources too.
    """
    scanner = make_scanner(handler, backend)
    if isinstance(source, (str, bytes)):
        if isinstance(source, bytes):
            total = len(source)
            source = _decode_utf8(source)
        else:
            total = _utf8_length(source)
        scanner.feed(source)
        scanner.close()
        return total
    total = 0
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
            total += _utf8_length(chunk)
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


def iterparse(
    source: str | bytes | IO,
    chunk_size: int = 1 << 16,
    backend: str = "python",
) -> Iterator[Event]:
    """Lazily parse *source* (a string, bytes, or file-like object)
    into the five-event stream, in O(depth) memory.

    This pull-mode API is a thin generator over the push path: events
    are materialised chunk by chunk from a :class:`PushScanner` (or the
    expat backend when ``backend="expat"``).  Prefer :func:`parse_into`
    on hot paths — it skips event materialisation entirely.
    """
    sink = _EventBuffer()
    scanner = make_scanner(sink, backend)
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


def parse_events(text: str, backend: str = "python") -> list[Event]:
    """Parse *text* eagerly and return the full event list."""
    sink = _EventBuffer()
    scanner = make_scanner(sink, backend)
    if isinstance(text, bytes):
        text = _decode_utf8(text)
    scanner.feed(text)
    scanner.close()
    return sink.events


def iterparse_path(path: str, chunk_size: int = 1 << 16) -> Iterator[Event]:
    """Lazily parse the file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from iterparse(handle, chunk_size)


def count_bytes(text: str) -> int:
    """UTF-8 size of *text*; used for MB/s throughput accounting."""
    return _utf8_length(text)


def expat_events(text: str) -> list[Event]:
    """Event list produced by the streaming C-expat backend.

    The scan itself is the from-scratch parser above; this variant
    exists so benchmarks can separate "our parser" cost from engine
    cost, the way the paper compares against the Apache parser.  Backed
    by :class:`repro.xmlstream.expat_backend.ExpatScanner`, it now
    supports the same multi-document streams as the python scanner.
    """
    return parse_events(text, backend="expat")

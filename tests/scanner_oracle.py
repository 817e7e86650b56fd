"""The pure-Python XML scanner the parser walls diff expat against.

:class:`PushScanner` is a hand-written implementation, independent of
expat, of the five-event model the library's one scanner
(:class:`repro.xmlstream.expat_backend.ExpatScanner`) must reproduce:
the same ``feed(chunk)`` / ``close()`` protocol, callbacks invoked
directly, whitespace-only text suppressed, attributes lowered to
``@name`` pseudo-elements in source order, fused ``leaf`` calls for a
handler that defines ``leaf``, one leading byte-order mark skipped, and
concatenated documents each framed by their own ``start_document`` /
``end_document``.  Its inner loops are run-based (``str.find``,
compiled regexes, slicing); a token that straddles a chunk boundary is
detected by a speculative parse that rolls back (:class:`_Underflow`)
and resumes on the next ``feed``.

It does not apply the XML spec's attribute-value normalisation (a
literal tab or newline in an attribute value stays as it is) or its
``\\r\\n`` line-end normalisation; expat does both, so the generated
corpora of the walls leave those two inputs out.

:func:`oracle_scanner` swaps it in for expat under every parse entry
point of :mod:`repro.xmlstream.parser` (and so under ``parse_forest``
and the machine's and the engines' ``filter_stream``); the walls' id
for it is ``"python"`` (:data:`ORACLE`).
:func:`repro.xmlstream.split.split_documents` always cuts with expat.
"""

from __future__ import annotations

import codecs
import re
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream import parser
from repro.xmlstream.events import Event, EventHandler

ORACLE = "python"  # the oracle's parametrize id in the walls

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

    A handler with a ``leaf`` method gets leaves fused (module
    docstring); ``_held`` is the start tag waiting to learn whether it
    opens one.

    One U+FEFF at the very start of the stream is a byte-order mark
    (XML 1.0, Appendix F) and is skipped, as expat skips it; anywhere
    else it is a character like any other.  ``_fresh`` says no input
    has arrived yet.
    """

    __slots__ = (
        "_on_start_document",
        "_on_start",
        "_on_text",
        "_on_end",
        "_on_end_document",
        "_on_leaf",
        "_held",
        "_data",
        "_pos",
        "_eof",
        "_closed",
        "_stack",
        "_pending",
        "_fresh",
        "_decoder",
        "line",
    )

    def __init__(self, handler: EventHandler):
        self._on_start_document = handler.start_document
        self._on_start = handler.start_element
        self._on_text = handler.text
        self._on_end = handler.end_element
        self._on_end_document = handler.end_document
        self._on_leaf = getattr(handler, "leaf", None)
        self._held: str | None = None
        self._data = ""
        self._pos = 0
        self._eof = False
        self._closed = False
        self._stack: list[str] = []
        self._pending: list[str] = []
        self._fresh = True
        self._decoder: codecs.IncrementalDecoder | None = None
        self.line = 1

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------

    def feed(self, chunk: str | bytes) -> None:
        """Consume as much of the buffered input + *chunk* as possible;
        ``bytes`` chunks are UTF-8, and a character may straddle two."""
        if self._closed:
            raise XMLSyntaxError("feed() after close()")
        if isinstance(chunk, bytes):
            if self._decoder is None:
                self._decoder = codecs.getincrementaldecoder("utf-8")()
            chunk = self._decoder.decode(chunk)
        if self._pos:
            self._data = self._data[self._pos :] + chunk
            self._pos = 0
        elif self._data:
            self._data += chunk
        else:
            self._data = chunk
        if self._fresh and chunk:
            self._fresh = False
            if chunk[0] == "\ufeff":
                # Step over it, so buffer offsets stay source offsets.
                self._pos = 1
        self._run()

    def close(self) -> None:
        """Signal end of input; flushes trailing text and validates."""
        if self._closed:
            return
        self._closed = True
        self._eof = True
        self._run()
        if self._held is not None:
            self._release()
        if self._pending:
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
                if "]]>" in run:
                    raise XMLSyntaxError("']]>' in character data", self.line)
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
        stack = self._stack
        held = self._held
        if held is not None:
            self._held = None
            pending = self._pending
            if held == name and pending:
                value = pending[0] if len(pending) == 1 else "".join(pending)
                if value.strip():
                    pending.clear()
                    stack.pop()
                    self._on_leaf(name, value)
                    if not stack:
                        self._on_end_document()
                    return end
            self._on_start(held)
        if self._pending:
            self._flush_text()
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
            if self._held is not None:
                self._release()
            if self._pending:
                self._flush_text()
            if not stack:
                self._on_start_document()
            if self._on_leaf is None:
                self._on_start(name)
            else:
                self._held = name
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
            if "<" in value:
                raise XMLSyntaxError(
                    f"'<' in the value of attribute {attr_name!r}", self.line
                )
            if "&" in value:
                value = decode_entities(value)
            if attributes is None:
                attributes = [(attr_name, value)]
            else:
                if any(seen == attr_name for seen, _value in attributes):
                    raise XMLSyntaxError(
                        f"duplicate attribute {attr_name!r} in <{name}>", self.line
                    )
                attributes.append((attr_name, value))
            j = endq + 1
            if j >= n:
                raise _Underflow
            ch = data[j]
        # Committed: the whole tag is in the buffer.  Emit.
        self.line += data.count("\n", pos, j)
        if self._held is not None:
            self._release()
        if self._pending:
            self._flush_text()
        if not stack:
            self._on_start_document()
        on_leaf = self._on_leaf
        if on_leaf is not None and attributes is None and not empty:
            self._held = name
            stack.append(name)
            return j
        self._on_start(name)
        if attributes is not None:
            if on_leaf is not None:
                for attr_name, value in attributes:
                    on_leaf("@" + attr_name, value)
            else:
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

    def _release(self) -> None:
        """Send the held start tag as the ``start_element`` it is: the
        next callback is not its own end tag around text."""
        self._on_start(self._held)
        self._held = None

    def _flush_text(self) -> None:
        """Send the pending text, unless it is whitespace only; callers
        check that text is pending."""
        pending = self._pending
        value = pending[0] if len(pending) == 1 else "".join(pending)
        pending.clear()
        if value.strip():
            if not self._stack:
                raise XMLSyntaxError("text outside any element", self.line)
            self._on_text(value)



@contextmanager
def oracle_scanner() -> Iterator[None]:
    """Every parse through :mod:`repro.xmlstream.parser` inside the
    block runs :class:`PushScanner`, in shard workers forked there too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "ExpatScanner", PushScanner)
        yield


def scanning(backend: str) -> AbstractContextManager[None]:
    """:func:`oracle_scanner` for :data:`ORACLE`, a no-op for ``"expat"``."""
    return oracle_scanner() if backend == ORACLE else nullcontext()


def oracle_events(text: str | bytes) -> list[Event]:
    """:func:`repro.xmlstream.parser.parse_events` on the oracle."""
    with oracle_scanner():
        return parser.parse_events(text)

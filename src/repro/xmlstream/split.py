"""Cut a concatenated XML source into one UTF-8 slice per document.

A stage should materialise only what it needs (Koch et al., PAPERS.md):
the parent of the sharded service needs document *boundaries*, not
trees, so it runs a handler-light boundary scan and forwards the
publisher's own bytes.  Each slice, parsed on its own by the backend
that cut it, yields exactly the events that document yields inside the
whole source; anything that is not well-formed raises
:class:`~repro.errors.XMLSyntaxError` here, where
:func:`~repro.xmlstream.dom.parse_forest` raises it.

Where a cut falls differs per backend, mirroring how each scanner
itself finds the next document:

- ``expat`` restarts a fresh C parser where expat reports *junk after
  document element* (:mod:`repro.xmlstream.expat_backend`), so a slice
  runs from one root's start — or the prolog before it — up to the next
  root's; comments, PIs and whitespace after a root stay with it.  No
  per-element Python callback runs: one start-element callback per
  document unhooks itself on first use.
- ``python`` cuts right after each root's end tag (the scanner's
  consumed offset), so what precedes a root travels with it, and a tail
  holding no document is scanned, then dropped.
"""

from __future__ import annotations

from typing import IO, Union

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import EventHandler
from repro.xmlstream.parser import PushScanner, _decode_utf8, resolve_backend

__all__ = ["split_documents"]


def split_documents(
    source: Union[str, bytes, IO[str], IO[bytes]], backend: str = "auto"
) -> list[bytes]:
    """The UTF-8 bytes of each document in *source*, in order."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if resolve_backend(backend) == "expat":
        if isinstance(source, str):
            source = source.encode("utf-8")
        return _split_expat(source)
    if isinstance(source, bytes):
        source = _decode_utf8(source)
    return _split_python(source)


def _split_expat(data: bytes, block: int = 1 << 16) -> list[bytes]:
    # expat copies what it is handed before scanning it, and every
    # document costs one restart, so feeding *block* bytes per call
    # bounds a restart at one small memcpy however long the source is.
    import xml.parsers.expat as _expat

    from repro.xmlstream.expat_backend import _JUNK_AFTER_DOC, _NO_ELEMENTS

    slices: list[bytes] = []
    view = memoryview(data)
    size = len(data)
    start = 0
    while True:
        parser = _expat.ParserCreate("utf-8")
        seen: list[str] = []

        def _first_element(name: str, attrs: dict) -> None:
            seen.append(name)
            parser.StartElementHandler = None  # one callback per document

        parser.StartElementHandler = _first_element
        try:
            for offset in range(start, size, block):
                parser.Parse(view[offset : offset + block], False)
            parser.Parse(b"", True)
        except _expat.ExpatError as error:
            if error.code == _JUNK_AFTER_DOC:
                # The next document starts where expat stopped.
                end = start + parser.ErrorByteIndex
                slices.append(data[start:end])
                start = end
                continue
            if error.code == _NO_ELEMENTS and not seen:
                return slices  # nothing but whitespace, comments, PIs left
            raise XMLSyntaxError(str(error), error.lineno, error.offset) from None
        slices.append(data[start:])
        return slices


class _EndFlag(EventHandler):
    """Raised by ``end_document``, lowered by whoever reads it."""

    __slots__ = ("ended",)

    def __init__(self) -> None:
        self.ended = False

    def end_document(self) -> None:
        self.ended = True


class _CutScanner(PushScanner):
    """The python scanner, recording the offset after each document."""

    __slots__ = ("cuts", "_flag")

    def __init__(self) -> None:
        self._flag = _EndFlag()
        super().__init__(self._flag)
        self.cuts: list[int] = []

    def _markup(self, data: str, pos: int, n: int) -> int:
        end = super()._markup(data, pos, n)
        if self._flag.ended:  # this item closed a root element
            self._flag.ended = False
            self.cuts.append(end)
        return end


def _split_python(text: str) -> list[bytes]:
    scanner = _CutScanner()
    scanner.feed(text)  # one feed: buffer offsets are source offsets
    scanner.close()
    cuts = scanner.cuts
    return [text[start:end].encode("utf-8") for start, end in zip([0, *cuts], cuts)]

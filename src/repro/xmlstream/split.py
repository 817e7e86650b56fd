"""Cut a concatenated XML source into one UTF-8 slice per document.

A stage should materialise only what it needs (Koch et al., PAPERS.md):
a caller that wants each document's own text needs document
*boundaries*, not trees, so this is a handler-light boundary scan over
the publisher's own bytes.  It has two production callers: the sharded
engine, which deals runs of whole documents out to its shards (each
shard's parse is the documents' only one), and the serving tier, which
cuts a publish into per-document payloads for the consumers that asked
for them, after the engine has accepted the source.  Each slice, parsed
on its own, yields exactly the events that document yields inside the
whole source; anything that is not well-formed — a ``str`` holding a
lone surrogate included — raises :class:`~repro.errors.XMLSyntaxError`
here, where :func:`~repro.xmlstream.dom.parse_forest` raises it.

A cut falls where the scanner itself finds the next document: it
restarts a fresh C parser where expat reports *junk after document
element* (:mod:`repro.xmlstream.expat_backend`), so a slice runs from
one root's start — or the prolog before it — up to the next root's;
comments, PIs and whitespace after a root stay with it.  No per-element
Python callback runs: one start-element callback per document unhooks
itself on first use, and is unhooked at the end of the scan if it never
ran, so a scan leaves no reference cycle behind.
"""

from __future__ import annotations

import xml.parsers.expat as _expat
from typing import IO, Union

from repro.errors import XMLSyntaxError
from repro.xmlstream.expat_backend import _JUNK_AFTER_DOC, _NO_ELEMENTS, _encode_utf8

__all__ = ["split_documents"]


def split_documents(source: Union[str, bytes, IO[str], IO[bytes]]) -> list[bytes]:
    """The UTF-8 bytes of each document in *source*, in order."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, str):
        source = _encode_utf8(source)
    return _split_expat(source)


def _split_expat(data: bytes, block: int = 1 << 16) -> list[bytes]:
    # expat copies what it is handed before scanning it, and every
    # document costs one restart, so feeding *block* bytes per call
    # bounds a restart at one small memcpy however long the source is.
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
        finally:
            # A document that never opened an element still holds its
            # callback, and the callback the parser: leave no cycle.
            parser.StartElementHandler = None
        slices.append(data[start:])
        return slices


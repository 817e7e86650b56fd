"""Parser for external DTD text (``<!ELEMENT …>`` / ``<!ATTLIST …>``).

The in-code DTD model (:mod:`repro.xmlstream.dtd`) is what the engine
consumes; this module parses the standard DTD surface syntax into that
model so users can point the CLI and the machine at real ``.dtd``
files.  Supported (the subset the paper's datasets need):

- ``<!ELEMENT name EMPTY>``, ``<!ELEMENT name (#PCDATA)>``;
- element content: sequences ``(a, b)``, choices ``(a | b)``, nesting,
  occurrence indicators ``?``/``*``/``+`` on names and groups;
- ``<!ATTLIST name attr CDATA #REQUIRED|#IMPLIED|"default">`` with any
  attribute type token (types beyond CDATA are treated as CDATA);
- comments and parameter-entity-free prose are skipped.

Mixed content declarations ``(#PCDATA | a)*`` are rejected: the XPush
machine assumes no mixed content (Sec. 3.2).
"""

from __future__ import annotations

from repro.errors import DTDError
from repro.xmlstream.dtd import (
    DTD,
    AttributeDecl,
    ContentParticle,
    ElementDecl,
    EMPTY,
    PCDATA,
)

_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-:"
)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            context = self.text[self.pos : self.pos + 20]
            raise DTDError(f"expected {literal!r} at …{context!r}")
        self.pos += len(literal)

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while not self.eof() and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if start == self.pos:
            raise DTDError(f"expected a name at position {self.pos}")
        return self.text[start : self.pos]

    def occurrence(self) -> str:
        ch = self.peek()
        if ch in "?*+":
            self.advance()
            return ch
        return ""


def _parse_group(cursor: _Cursor) -> ContentParticle:
    """Parse a parenthesised content group; '(' already consumed."""
    particles: list[ContentParticle] = []
    separator: str | None = None
    while True:
        cursor.skip_ws()
        if cursor.match("("):
            inner = _parse_group(cursor)
            particles.append(inner)
        else:
            label = cursor.name()
            occurrence = cursor.occurrence()
            particles.append(ContentParticle("element", label=label, occurrence=occurrence))
        cursor.skip_ws()
        ch = cursor.advance()
        if ch == ")":
            break
        if ch not in ",|":
            raise DTDError(f"expected ',', '|' or ')' in content model, found {ch!r}")
        if separator is None:
            separator = ch
        elif separator != ch:
            raise DTDError("mixed ',' and '|' at the same group level")
    occurrence = cursor.occurrence()
    if len(particles) == 1 and occurrence == "":
        return particles[0]
    kind = "choice" if separator == "|" else "seq"
    return ContentParticle(kind, children=tuple(particles), occurrence=occurrence)


def _parse_content(cursor: _Cursor) -> ContentParticle:
    cursor.skip_ws()
    if cursor.match("EMPTY"):
        return EMPTY
    if cursor.match("ANY"):
        raise DTDError("ANY content models are not supported")
    cursor.expect("(")
    cursor.skip_ws()
    if cursor.match("#PCDATA"):
        cursor.skip_ws()
        if cursor.peek() == "|":
            raise DTDError("mixed content (#PCDATA | …) is not supported (Sec. 3.2)")
        cursor.expect(")")
        cursor.occurrence()
        return PCDATA
    return _parse_group(cursor)


def _parse_attlist(cursor: _Cursor) -> tuple[str, list[AttributeDecl]]:
    owner = cursor.name()
    attributes: list[AttributeDecl] = []
    while True:
        cursor.skip_ws()
        if cursor.peek() == ">":
            cursor.advance()
            return owner, attributes
        attr_name = cursor.name()
        cursor.skip_ws()
        if cursor.peek() == "(":  # enumerated type
            cursor.advance()
            _parse_group(cursor)
        else:
            cursor.name()  # the type token (CDATA, ID, NMTOKEN, …)
        cursor.skip_ws()
        required = False
        if cursor.match("#REQUIRED"):
            required = True
        elif cursor.match("#IMPLIED") or cursor.match("#FIXED"):
            cursor.skip_ws()
            if cursor.peek() in "'\"":
                _parse_quoted(cursor)
        elif cursor.peek() in "'\"":
            _parse_quoted(cursor)  # default value
        attributes.append(AttributeDecl(attr_name, required=required))


def _parse_quoted(cursor: _Cursor) -> str:
    quote = cursor.advance()
    start = cursor.pos
    end = cursor.text.find(quote, start)
    if end < 0:
        raise DTDError("unterminated quoted value in DTD")
    cursor.pos = end + 1
    return cursor.text[start:end]


def parse_dtd(text: str, root: str | None = None) -> DTD:
    """Parse DTD *text*; *root* defaults to the first declared element."""
    cursor = _Cursor(text)
    elements: dict[str, ContentParticle] = {}
    order: list[str] = []
    attlists: dict[str, list[AttributeDecl]] = {}
    while True:
        cursor.skip_ws()
        if cursor.eof():
            break
        if cursor.match("<!--"):
            end = cursor.text.find("-->", cursor.pos)
            if end < 0:
                raise DTDError("unterminated comment in DTD")
            cursor.pos = end + 3
            continue
        if cursor.match("<!ELEMENT"):
            name = cursor.name()
            if name in elements:
                raise DTDError(f"duplicate <!ELEMENT {name}>")
            elements[name] = _parse_content(cursor)
            order.append(name)
            cursor.expect(">")
            continue
        if cursor.match("<!ATTLIST"):
            owner, attributes = _parse_attlist(cursor)
            attlists.setdefault(owner, []).extend(attributes)
            continue
        if cursor.match("<?"):
            end = cursor.text.find("?>", cursor.pos)
            if end < 0:
                raise DTDError("unterminated processing instruction in DTD")
            cursor.pos = end + 2
            continue
        context = cursor.text[cursor.pos : cursor.pos + 30]
        raise DTDError(f"unrecognised DTD construct at …{context!r}")
    if not elements:
        raise DTDError("DTD declares no elements")
    for owner in attlists:
        if owner not in elements:
            raise DTDError(f"<!ATTLIST {owner}> for undeclared element")
    declarations = [
        ElementDecl(name, elements[name], tuple(attlists.get(name, ())))
        for name in order
    ]
    return DTD(root or order[0], declarations)


def parse_dtd_file(path: str, root: str | None = None) -> DTD:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dtd(handle.read(), root)

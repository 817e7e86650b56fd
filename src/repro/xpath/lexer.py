"""Tokeniser for the Fig. 1 XPath fragment."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import XPathSyntaxError

# Token kinds.
SLASH = "SLASH"  # /
DSLASH = "DSLASH"  # //
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
DOT = "DOT"
STAR = "STAR"
AT_STAR = "AT_STAR"  # @*
AT_NAME = "AT_NAME"  # @label
NAME = "NAME"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"  # = != < <= > >=
EOF = "EOF"

_NAME_START_ASCII = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
#: The rest of a name in one match: in a str pattern ``\w`` is exactly
#: ``str.isalnum()`` or ``_``, so this takes ASCII and non-ASCII alike.
_NAME_REST = re.compile(r"[\w.\-·]*")


def _is_name_start(ch: str) -> bool:
    return ch in _NAME_START_ASCII or (ord(ch) > 127 and ch.isalpha())


class Token(NamedTuple):
    kind: str
    value: str
    position: int


def tokenize(source: str) -> list[Token]:
    """Tokenise *source*; raises :class:`XPathSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i
        if ch == "/":
            if i + 1 < n and source[i + 1] == "/":
                tokens.append(Token(DSLASH, "//", start))
                i += 2
            else:
                tokens.append(Token(SLASH, "/", start))
                i += 1
        elif ch == "[":
            tokens.append(Token(LBRACKET, ch, start))
            i += 1
        elif ch == "]":
            tokens.append(Token(RBRACKET, ch, start))
            i += 1
        elif ch == "(":
            tokens.append(Token(LPAREN, ch, start))
            i += 1
        elif ch == ")":
            tokens.append(Token(RPAREN, ch, start))
            i += 1
        elif ch == ",":
            tokens.append(Token(COMMA, ch, start))
            i += 1
        elif ch == "*":
            tokens.append(Token(STAR, ch, start))
            i += 1
        elif ch == "@":
            if i + 1 < n and source[i + 1] == "*":
                tokens.append(Token(AT_STAR, "@*", start))
                i += 2
            else:
                i += 1
                name, i = _read_name(source, i, start)
                tokens.append(Token(AT_NAME, "@" + name, start))
        elif ch == ".":
            # Distinguish `.` / `.//` from a leading-dot number like .5
            if i + 1 < n and source[i + 1].isdigit():
                literal, i = _read_number(source, i)
                tokens.append(Token(NUMBER, literal, start))
            else:
                tokens.append(Token(DOT, ch, start))
                i += 1
        elif ch == "=":
            tokens.append(Token(OP, "=", start))
            i += 1
        elif ch == "!":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(Token(OP, "!=", start))
                i += 2
            else:
                raise XPathSyntaxError("expected '=' after '!'", start, source)
        elif ch == "<":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(Token(OP, "<=", start))
                i += 2
            else:
                tokens.append(Token(OP, "<", start))
                i += 1
        elif ch == ">":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(Token(OP, ">=", start))
                i += 2
            else:
                tokens.append(Token(OP, ">", start))
                i += 1
        elif ch in "'\"":
            end = source.find(ch, i + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated string literal", start, source)
            tokens.append(Token(STRING, source[i + 1 : end], start))
            i = end + 1
        elif ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            literal, i = _read_number(source, i)
            tokens.append(Token(NUMBER, literal, start))
        elif _is_name_start(ch):
            name, i = _read_name(source, i, start)
            tokens.append(Token(NAME, name, start))
        else:
            raise XPathSyntaxError(f"unexpected character {ch!r}", start, source)
    tokens.append(Token(EOF, "", n))
    return tokens


def _read_name(source: str, i: int, start: int) -> tuple[str, int]:
    if i >= len(source) or not _is_name_start(source[i]):
        raise XPathSyntaxError("expected a name", start, source)
    j = _NAME_REST.match(source, i + 1).end()
    # `text` immediately followed by `()` is handled by the parser.
    return source[i:j], j


def _read_number(source: str, i: int) -> tuple[str, int]:
    j = i
    n = len(source)
    if source[j] == "-":
        j += 1
    seen_dot = False
    while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
        if source[j] == ".":
            # Only treat the dot as part of the number when followed by a
            # digit; `5.` would otherwise eat a path `5./…` (not legal
            # anyway, but keep the lexer predictable).
            if j + 1 >= n or not source[j + 1].isdigit():
                break
            seen_dot = True
        j += 1
    return source[i:j], j


def parse_literal(token: Token) -> int | float | str:
    """Convert a NUMBER/STRING token to its Python value."""
    if token.kind == STRING:
        return token.value
    if "." in token.value:
        return float(token.value)
    return int(token.value)

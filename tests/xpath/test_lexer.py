"""Tests for the XPath tokeniser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath import lexer
from repro.xpath.lexer import Token, parse_literal, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def test_simple_path():
    assert kinds("/a/b") == [lexer.SLASH, lexer.NAME, lexer.SLASH, lexer.NAME]


def test_descendant_and_wildcards():
    assert kinds("//*") == [lexer.DSLASH, lexer.STAR]
    assert kinds("//@*") == [lexer.DSLASH, lexer.AT_STAR]
    assert kinds("//@c") == [lexer.DSLASH, lexer.AT_NAME]


def test_operators():
    values = [t.value for t in tokenize("= != < <= > >=") if t.kind == lexer.OP]
    assert values == ["=", "!=", "<", "<=", ">", ">="]


def test_numbers():
    tokens = [t for t in tokenize("1 -2 3.5 .25") if t.kind == lexer.NUMBER]
    assert [parse_literal(t) for t in tokens] == [1, -2, 3.5, 0.25]


def test_strings_both_quotes():
    tokens = [t for t in tokenize("\"abc\" 'd e'") if t.kind == lexer.STRING]
    assert [t.value for t in tokens] == ["abc", "d e"]


def test_dot_and_dotslash():
    assert kinds(".//a") == [lexer.DOT, lexer.DSLASH, lexer.NAME]


def test_text_function_tokens():
    assert kinds("text()") == [lexer.NAME, lexer.LPAREN, lexer.RPAREN]


def test_hyphenated_names():
    tokens = tokenize("starts-with")
    assert tokens[0] == Token(lexer.NAME, "starts-with", 0)


def test_errors():
    with pytest.raises(XPathSyntaxError):
        tokenize("a ! b")
    with pytest.raises(XPathSyntaxError):
        tokenize('"unterminated')
    with pytest.raises(XPathSyntaxError):
        tokenize("a # b")
    with pytest.raises(XPathSyntaxError):
        tokenize("@1bad")


def test_positions_recorded():
    tokens = tokenize("/a[b = 1]")
    by_value = {t.value: t.position for t in tokens if t.value}
    assert by_value["/"] == 0
    assert by_value["a"] == 1
    assert by_value["["] == 2


@pytest.mark.parametrize(
    "source, names",
    [
        ("/a.b/c-d/_e/f9/g.1-x_", ["a.b", "c-d", "_e", "f9", "g.1-x_"]),
        ("//x1[y-z.w = 'v']/@at_tr.i-b9", ["x1", "y-z.w", "@at_tr.i-b9"]),
        ("/a[b]/c[d=1]/e[@f]/g[h/i]", ["a", "b", "c", "d", "e", "@f", "g", "h", "i"]),
        ("/a[.//b-c=2]//d_e/text()", ["a", "b-c", "d_e", "text"]),
        ("/éa/b", ["éa", "b"]),  # a non-ASCII start
        ("/aé/bç[dñ = 1]", ["aé", "bç", "dñ"]),  # ASCII running into non-ASCII
        ("/a·b/c", ["a·b", "c"]),
        ("/a[é]", ["a", "é"]),
        ("/a[@é", ["a", "@é"]),
        ("ab", ["ab"]),
    ],
)
def test_names(source, names):
    tokens = tokenize(source)
    assert [t.value for t in tokens if t.kind in (lexer.NAME, lexer.AT_NAME)] == names


@pytest.mark.parametrize(
    "source, message",
    [
        ("/a→b", "unexpected character '→' (at position 2: '/a >>> →b')"),  # no name holds →
        ("@", "expected a name (at position 0: ' >>> @')"),
        ("/a[@", "expected a name (at position 3: '/a[ >>> @')"),
        ("/a[@1]", "expected a name (at position 3: '/a[ >>> @1]')"),
        ("/a#b", "unexpected character '#' (at position 2: '/a >>> #b')"),
    ],
)
def test_name_errors(source, message):
    with pytest.raises(XPathSyntaxError) as error:
        tokenize(source)
    assert str(error.value) == message

"""Recursive-descent parser for the Fig. 1 XPath fragment.

Grammar (paper notation on the left, this parser's behaviour on the
right)::

    P ::= /E | //E          -- absolute filter; // gives the first step
                               a descendant axis
    E ::= label | text() | * | @* | . | E/E | E//E | E[Q]
    Q ::= E | E Oprel Const | Q and Q | Q or Q | not(Q)

plus, as in the paper's examples, attributes by name (``@c``),
parenthesised predicates, and the Sec. 2 string extension
``starts-with(E, "s")`` / ``contains(E, "s")``.

Precedence: ``or`` < ``and`` < ``not`` < atoms, as in XPath 1.0.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath import lexer
from repro.xpath.ast import (
    And,
    Axis,
    BooleanExpr,
    Comparison,
    Exists,
    LocationPath,
    Not,
    NodeTest,
    NodeTestKind,
    Or,
    Step,
    XPathFilter,
)
from repro.xpath.lexer import Token, parse_literal, tokenize


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            wanted = value or kind
            raise XPathSyntaxError(
                f"expected {wanted!r}, found {actual.value or actual.kind!r}",
                actual.position,
                self.source,
            )
        return token

    def fail(self, message: str) -> XPathSyntaxError:
        token = self.peek()
        return XPathSyntaxError(message, token.position, self.source)

    # -- grammar --------------------------------------------------------

    def parse_filter(self) -> LocationPath:
        if self.accept(lexer.DSLASH):
            first_axis = Axis.DESCENDANT
        elif self.accept(lexer.SLASH):
            first_axis = Axis.CHILD
        else:
            raise self.fail("a filter must start with '/' or '//'")
        steps = self.parse_steps(first_axis)
        self.expect(lexer.EOF)
        return LocationPath(tuple(steps), absolute=True)

    def parse_steps(self, first_axis: Axis) -> list[Step]:
        steps = [self.parse_step(first_axis)]
        while True:
            if self.accept(lexer.DSLASH):
                steps.append(self.parse_step(Axis.DESCENDANT))
            elif self.accept(lexer.SLASH):
                steps.append(self.parse_step(Axis.CHILD))
            else:
                return steps

    def parse_step(self, axis: Axis) -> Step:
        token = self.peek()
        if token.kind == lexer.STAR:
            self.advance()
            test = NodeTest(NodeTestKind.WILDCARD)
        elif token.kind == lexer.AT_STAR:
            self.advance()
            test = NodeTest(NodeTestKind.ATTRIBUTE_WILDCARD)
        elif token.kind == lexer.AT_NAME:
            self.advance()
            test = NodeTest(NodeTestKind.ATTRIBUTE, token.value)
        elif token.kind == lexer.DOT:
            self.advance()
            return Step(Axis.SELF, NodeTest(NodeTestKind.WILDCARD), self.parse_predicates())
        elif token.kind == lexer.NAME:
            self.advance()
            if token.value == "text" and self.accept(lexer.LPAREN):
                self.expect(lexer.RPAREN)
                test = NodeTest(NodeTestKind.TEXT)
            else:
                test = NodeTest(NodeTestKind.NAME, token.value)
        else:
            raise self.fail("expected a node test")
        return Step(axis, test, self.parse_predicates())

    def parse_predicates(self) -> tuple[BooleanExpr, ...]:
        predicates: list[BooleanExpr] = []
        while self.accept(lexer.LBRACKET):
            predicates.append(self.parse_or())
            self.expect(lexer.RBRACKET)
        return tuple(predicates)

    def parse_or(self) -> BooleanExpr:
        left = self.parse_and()
        children = [left]
        while self.accept(lexer.NAME, "or"):
            children.append(self.parse_and())
        if len(children) == 1:
            return left
        return Or(tuple(children))

    def parse_and(self) -> BooleanExpr:
        left = self.parse_boolean_atom()
        children = [left]
        while self.accept(lexer.NAME, "and"):
            children.append(self.parse_boolean_atom())
        if len(children) == 1:
            return left
        return And(tuple(children))

    def parse_boolean_atom(self) -> BooleanExpr:
        token = self.peek()
        if token.kind == lexer.NAME and token.value == "not":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == lexer.LPAREN:
                self.advance()
                self.advance()
                inner = self.parse_or()
                self.expect(lexer.RPAREN)
                return Not(inner)
        if token.kind == lexer.NAME and token.value in ("starts-with", "contains"):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == lexer.LPAREN:
                self.advance()
                self.advance()
                path = self.parse_relative_path()
                self.expect(lexer.COMMA)
                literal = self.expect(lexer.STRING)
                self.expect(lexer.RPAREN)
                return Comparison(path, token.value, literal.value)
        if token.kind == lexer.LPAREN:
            self.advance()
            inner = self.parse_or()
            self.expect(lexer.RPAREN)
            return inner
        path = self.parse_relative_path()
        op = self.accept(lexer.OP)
        if op is None:
            return Exists(path)
        literal = self.peek()
        if literal.kind not in (lexer.NUMBER, lexer.STRING):
            raise self.fail("expected a constant after comparison operator")
        self.advance()
        return Comparison(path, op.value, parse_literal(literal))

    def parse_relative_path(self) -> LocationPath:
        """Relative path inside a predicate: E, ./E, .//E."""
        if self.accept(lexer.DSLASH):
            first_axis = Axis.DESCENDANT
        elif self.accept(lexer.SLASH):
            raise self.fail("absolute paths are not allowed inside predicates")
        else:
            first_axis = Axis.CHILD
        steps = self.parse_steps(first_axis)
        # Normalise a leading bare `.` step (`.//a`, `./b`): a SELF step
        # without predicates adds nothing.
        if len(steps) > 1 and steps[0].axis is Axis.SELF and not steps[0].predicates:
            steps = steps[1:]
        return LocationPath(tuple(steps), absolute=False)


def parse_xpath(source: str, oid: str = "") -> XPathFilter:
    """Parse one XPath filter.

    >>> str(parse_xpath("//a[b/text()=1 and .//a[@c>2]]").path)
    '//a[b/text() = 1 and .//a[@c > 2]]'
    """
    try:
        path = _Parser(source).parse_filter()
    except RecursionError:
        # Predicates nest by recursive descent; a subscriber must get the
        # typed refusal every boundary catches, not the interpreter's.
        raise XPathSyntaxError("filter is nested too deep to parse") from None
    return XPathFilter(path, oid=oid, source=source)


def parse_workload(sources: dict[str, str] | list[str]) -> list[XPathFilter]:
    """Parse a workload; a list gets oids ``q0, q1, …`` assigned.  Each
    distinct source is parsed once and its copies share that one
    :class:`LocationPath`, so the workload compiler's check that a copy
    may share an automaton (``path ==``) is an identity check."""
    if isinstance(sources, dict):
        pairs = list(sources.items())
    else:
        pairs = [(f"q{i}", text) for i, text in enumerate(sources)]
    parsed: dict[str, LocationPath] = {}
    out: list[XPathFilter] = []
    for oid, text in pairs:
        path = parsed.get(text)
        if path is None:
            out.append(parse_xpath(text, oid))
            parsed[text] = out[-1].path
        else:
            out.append(XPathFilter(path, oid=oid, source=text))
    return out

"""AST for the XPath fragment of Fig. 1.

A filter is a :class:`LocationPath` — a sequence of :class:`Step`\\ s,
each with an axis (child or descendant-or-self'), a node test and zero
or more boolean predicates.  Predicates (the ``Q`` production) are
:class:`Exists`, :class:`Comparison`, :class:`And`, :class:`Or` and
:class:`Not` nodes whose relative paths are again location paths.

Every node can unparse itself (``str()``) back to XPath syntax that the
parser round-trips, which the property tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union


class Axis(enum.Enum):
    """How a step moves from its context node."""

    CHILD = "child"
    DESCENDANT = "descendant"  # `//`: any depth >= 1 below the context
    SELF = "self"  # `.`

    def __repr__(self) -> str:  # keep asts readable in test output
        return self.name


class NodeTestKind(enum.Enum):
    NAME = "name"  # element label
    WILDCARD = "wildcard"  # *
    ATTRIBUTE = "attribute"  # @name
    ATTRIBUTE_WILDCARD = "attribute_wildcard"  # @*
    TEXT = "text"  # text()

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class NodeTest:
    """What a step matches: a label, a wildcard, an attribute, or text().

    ``name`` is the bare element name for NAME and the ``@``-prefixed
    pseudo-element label for ATTRIBUTE; None otherwise.
    """

    kind: NodeTestKind
    name: str | None = None

    def __str__(self) -> str:
        if self.kind is NodeTestKind.NAME:
            return self.name
        if self.kind is NodeTestKind.ATTRIBUTE:
            return self.name  # already carries the '@'
        if self.kind is NodeTestKind.WILDCARD:
            return "*"
        if self.kind is NodeTestKind.ATTRIBUTE_WILDCARD:
            return "@*"
        return "text()"


WILDCARD_TEST = NodeTest(NodeTestKind.WILDCARD)
ATTRIBUTE_WILDCARD_TEST = NodeTest(NodeTestKind.ATTRIBUTE_WILDCARD)
TEXT_TEST = NodeTest(NodeTestKind.TEXT)
SELF_TEST = NodeTest(NodeTestKind.WILDCARD)  # `.` has no test; placeholder


@dataclass(frozen=True)
class Step:
    """One location step: axis, node test, predicates."""

    axis: Axis
    test: NodeTest
    predicates: tuple["BooleanExpr", ...] = ()

    def __str__(self) -> str:
        if self.axis is Axis.SELF:
            body = "."
        else:
            body = str(self.test)
        return body + "".join(f"[{pred}]" for pred in self.predicates)


@dataclass(frozen=True)
class LocationPath:
    """A sequence of steps.

    ``absolute`` distinguishes the top-level productions ``/E`` (first
    step starts at the root's children) from ``//E`` — the latter is
    encoded by giving the first step a DESCENDANT axis.  Relative paths
    inside predicates have ``absolute=False``.
    """

    steps: tuple[Step, ...]
    absolute: bool = False

    def __str__(self) -> str:
        pieces: list[str] = []
        for i, step in enumerate(self.steps):
            if step.axis is Axis.DESCENDANT:
                sep = "//" if (i > 0 or self.absolute) else ".//"
                if i == 0 and self.absolute:
                    sep = "//"
                elif i == 0:
                    sep = ".//"
                pieces.append(sep)
            elif i > 0:
                pieces.append("/")
            elif self.absolute:
                pieces.append("/")
            pieces.append(str(step))
        return "".join(pieces)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Exists:
    """Q ::= E — true iff the relative path selects at least one node."""

    path: LocationPath

    def __str__(self) -> str:
        return str(self.path)


#: The comparison operators of the fragment, in the paper's notation.
RELATIONAL_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Extended string operators (Sec. 2 discusses supporting these via an
#: Aho-Corasick dictionary index; we implement them as an extension).
STRING_OPS = ("starts-with", "contains")


@dataclass(frozen=True)
class Comparison:
    """Q ::= E op Const — compare the value selected by ``path``.

    The compared value is the text content of the element (or the value
    of the attribute) the path lands on; a trailing ``text()`` step is
    how the paper usually spells it, but a bare ``b = 1`` is accepted
    and means the same thing.
    """

    path: LocationPath
    op: str
    value: Union[int, float, str]

    def __post_init__(self):
        if self.op not in RELATIONAL_OPS + STRING_OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        if isinstance(self.value, str) and '"' in self.value and "'" in self.value:
            raise ValueError("string constant may not contain both quote characters")

    def __str__(self) -> str:
        if isinstance(self.value, str):
            quote = "'" if '"' in self.value else '"'
            literal = quote + self.value + quote
        else:
            literal = str(self.value)
        if self.op in STRING_OPS:
            return f"{self.op}({self.path}, {literal})"
        return f"{self.path} {self.op} {literal}"


@dataclass(frozen=True)
class And:
    children: tuple["BooleanExpr", ...]

    def __str__(self) -> str:
        return " and ".join(_maybe_paren(child) for child in self.children)


@dataclass(frozen=True)
class Or:
    children: tuple["BooleanExpr", ...]

    def __str__(self) -> str:
        return " or ".join(_maybe_paren(child) for child in self.children)


@dataclass(frozen=True)
class Not:
    child: "BooleanExpr"

    def __str__(self) -> str:
        return f"not({self.child})"


BooleanExpr = Union[Exists, Comparison, And, Or, Not]


def _maybe_paren(expr: BooleanExpr) -> str:
    if isinstance(expr, (And, Or)):
        return f"({expr})"
    return str(expr)


@dataclass(frozen=True)
class XPathFilter:
    """A complete boolean filter: an absolute location path plus an oid."""

    path: LocationPath
    oid: str = ""
    source: str = ""

    def __str__(self) -> str:
        return str(self.path)


# ----------------------------------------------------------------------
# Structural measures used by the generator, the stats and the theory
# ----------------------------------------------------------------------


def iter_predicates(expr: BooleanExpr) -> Iterator[BooleanExpr]:
    """Yield every atomic predicate (Exists / Comparison leaf) in *expr*."""
    if isinstance(expr, (Exists, Comparison)):
        yield expr
    elif isinstance(expr, Not):
        yield from iter_predicates(expr.child)
    else:
        for child in expr.children:
            yield from iter_predicates(child)


def count_atomic_predicates(path: LocationPath) -> int:
    """Number of atomic predicates in the filter — the unit of the
    paper's "total number of atomic predicates in the workload".

    A Comparison counts as one; an Exists counts as one only when its
    path is predicate-free (a pure existence test), otherwise the atomic
    predicates are the ones nested inside it.
    """
    total = 0
    for step in path.steps:
        for pred in step.predicates:
            for atom in iter_predicates(pred):
                if isinstance(atom, Comparison):
                    total += 1 + count_atomic_predicates(atom.path)
                else:  # Exists
                    nested = count_atomic_predicates(atom.path)
                    total += nested if nested else 1
    return total


def is_linear(path: LocationPath) -> bool:
    """True when the filter has no predicates at all (a pure path)."""
    return all(not step.predicates for step in path.steps)

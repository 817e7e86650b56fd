"""The XPath fragment of Fig. 1: AST, parser, semantics, generator.

The fragment contains element and attribute labels, wildcards (``*``,
``@*``), child (``/``) and descendant (``//``) axes, ``.``, ``text()``,
atomic comparisons against constants, and the boolean connectives
``and``, ``or``, ``not`` — interleaved arbitrarily with navigation.

Filters are *boolean*: a document matches iff the path selects at least
one node from the document root.
"""

from repro.xpath.ast import (
    Axis,
    BooleanExpr,
    Comparison,
    Exists,
    LocationPath,
    Step,
    NodeTest,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_filter, matching_oids
from repro.xpath.generator import QueryGenerator, GeneratorConfig
from repro.xpath.analysis import profile_workload
from repro.xpath.dedupe import DeduplicatedEngine, DeduplicatedWorkload

__all__ = [
    "DeduplicatedEngine",
    "DeduplicatedWorkload",
    "profile_workload",
    "Axis",
    "BooleanExpr",
    "Comparison",
    "Exists",
    "GeneratorConfig",
    "LocationPath",
    "NodeTest",
    "QueryGenerator",
    "Step",
    "evaluate_filter",
    "matching_oids",
    "parse_xpath",
]

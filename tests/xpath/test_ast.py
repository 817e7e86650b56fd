"""Tests for AST structural measures."""

import pytest

from repro.xpath.ast import (
    Comparison,
    LocationPath,
    count_atomic_predicates,
    is_linear,
)
from repro.xpath.parser import parse_xpath


def count(source):
    return count_atomic_predicates(parse_xpath(source).path)


def test_atomic_predicate_counting():
    assert count("/a") == 0
    assert count("/a[b = 1]") == 1
    assert count("/a[b = 1 and c = 2]") == 2
    # Nested comparison counts once; the enclosing Exists does not.
    assert count("//a[b/text()=1 and .//a[@c>2]]") == 2
    # A pure existence test counts as one atomic predicate.
    assert count("/a[b]") == 1
    assert count("/a[not(b = 1) or c]") == 2
    assert count("/a[b = 1]/c[d = 2][e]") == 3


def test_is_linear():
    assert is_linear(parse_xpath("/a/b//c").path)
    assert not is_linear(parse_xpath("/a[b]/c").path)


def test_comparison_rejects_unknown_op():
    with pytest.raises(ValueError):
        Comparison(LocationPath(()), "~", 1)


def test_comparison_rejects_double_quoted_strings():
    with pytest.raises(ValueError):
        Comparison(LocationPath(()), "=", "has \"both\" 'quotes'")


def test_unparse_examples():
    assert str(parse_xpath("/a[b/text() = 1]").path) == "/a[b/text() = 1]"
    assert str(parse_xpath("//a[@c>2]").path) == "//a[@c > 2]"
    assert str(parse_xpath("/a[not(b)]").path) == "/a[not(b)]"
    assert str(parse_xpath("/a[x = 'v']").path) == '/a[x = "v"]'

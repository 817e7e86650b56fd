"""Tests for the Theorem 6.2 closed forms."""

import math

import pytest

from repro.theory.expected import (
    expected_states_ordered,
    expected_states_unordered,
)


def test_unordered_bound_formula():
    # 1 + N·m·σ
    assert expected_states_unordered(100, 50, 0.001) == pytest.approx(1 + 100 * 50 * 0.001)


def test_ordered_bound_formula():
    # N·((1-σ^(k+1))/(1-σ))^n
    value = expected_states_ordered(10, queries=3, predicates_per_query=2, selectivity=0.5)
    base = (1 - 0.5**3) / (1 - 0.5)
    assert value == pytest.approx(10 * base**3)


def test_lower_selectivity_means_fewer_states():
    high = expected_states_unordered(100, 1000, 0.01)
    low = expected_states_unordered(100, 1000, 0.0001)
    assert low < high
    high = expected_states_ordered(100, 50, 4, 0.01)
    low = expected_states_ordered(100, 50, 4, 0.0001)
    assert low < high


def test_linear_in_documents():
    one = expected_states_unordered(1, 100, 0.001) - 1
    ten = expected_states_unordered(10, 100, 0.001) - 1
    assert ten == pytest.approx(10 * one)


def test_more_branches_per_query_fewer_states():
    """Sec. 6: with k·n fixed, the ordered bound decreases in k."""
    bounds = [expected_states_ordered(100, 60 // k, k, 0.01) for k in (1, 2, 3, 5, 6)]
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[-1] < bounds[0]


def test_selectivity_bounds_checked():
    with pytest.raises(ValueError):
        expected_states_unordered(10, 10, 0.0)
    with pytest.raises(ValueError):
        expected_states_ordered(10, 10, 2, 1.0)


def test_overflow_guard():
    assert expected_states_ordered(10, 10_000, 5, 0.5) == math.inf

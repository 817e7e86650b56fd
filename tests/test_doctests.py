"""Run the doctest examples embedded in module/class docstrings."""

import doctest

import pytest

import repro.data.protein
import repro.xpath.parser
import repro.xpush.layered

MODULES = [
    repro.data.protein,
    repro.xpath.parser,
    repro.xpush.layered,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0

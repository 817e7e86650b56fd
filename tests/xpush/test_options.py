"""Tests for XPushOptions and the named variants."""

import pytest

from repro.errors import OptionsError, WorkloadError
from repro.xpush.options import VARIANTS, XPushOptions, variant_options


def test_defaults():
    options = XPushOptions()
    assert not options.top_down and not options.order
    assert not options.early and not options.train


def test_early_requires_top_down():
    with pytest.raises(ValueError):
        XPushOptions(early=True, top_down=False)
    XPushOptions(early=True, top_down=True)  # fine


def test_validation_raises_options_error():
    """Config-surface failures carry one type.  ``OptionsError`` is
    both a ``WorkloadError`` (the repo-wide config failure class) and a
    ``ValueError`` (what these checks historically raised), so old
    callers keep working."""
    with pytest.raises(OptionsError) as caught:
        XPushOptions(early=True, top_down=False)
    assert isinstance(caught.value, WorkloadError)
    assert isinstance(caught.value, ValueError)
    for runtime in ("quantum", "sets"):
        with pytest.raises(OptionsError):
            XPushOptions(runtime=runtime)
    with pytest.raises(OptionsError):
        variant_options("nope")


def test_describe():
    assert XPushOptions().describe() == "basic"
    assert (
        XPushOptions(top_down=True, order=True, early=True, train=True).describe()
        == "top-down+order+early+train"
    )


def test_variants_cover_the_figures():
    for name in ["basic", "TD", "TD-order", "TD-order-train", "TD-order-early-train"]:
        assert name in VARIANTS


def test_variant_options_lookup():
    assert variant_options("basic") == XPushOptions()
    with pytest.raises(ValueError):
        variant_options("nope")

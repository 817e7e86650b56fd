"""Tests for empirical selectivity estimation."""

import pytest

from repro.xmlstream.dom import parse_document
from repro.xpath.parser import parse_workload
from repro.theory.selectivity import estimate_selectivities


def docs(*xmls):
    return [parse_document(x) for x in xmls]


def test_basic_fractions():
    filters = parse_workload({"q": "/a[b = 1 and c = 2]"})
    sample = docs(
        "<a><b>1</b></a>",  # b=1 true, c=2 false
        "<a><b>1</b><c>2</c></a>",  # both true
        "<a><b>0</b></a>",  # neither
        "<a><c>2</c></a>",  # only c
    )
    report = estimate_selectivities(filters, sample)
    assert report.documents == 4
    by_key = {key[0]: value for key, value in report.per_predicate.items()}
    assert by_key["b"] == pytest.approx(0.5)
    assert by_key["c"] == pytest.approx(0.5)
    assert report.mean_selectivity == pytest.approx(0.5)
    assert "σ" in report.describe()


def test_predicate_anywhere_in_document():
    # The predicate is relative to its step; a deep occurrence counts.
    filters = parse_workload({"q": "/top/mid[leaf = 7]"})
    report = estimate_selectivities(
        filters, docs("<x><y><leaf>7</leaf></y></x>", "<x/>")
    )
    (value,) = report.per_predicate.values()
    assert value == pytest.approx(0.5)


def test_existence_predicates():
    filters = parse_workload({"q": "/a[b]"})
    report = estimate_selectivities(filters, docs("<a><b/></a>", "<c/>", "<b/>"))
    (value,) = report.per_predicate.values()
    # The relative path `b` is anchored everywhere, including the
    # virtual root — a document whose root element *is* b satisfies it.
    assert value == pytest.approx(2 / 3)


def test_shared_predicates_counted_once(running_filters):
    report = estimate_selectivities(
        running_filters, docs("<a><b>1</b></a>")
    )
    # P1 and P2 share [b/text()=1] → one atom; P1 contributes the
    # Exists(.//a[@c>2]) atom, P2 the bare @c>2 comparison: 3 distinct.
    assert len(report.per_predicate) == 3


def test_empty_sample_rejected(running_filters):
    with pytest.raises(ValueError):
        estimate_selectivities(running_filters, [])


def test_generated_workload_selectivities_are_low(protein, protein_docs):
    from tests.conftest import make_workload

    filters = make_workload(protein, 20, seed=44, prob_not=0.0, prob_or=0.0)
    report = estimate_selectivities(filters, protein_docs)
    assert 0.0 <= report.mean_selectivity <= 1.0
    # Predicates drawn from large value pools are individually rare —
    # the σ ≪ 1 regime Theorem 6.2 assumes.
    assert report.median_selectivity < 0.5


def test_heterogeneous_corpus_hand_computed():
    """Three predicates with three different hand-counted σs on one
    six-document corpus."""
    filters = parse_workload(
        {"q0": "/r[common = 'y']", "q1": "/r[rare = 'z']", "q2": "/r[@never = '1']"}
    )
    sample = docs(
        "<r><common>y</common></r>",
        "<r><common>y</common><rare>z</rare></r>",
        "<r><common>y</common></r>",
        "<r><common>n</common></r>",
        "<r/>",
        "<r><common>y</common></r>",
    )
    report = estimate_selectivities(filters, sample)
    by_key = {key[0]: value for key, value in report.per_predicate.items()}
    assert by_key["common"] == pytest.approx(4 / 6)
    assert by_key["rare"] == pytest.approx(1 / 6)
    assert by_key["@never"] == 0.0
    assert report.max_selectivity == pytest.approx(4 / 6)
    assert report.median_selectivity == pytest.approx(1 / 6)


def _doc_strategy():
    """Small documents over a tiny closed vocabulary, so predicates
    drawn from the same vocabulary have non-trivial selectivities."""
    import hypothesis.strategies as st

    leaf = st.sampled_from(["<b>1</b>", "<b>2</b>", "<c>1</c>", "<d/>", ""])
    return st.lists(leaf, min_size=0, max_size=3).map(
        lambda leaves: "<a>" + "".join(leaves) + "</a>"
    )


def test_selectivities_bounded_and_key_stable_on_random_corpora():
    from hypothesis import given, settings
    import hypothesis.strategies as st

    filters = parse_workload(
        {"q0": "/a[b = 1]", "q1": "/a[b = 2 or c = 1]", "q2": "/a[not(d)]"}
    )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_doc_strategy(), min_size=1, max_size=8))
    def check(xmls):
        report = estimate_selectivities(filters, docs(*xmls))
        assert report.documents == len(xmls)
        assert all(0.0 <= value <= 1.0 for value in report.per_predicate.values())
        assert (
            report.median_selectivity
            <= report.max_selectivity
        )
        assert report.mean_selectivity <= report.max_selectivity
        # σ is a per-document frequency: every estimate must be an
        # integer count of satisfying documents over the sample size.
        for value in report.per_predicate.values():
            assert (value * len(xmls)) == pytest.approx(round(value * len(xmls)))

    check()


def test_duplicating_filters_does_not_change_the_report():
    filters = parse_workload({"q": "/a[b = 1]"})
    doubled = parse_workload({"q": "/a[b = 1]", "p": "/a[b = 1]"})
    sample = docs("<a><b>1</b></a>", "<a/>")
    assert (
        estimate_selectivities(filters, sample).per_predicate
        == estimate_selectivities(doubled, sample).per_predicate
    )

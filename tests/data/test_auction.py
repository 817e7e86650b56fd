"""Tests for the auction dataset and full-stack differential on it."""

from repro.afa.build import build_workload_automata
from repro.data import AuctionDataset
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.semantics import matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

import pytest


@pytest.fixture(scope="module")
def auction():
    return AuctionDataset(seed=17)


@pytest.fixture(scope="module")
def auction_docs(auction):
    return list(auction.documents(12))


def test_profile(auction, auction_docs):
    assert auction.dtd.is_recursive()
    for doc in auction_docs:
        auction.dtd.validate(doc)
        assert doc.depth() <= 10
    # The recursion actually recurses in practice.
    assert max(d.depth() for d in auction_docs) >= 7


def test_pools_cover_declared_attributes(auction):
    declared = set(auction.dtd.attribute_labels())
    assert declared <= set(auction.value_pool)


def test_differential_on_auction_data(auction, auction_docs):
    generator = QueryGenerator(
        auction.dtd,
        auction.value_pool,
        GeneratorConfig(
            seed=4, mean_predicates=2.5, prob_descendant=0.25, prob_wildcard=0.1,
            prob_or=0.15, prob_not=0.1, prob_nested=0.15, path_depth_max=5,
        ),
    )
    filters = generator.generate(35)
    workload = build_workload_automata(filters)
    for options in (
        XPushOptions(),
        XPushOptions(top_down=True, order=True, early=True, train=True, precompute_values=False),
    ):
        machine = XPushMachine(workload, options, dtd=auction.dtd)
        for doc in auction_docs:
            assert machine.filter_document(doc) == matching_oids(filters, doc)


def test_deep_recursion_descendant_queries(auction):
    """// through the parlist/listitem recursion."""
    machine = XPushMachine.from_xpath(
        {
            "deep": "//description//text",
            "nest": "//parlist//parlist",
        },
        options=XPushOptions(top_down=True, early=True, precompute_values=False),
    )
    hits = {"deep": 0, "nest": 0}
    for doc in auction.documents(20):
        matched = machine.filter_document(doc)
        for oid in matched:
            hits[oid] += 1
        assert matched == matching_oids(
            __import__("repro.xpath.parser", fromlist=["parse_workload"]).parse_workload(
                {"deep": "//description//text", "nest": "//parlist//parlist"}
            ),
            doc,
        )
    assert hits["deep"] > 0  # the recursion is exercised

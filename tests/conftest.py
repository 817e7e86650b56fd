"""Shared fixtures: the paper's running example, datasets, workloads."""

from __future__ import annotations

import pytest

from repro.data import NasaDataset, ProteinDataset
from repro.xmlstream.dom import parse_document
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.parser import parse_xpath

#: The two filters of Example 1.1 (used throughout the paper).
P1 = "//a[b/text()=1 and .//a[@c>2]]"
P2 = "//a[@c>2 and b/text()=1]"

#: The document of the Fig. 3 execution trace.
RUNNING_DOC = '<a> <b> 1 </b> <a c="3"> <b> 1 </b> </a> </a>'


@pytest.fixture(scope="session")
def running_filters():
    return [parse_xpath(P1, "o1"), parse_xpath(P2, "o2")]


@pytest.fixture(scope="session")
def running_document():
    return parse_document(RUNNING_DOC)


@pytest.fixture(scope="session")
def protein():
    return ProteinDataset(seed=42)


@pytest.fixture(scope="session")
def nasa():
    return NasaDataset(seed=42)


@pytest.fixture(scope="session")
def protein_docs(protein):
    return list(protein.documents(20))


@pytest.fixture(scope="session")
def nasa_docs(nasa):
    return list(nasa.documents(15))


def make_workload(dataset, count, seed=0, **config_kwargs):
    """Helper for tests that need a generated workload."""
    defaults = dict(
        seed=seed,
        mean_predicates=2.5,
        prob_or=0.15,
        prob_not=0.1,
        prob_nested=0.15,
        prob_inequality=0.25,
        prob_descendant=0.1,
        prob_wildcard=0.05,
        path_depth_max=5,
    )
    defaults.update(config_kwargs)
    generator = QueryGenerator(dataset.dtd, dataset.value_pool, GeneratorConfig(**defaults))
    return generator.generate(count)


def dtd_to_text(dtd):
    """Serialise a DTD model back to declaration syntax (round-trips
    through :func:`parse_dtd` up to attribute types)."""
    lines = []
    for decl in dtd.elements.values():
        content = str(decl.content)
        if decl.content.kind == "element":
            content = f"({content})"  # bare names need a group in DTD syntax
        lines.append(f"<!ELEMENT {decl.name} {content}>")
        if decl.attributes:
            attrs = "\n  ".join(
                f"{a.name} CDATA {'#REQUIRED' if a.required else '#IMPLIED'}"
                for a in decl.attributes
            )
            lines.append(f"<!ATTLIST {decl.name}\n  {attrs}>")
    return "\n".join(lines) + "\n"

"""repro — a reproduction of *Stream Processing of XPath Queries with
Predicates* (Gupta & Suciu, SIGMOD 2003): the **XPush Machine**.

The library evaluates large workloads of XPath boolean filters — each
possibly with many predicates — over streams of XML documents, sharing
work across both structure navigation *and* predicate evaluation by
lazily building a single deterministic pushdown automaton.

Quickstart::

    from repro import XPushMachine

    machine = XPushMachine.from_xpath({
        "o1": "//a[b/text()=1 and .//a[@c>2]]",
        "o2": "//a[@c>2 and b/text()=1]",
    })
    for matched in machine.filter_stream(xml_packets):
        print(matched)          # e.g. frozenset({'o1', 'o2'}) per document

Both engines — the in-process XPush engine and the sharded service
over it — conform to one :class:`~repro.engine.protocol.FilterEngine`
protocol and are built from an :class:`~repro.engine.config.EngineConfig`::

    from repro import EngineConfig, create_engine

    engine = create_engine(
        EngineConfig(engine="sharded", shards=4), {"q0": "//a[b = 1]"}
    )
    engine.subscribe("q1", "//c")       # live update, no table flush
    answers = engine.filter_stream(xml_packets)

See DESIGN.md for the system inventory, docs/architecture.md for the
engine surface and EXPERIMENTS.md for the figure-by-figure
reproduction record.
"""

from repro.engine import ENGINES, EngineConfig, FilterEngine, create_engine
from repro.serving import FilterServer, ServerThread, ServingClient
from repro.service import ShardedFilterEngine
from repro.xmlstream.dom import Document, Element, parse_document, parse_forest
from repro.xmlstream.dtd import DTD
from repro.xmlstream.dtdparser import parse_dtd, parse_dtd_file
from repro.xmlstream.parser import iterparse
from repro.xpush.layered import LayeredFilterEngine
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpath.semantics import evaluate_filter, matching_oids
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions, variant_options

__version__ = "1.0.0"

__all__ = [
    "DTD",
    "ENGINES",
    "Document",
    "Element",
    "EngineConfig",
    "FilterEngine",
    "FilterServer",
    "GeneratorConfig",
    "LayeredFilterEngine",
    "QueryGenerator",
    "ServerThread",
    "ServingClient",
    "ShardedFilterEngine",
    "XPushMachine",
    "XPushOptions",
    "create_engine",
    "evaluate_filter",
    "iterparse",
    "matching_oids",
    "parse_document",
    "parse_dtd",
    "parse_dtd_file",
    "parse_forest",
    "parse_workload",
    "parse_xpath",
    "variant_options",
    "__version__",
]

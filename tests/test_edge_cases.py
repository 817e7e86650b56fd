"""Cross-cutting edge cases: unicode, odd values, deep structures."""

import pytest

from repro import EngineConfig, create_engine
from repro.errors import MixedContentError
from repro.xmlstream.dom import parse_document, parse_forest
from repro.xmlstream.writer import document_to_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import evaluate_filter, matching_oids
from repro.xpush.machine import XPushMachine


def check(sources, xml):
    """Machine answers must equal reference answers on this document."""
    filters = [parse_xpath(x, f"q{i}") for i, x in enumerate(sources)]
    machine = XPushMachine.from_filters(filters)
    doc = parse_document(xml)
    assert machine.filter_document(doc) == matching_oids(filters, doc)
    return machine.filter_document(doc)


def test_unicode_labels_and_values():
    got = check(
        ["//café[λ = 'наука']", "//café"],
        "<café><λ>наука</λ></café>",
    )
    assert got == {"q0", "q1"}


def test_unicode_round_trip():
    doc = parse_document("<a t='χ𝄞'>中文 text</a>")
    again = parse_document(document_to_xml(doc))
    assert again.root.text == "中文 text"
    assert again.root.attribute("t") == "χ𝄞"


def test_numeric_value_formats():
    assert check(["/a[b = 10]"], "<a><b>1e1</b></a>") == {"q0"}
    assert check(["/a[b = 0.5]"], "<a><b>.5</b></a>") == {"q0"}
    assert check(["/a[b = -3]"], "<a><b>-3.0</b></a>") == {"q0"}
    assert check(["/a[b > 1000]"], "<a><b>inf</b></a>") == {"q0"}  # float('inf')
    assert check(["/a[b = 1]"], "<a><b>one</b></a>") == frozenset()


@pytest.mark.parametrize("values", [("nan", "0"), ("0", "nan")])
def test_nan_value_does_not_poison_small_numbers(values):
    # nan parses as a number; it must not share t_value's memo entry
    # with the numbers below the least constant, in either order.
    sources = {"lt": "/a[b/text() < 5]", "ne": "/a[b/text() != 3]"}
    engine = create_engine(EngineConfig(engine="xpush"), sources)
    filters = [parse_xpath(source, oid) for oid, source in sources.items()]
    docs = [f"<a><b>{value}</b></a>" for value in values]
    want = {"nan": {"ne"}, "0": {"lt", "ne"}}
    assert [matching_oids(filters, parse_document(doc)) for doc in docs] == [
        want[value] for value in values
    ]
    assert engine.filter_stream("".join(docs)) == [want[value] for value in values]


def test_empty_and_whitespace_values():
    # Whitespace-only text is ignorable; the element has no text event.
    assert check(["/a[b = '']"], "<a><b>  </b></a>") == frozenset()
    assert check(["/a[b]"], "<a><b>  </b></a>") == {"q0"}  # existence still holds


def test_duplicate_sibling_labels():
    got = check(
        ["/a[b = 1 and b = 2]"],
        "<a><b>1</b><b>2</b></a>",
    )
    assert got == {"q0"}  # different b's may witness different conjuncts


def test_same_label_nested():
    got = check(["//a[a[a]]"], "<a><a><a/></a></a>")
    assert got == {"q0"}
    assert check(["//a[a[a]]"], "<a><a/></a>") == frozenset()


def test_attribute_and_element_same_name():
    got = check(
        ["//x[@n = 1]", "//x[n = 1]"],
        '<x n="1"><n>2</n></x>',
    )
    assert got == {"q0"}


def test_very_deep_document():
    depth = 300
    xml = "<a>" * depth + "<leaf>1</leaf>" + "</a>" * depth
    assert check(["//leaf[text() = 1]"], xml) == {"q0"}


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(engine="layered"),
        EngineConfig(engine="sharded", shards=2, parallel=False),
        EngineConfig(engine="xfilter"),
    ],
    ids=lambda config: config.engine,
)
def test_document_past_the_recursion_limit(config):
    """Nesting far past the interpreter's recursion limit: the DOM walks,
    the event lowering and the serialiser are iterative, so
    ``filter_document`` (the sharded one serialises) answers what the
    streaming path answers."""
    depth = 5_000
    xml = "<a>" * depth + '<leaf k="v">1</leaf>' + "</a>" * depth
    (document,) = parse_forest(xml)
    assert (document.depth(), document.size()) == (depth + 1, depth + 1)
    assert document_to_xml(document) == xml
    sources = {"q0": "//leaf[text() = 1]", "q1": "/a/a/leaf", "q2": "//a[leaf/@k = 'v']"}
    engine = create_engine(config, sources)
    try:
        expected = engine.filter_stream(xml)
        assert expected == [frozenset({"q0", "q2"})]
        assert engine.filter_document(document) == expected[0]
    finally:
        engine.close()


def test_wide_document():
    xml = "<a>" + "".join(f"<b>{i}</b>" for i in range(500)) + "</a>"
    assert check(["/a[b = 499]", "/a[b = 500]"], xml) == {"q0"}


def test_mixed_content_raises_consistently():
    machine = XPushMachine.from_xpath({"q": "//a"})
    with pytest.raises(MixedContentError):
        machine.filter_document(parse_document("<a>x<b/>y</a>"))
    # The machine remains usable for the next document.
    assert machine.filter_document(parse_document("<a/>")) == {"q"}


def test_comparison_against_negative_and_zero():
    assert check(["/a[b != 0]"], "<a><b>0</b></a>") == frozenset()
    assert check(["/a[b <= -1]"], "<a><b>-5</b></a>") == {"q0"}


def test_many_predicates_single_step():
    predicates = " and ".join(f"c{i} = {i}" for i in range(12))
    body = "".join(f"<c{i}>{i}</c{i}>" for i in range(12))
    assert check([f"/a[{predicates}]"], f"<a>{body}</a>") == {"q0"}
    body_missing = "".join(f"<c{i}>{i}</c{i}>" for i in range(11))
    assert check([f"/a[{predicates}]"], f"<a>{body_missing}</a>") == frozenset()

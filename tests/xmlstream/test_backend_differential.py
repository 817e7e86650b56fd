"""Differential tests: the python and expat backends must emit
identical event streams and identical filter answers.

Known, deliberate divergences (see docs/tuning.md) are *avoided* here
rather than papered over in assertions: expat applies XML-spec
attribute-value normalization (literal tab/newline become spaces) and
``\\r\\n`` line-ending normalization, so the generated corpora never
contain carriage returns or literal whitespace controls inside
attribute values.
"""

from __future__ import annotations

import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MixedContentError, XMLSyntaxError
from repro.service.engine import ShardedFilterEngine
from repro.xmlstream.parser import expat_events, iterparse, parse_events
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml, stream_to_xml
from repro.xpath.parser import parse_xpath
from repro.xpush.machine import XPushMachine

from tests.conftest import P1, P2, RUNNING_DOC

#: Handcrafted documents covering the fidelity gaps satellite (b) fixes:
#: whitespace-only text suppression, attribute source order, CDATA
#: coalescing, entities, comments, multi-document streams.
CORPUS = [
    RUNNING_DOC,
    "<a/>",
    "<a></a>",
    "<a>  \n\t  </a>",  # ws-only text is suppressed, not emitted
    '<a z="1" a="2" m="3"/>',  # attributes in *source* order, not sorted
    "<a b='x &amp; y &lt;&gt;' c='&#65;&#x42;'/>",
    "<a><b>1</b><b> 1 </b></a>",
    "<a>x<![CDATA[y < z & w]]>t</a>",  # CDATA coalesces into one text node
    "<a><![CDATA[ ]]></a>",  # ws-only even via CDATA stays suppressed
    "<a><![CDATA[]]></a>",
    "<!-- lead --><a><!-- in --><b>1</b></a><!-- trail -->",
    '<?xml version="1.0" encoding="UTF-8"?><a><b>1</b></a>',
    "<!DOCTYPE a [<!ELEMENT a ANY>]><a>1</a>",
    "<a/><b/><c/>",  # multi-document stream, no separators
    "<a>1</a>\n \n<a c='3'>2</a>\n",  # multi-document, ws separators
    "<a>жé中</a>",  # non-ASCII text
    "<élément attré='v'/>",  # non-ASCII names
    "",
    "   \n  ",
    "<!-- only a comment -->",
]


#: Not well-formed, and rejected by both backends.
REJECTED = [
    '<a b="1" b="2"/>',  # duplicate attribute
    '<a x="<"/>',  # '<' in an attribute value
    "<a>]]></a>",  # ']]>' in character data
]


@pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
def test_corpus_event_streams_identical(text):
    assert parse_events(text) == expat_events(text)


@pytest.mark.parametrize("text", REJECTED)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_not_well_formed_rejected_by_both_backends(backend, text):
    with pytest.raises(XMLSyntaxError):
        parse_events(text, backend=backend)


BOM = "\ufeff"


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_leading_byte_order_mark_accepted_by_both_backends(backend):
    # XML 1.0 lets a UTF-8 entity open with a byte-order mark.
    stream = "<r><c>1</c></r><s/>"
    events = parse_events(stream, backend="python")
    encoded = (BOM + stream).encode("utf-8")
    assert parse_events(BOM + stream, backend=backend) == events
    assert parse_events(encoded, backend=backend) == events
    # One byte per read: the mark's three bytes straddle every boundary.
    assert list(iterparse(io.BytesIO(encoded), chunk_size=1, backend=backend)) == events
    machine = XPushMachine.from_xpath({"r": "//r[c = 1]", "s": "/s"})
    answers = [frozenset({"r"}), frozenset({"s"})]
    assert machine.filter_stream(encoded, backend=backend) == answers
    assert machine.filter_stream(io.BytesIO(encoded), backend=backend) == answers
    # The mark travels with the first document, which parses alone.
    slices = split_documents(encoded, backend)
    assert [parse_events(piece, backend=backend) for piece in slices] == [
        events[:7],
        events[7:],
    ]


@pytest.mark.parametrize(
    "text",
    [BOM + BOM + "<r/>", " " + BOM + "<r/>", "<r/>" + BOM + "<s/>", "<!-- c -->" + BOM + "<r/>"],
    ids=["twice", "after-space", "between-documents", "after-comment"],
)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_byte_order_mark_elsewhere_rejected_by_both_backends(backend, text):
    with pytest.raises(XMLSyntaxError):
        parse_events(text, backend=backend)
    with pytest.raises(XMLSyntaxError):
        split_documents(text.encode("utf-8"), backend)


def _dataset_corpus(docs, extra=()):
    texts = [document_to_xml(doc) for doc in docs]
    texts += [document_to_xml(doc, indent=2) for doc in docs[:3]]
    texts.append(stream_to_xml(docs))
    texts.extend(extra)
    return texts


def test_dataset_event_streams_identical(nasa_docs, protein_docs):
    for text in _dataset_corpus(nasa_docs) + _dataset_corpus(protein_docs[:8]):
        assert parse_events(text) == expat_events(text)


# -- filter-answer equivalence ---------------------------------------------


def _answers(filters, text, backend):
    machine = XPushMachine.from_filters(filters)
    return machine.filter_stream(text, backend=backend)


@pytest.fixture(scope="module")
def running_parsed():
    return [parse_xpath(P1, "o1"), parse_xpath(P2, "o2")]


def test_machine_answers_identical_on_corpus(running_parsed):
    for text in CORPUS:
        if not text.strip() or text.lstrip().startswith("<!--"):
            continue
        try:
            py = _answers(running_parsed, text, "python")
        except MixedContentError:
            with pytest.raises(MixedContentError):
                _answers(running_parsed, text, "expat")
            continue
        assert py == _answers(running_parsed, text, "expat"), text


def test_machine_answers_identical_on_datasets(nasa, nasa_docs):
    from tests.conftest import make_workload

    filters = make_workload(nasa, 25)
    stream = stream_to_xml(nasa_docs)
    py = _answers(filters, stream, "python")
    ex = _answers(filters, stream, "expat")
    assert py == ex
    assert len(py) == len(nasa_docs)


def test_mixed_content_rejected_by_both_backends(running_parsed):
    for text in ("<a>x<b/></a>", "<a><b>1</b>tail</a>"):
        for backend in ("python", "expat"):
            machine = XPushMachine.from_filters(running_parsed)
            with pytest.raises(MixedContentError):
                machine.filter_stream(text, backend=backend)


def test_sharded_engine_answers_identical(nasa, nasa_docs):
    from tests.conftest import make_workload

    filters = make_workload(nasa, 12)
    docs = nasa_docs[:6]
    answers = {}
    for backend in ("python", "expat"):
        with ShardedFilterEngine(
            filters, 2, parallel=False, backend=backend
        ) as engine:
            answers[backend] = engine.filter_batch(docs)
    assert answers["python"] == answers["expat"]
    assert len(answers["python"]) == len(docs)


# -- hypothesis: randomly generated documents ------------------------------

_LABELS = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
#: No carriage returns anywhere; no literal tab/newline in attribute
#: values (expat's XML-spec normalizations would diverge there — a
#: documented non-goal).
_TEXT_ALPHABET = string.ascii_letters + string.digits + " <>&\"'._-"
_TEXT = st.text(alphabet=_TEXT_ALPHABET, min_size=1, max_size=12)


@st.composite
def _elements(draw, depth=0):
    label = draw(_LABELS)
    attrs = draw(
        st.lists(st.tuples(_LABELS, _TEXT), max_size=3, unique_by=lambda kv: kv[0])
    )
    if depth >= 2 or draw(st.booleans()):
        children = [draw(_TEXT)] if draw(st.booleans()) else []
    else:
        children = draw(st.lists(_elements(depth=depth + 1), max_size=3))
    return label, attrs, children


def _serialize(node, out):
    from repro.xmlstream.writer import escape_attribute, escape_text

    label, attrs, children = node
    out.append(f"<{label}")
    for name, value in attrs:
        out.append(f' {name}="{escape_attribute(value)}"')
    if not children:
        out.append("/>")
        return
    out.append(">")
    for child in children:
        if isinstance(child, str):
            out.append(escape_text(child))
        else:
            _serialize(child, out)
    out.append(f"</{label}>")


@st.composite
def _documents(draw):
    out = []
    for node in draw(st.lists(_elements(), min_size=1, max_size=3)):
        _serialize(node, out)
        out.append(draw(st.sampled_from(["", " ", "\n"])))
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(_documents())
def test_hypothesis_event_streams_identical(text):
    assert parse_events(text) == expat_events(text)


@settings(max_examples=25, deadline=None)
@given(_documents())
def test_hypothesis_filter_answers_identical(text):
    filters = [parse_xpath("//*[@*]", "o1"), parse_xpath("//a", "o2")]
    try:
        py = _answers(filters, text, "python")
    except MixedContentError:
        with pytest.raises(MixedContentError):
            _answers(filters, text, "expat")
        return
    assert py == _answers(filters, text, "expat")

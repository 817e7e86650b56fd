"""Differential tests: the expat scanner must emit the event streams,
and give the filter answers, of the pure-Python oracle scanner
(``tests/scanner_oracle.py``; the walls' id ``"python"``).

Known divergences are *avoided* here rather than papered over in
assertions: expat applies XML-spec attribute-value normalization
(literal tab/newline become spaces) and ``\\r\\n`` line-ending
normalization, which the oracle does not, so the generated corpora
never contain carriage returns or literal whitespace controls inside
attribute values (``test_push_parser.py`` pins expat's side).
"""

from __future__ import annotations

import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MixedContentError, XMLSyntaxError
from repro.service.engine import ShardedFilterEngine
from repro.xmlstream.parser import iterparse, parse_events
from repro.xmlstream.split import split_documents
from repro.xmlstream.writer import document_to_xml, stream_to_xml
from repro.xpath.parser import parse_xpath
from repro.xpush.machine import XPushMachine

from tests.conftest import P1, P2, RUNNING_DOC
from tests.scanner_oracle import oracle_events, scanning

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


#: Not well-formed, and rejected by both scanners.
REJECTED = [
    '<a b="1" b="2"/>',  # duplicate attribute
    '<a x="<"/>',  # '<' in an attribute value
    "<a>]]></a>",  # ']]>' in character data
]


@pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
def test_corpus_event_streams_identical(text):
    assert parse_events(text) == oracle_events(text)


@pytest.mark.parametrize("text", REJECTED)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_not_well_formed_rejected_by_both_backends(backend, text):
    with scanning(backend), pytest.raises(XMLSyntaxError):
        parse_events(text)


BOM = "\ufeff"


@pytest.mark.parametrize("backend", ["python", "expat"])
def test_leading_byte_order_mark_accepted_by_both_backends(backend):
    # XML 1.0 lets a UTF-8 entity open with a byte-order mark.
    stream = "<r><c>1</c></r><s/>"
    events = oracle_events(stream)
    encoded = (BOM + stream).encode("utf-8")
    machine = XPushMachine.from_xpath({"r": "//r[c = 1]", "s": "/s"})
    answers = [frozenset({"r"}), frozenset({"s"})]
    # The mark travels with the first document, which parses alone.
    slices = split_documents(encoded)
    with scanning(backend):
        assert parse_events(BOM + stream) == events
        assert parse_events(encoded) == events
        # One byte per read: the mark's three bytes straddle every boundary.
        assert list(iterparse(io.BytesIO(encoded), chunk_size=1)) == events
        assert machine.filter_stream(encoded) == answers
        assert machine.filter_stream(io.BytesIO(encoded)) == answers
        assert [parse_events(piece) for piece in slices] == [events[:7], events[7:]]


@pytest.mark.parametrize(
    "text",
    [BOM + BOM + "<r/>", " " + BOM + "<r/>", "<r/>" + BOM + "<s/>", "<!-- c -->" + BOM + "<r/>"],
    ids=["twice", "after-space", "between-documents", "after-comment"],
)
@pytest.mark.parametrize("backend", ["python", "expat"])
def test_byte_order_mark_elsewhere_rejected_by_both_backends(backend, text):
    with scanning(backend), pytest.raises(XMLSyntaxError):
        parse_events(text)
    with pytest.raises(XMLSyntaxError):
        split_documents(text.encode("utf-8"))


def _dataset_corpus(docs, extra=()):
    texts = [document_to_xml(doc) for doc in docs]
    texts += [document_to_xml(doc, indent=2) for doc in docs[:3]]
    texts.append(stream_to_xml(docs))
    texts.extend(extra)
    return texts


def test_dataset_event_streams_identical(nasa_docs, protein_docs):
    for text in _dataset_corpus(nasa_docs) + _dataset_corpus(protein_docs[:8]):
        assert parse_events(text) == oracle_events(text)


# -- filter-answer equivalence ---------------------------------------------


def _answers(filters, text, backend):
    machine = XPushMachine.from_filters(filters)
    with scanning(backend):
        return machine.filter_stream(text)


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
            with scanning(backend), pytest.raises(MixedContentError):
                machine.filter_stream(text)


def test_sharded_engine_answers_identical(nasa, nasa_docs):
    from tests.conftest import make_workload

    filters = make_workload(nasa, 12)
    docs = nasa_docs[:6]
    answers = {}
    for backend in ("python", "expat"):
        with scanning(backend), ShardedFilterEngine(filters, 2, parallel=False) as engine:
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
    assert parse_events(text) == oracle_events(text)


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

"""``split_documents``: cutting a source changes nothing but its shape.

The law: parsing the slices one by one yields the event stream of
parsing the whole source, every slice holds exactly one document, the
slices are verbatim bytes of the source, and a source the scanner
rejects is rejected with the same error.  Each law is checked on expat
and again on the oracle scanner (``tests/scanner_oracle.py``, id
``"python"``): the cuts expat finds must hold for an independent parser
too, and a source either scanner rejects must be refused.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlstream import split_documents
from repro.xmlstream.events import EndDocument
from repro.xmlstream.parser import parse_events
from repro.xmlstream.writer import document_to_xml

from tests.scanner_oracle import ORACLE, scanning
from tests.xmlstream.test_backend_differential import CORPUS

SCANNERS = ["expat", ORACLE]

MALFORMED = [
    "<a>x</a><a>y",
    "<a/><b>",
    "<a></b>",
    "<a/>stray<b/>",
    "<a>&nope;</a>",
    "<a/><",
    "<a b=1/>",
]


def _assert_cut_law(text: str, backend: str) -> list[bytes]:
    slices = split_documents(text)
    with scanning(backend):
        whole = parse_events(text)
        pieces = [parse_events(piece) for piece in slices]
    assert [event for piece in pieces for event in piece] == whole
    assert all(sum(isinstance(e, EndDocument) for e in piece) == 1 for piece in pieces)
    # Verbatim and in order: the slices tile a prefix of the source.
    data = text.encode("utf-8")
    assert data.startswith(b"".join(slices))
    return slices


@pytest.mark.parametrize("backend", SCANNERS)
@pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
def test_corpus_slices_parse_like_the_whole(text, backend):
    _assert_cut_law(text, backend)


@pytest.mark.parametrize("backend", SCANNERS)
def test_concatenated_corpus(backend):
    # One source holding every well-formed corpus entry back to back;
    # declarations and DOCTYPEs land between documents.
    slices = _assert_cut_law("\n".join(CORPUS), backend)
    assert len(slices) > len(CORPUS) // 2


@pytest.mark.parametrize("backend", SCANNERS)
def test_byte_offsets_are_not_character_offsets(backend):
    text = "<a>é😀</a>\n<b x='ü'>ß</b> <c/>"
    slices = _assert_cut_law(text, backend)
    assert [piece.decode("utf-8").strip() for piece in slices] == [
        "<a>é😀</a>",
        "<b x='ü'>ß</b>",
        "<c/>",
    ]


@pytest.mark.parametrize("backend", SCANNERS)
def test_source_kinds_agree(backend):
    text = "<a>é</a><!-- c --><b/>\n"
    expected = split_documents(text)
    assert len(expected) == 2
    assert split_documents(text.encode("utf-8")) == expected
    assert split_documents(io.StringIO(text)) == expected
    assert split_documents(io.BytesIO(text.encode("utf-8"))) == expected
    with scanning(backend):
        assert [parse_events(piece) for piece in expected] == [
            parse_events("<a>é</a>"),
            parse_events("<b/>"),
        ]


@pytest.mark.parametrize("backend", SCANNERS)
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_source_raises_the_scanners_error(text, backend):
    with scanning(backend), pytest.raises(XMLSyntaxError) as reference:
        parse_events(text)
    with pytest.raises(XMLSyntaxError) as raised:
        split_documents(text)
    if backend != ORACLE:  # the oracle words its errors its own way
        assert str(raised.value) == str(reference.value)


def test_expat_split_feeds_in_blocks():
    """Documents longer than a block, and cuts that fall anywhere in
    one, come out the same."""
    from repro.xmlstream.split import _split_expat

    text = "<a>" + "<b>xyz</b>" * 40 + "</a><c/>" + "<d>é</d>" * 5
    expected = split_documents(text)
    assert len(expected) == 7
    for block in (1, 2, 3, 7, 64):
        assert _split_expat(text.encode("utf-8"), block) == expected


_SEPARATORS = st.sampled_from(
    ["", " ", "\n\t", "<!-- <x> -->", "<?pi data?>", "\n<!-- é -->\n", "<!DOCTYPE d>"]
)


@given(picks=st.lists(st.tuples(st.integers(0, 19), _SEPARATORS), max_size=8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_documents_with_separators(protein_docs, picks, data):
    backend = data.draw(st.sampled_from(SCANNERS))
    texts = [document_to_xml(protein_docs[index]) for index, _ in picks]
    source = "".join(text + separator for text, (_, separator) in zip(texts, picks))
    slices = _assert_cut_law(source, backend)
    assert len(slices) == len(texts)
    for piece, text in zip(slices, texts):
        assert text in piece.decode("utf-8")

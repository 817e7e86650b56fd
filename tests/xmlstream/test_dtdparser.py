"""Tests for the DTD text parser."""

import pytest

from repro.errors import DTDError
from repro.xmlstream.dtd import DTD
from repro.xmlstream.dtdparser import parse_dtd
from tests.conftest import dtd_to_text
from repro.xmlstream.dom import parse_document

PERSON_DTD = """
<!-- a small person database -->
<!ELEMENT people (person*)>
<!ELEMENT person (name, age?, phone*)>
<!ATTLIST person id CDATA #REQUIRED
                 note CDATA #IMPLIED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT age (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
"""


def test_parse_basic():
    dtd = parse_dtd(PERSON_DTD)
    assert dtd.root == "people"
    assert set(dtd.elements) == {"people", "person", "name", "age", "phone"}
    person = dtd.elements["person"]
    assert [a.name for a in person.attributes] == ["id", "note"]
    assert person.attributes[0].required
    assert not person.attributes[1].required


def test_parsed_dtd_validates_documents():
    dtd = parse_dtd(PERSON_DTD)
    dtd.validate(
        parse_document('<people><person id="1"><name>x</name></person></people>')
    )
    with pytest.raises(DTDError):
        dtd.validate(parse_document('<people><person id="1"><age>9</age></person></people>'))


def test_choice_and_nesting():
    dtd = parse_dtd(
        """
        <!ELEMENT r ((a | b)+, c?)>
        <!ELEMENT a EMPTY>
        <!ELEMENT b (#PCDATA)>
        <!ELEMENT c (#PCDATA)>
        """
    )
    dtd.validate(parse_document("<r><a/><b>x</b><c>y</c></r>"))
    dtd.validate(parse_document("<r><b>x</b></r>"))
    with pytest.raises(DTDError):
        dtd.validate(parse_document("<r><c>y</c></r>"))  # needs (a|b)+


def test_enumerated_attribute_types_and_defaults():
    dtd = parse_dtd(
        """
        <!ELEMENT x EMPTY>
        <!ATTLIST x kind (red | green) "red"
                    id ID #REQUIRED
                    fixed CDATA #FIXED "v">
        """
    )
    names = [a.name for a in dtd.elements["x"].attributes]
    assert names == ["kind", "id", "fixed"]
    assert dtd.elements["x"].attributes[1].required


def test_explicit_root_override():
    dtd = parse_dtd(PERSON_DTD, root="person")
    assert dtd.root == "person"


def test_errors():
    with pytest.raises(DTDError):
        parse_dtd("")
    with pytest.raises(DTDError):
        parse_dtd("<!ELEMENT a ANY>")
    with pytest.raises(DTDError):
        parse_dtd("<!ELEMENT a (#PCDATA | b)*>")  # mixed content
    with pytest.raises(DTDError):
        parse_dtd("<!ELEMENT a (b, c | d)>")  # mixed separators
    with pytest.raises(DTDError):
        parse_dtd("<!ATTLIST ghost a CDATA #IMPLIED>")
    with pytest.raises(DTDError):
        parse_dtd("<!ELEMENT a (b)>")  # b undeclared
    with pytest.raises(DTDError):
        parse_dtd("<!ELEMENT a (#PCDATA)> <!ELEMENT a EMPTY>")
    with pytest.raises(DTDError):
        parse_dtd("bogus prose")


def test_round_trip_through_text():
    from repro.data.dtds import protein_dtd, nasa_dtd

    import random

    for original in (protein_dtd(), nasa_dtd()):
        text = dtd_to_text(original)
        reparsed = parse_dtd(text, root=original.root)
        assert set(reparsed.elements) == set(original.elements)
        assert reparsed.sibling_order() == original.sibling_order()
        assert reparsed.is_recursive() == original.is_recursive()
        for name, decl in original.elements.items():
            assert reparsed.elements[name].content.labels() == decl.content.labels()
        # Behavioural equivalence: documents generated from the original
        # validate against the reparsed DTD.
        rng = random.Random(0)
        for _ in range(5):
            doc = original.generate(rng, lambda label, r: "1", max_depth=8)
            reparsed.validate(doc)


def test_comments_and_pis_skipped():
    dtd = parse_dtd("<?xml-stylesheet x?><!-- c --><!ELEMENT a EMPTY><!-- d -->")
    assert dtd.root == "a"

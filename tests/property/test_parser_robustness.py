"""Fuzz the streaming XML parser: on arbitrary input it must either
produce a well-formed event stream or raise XMLSyntaxError — never any
other exception, never a malformed event sequence.  Each input goes to
expat and to the oracle scanner (``tests/scanner_oracle.py``) alike."""

import string

from hypothesis import given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import parse_events

from tests.scanner_oracle import oracle_events

# Bias toward markup-looking noise so interesting paths are hit.
noise = st.text(
    alphabet=string.ascii_letters + "<>/=\"'& \n\t![]-?;#" + "0123456789",
    max_size=80,
)

fragments = st.lists(
    st.sampled_from(
        [
            "<a>",
            "</a>",
            "<b c='1'>",
            "<x/>",
            "text",
            "<!-- c -->",
            "<![CDATA[z]]>",
            "&amp;",
            "&#65;",
            "<?pi?>",
            "< a>",
            "<a b=>",
            "</>",
            "&bad;",
        ]
    ),
    max_size=12,
).map("".join)


def check_stream_shape(events):
    """A produced event stream must be properly balanced."""
    depth = 0
    in_document = False
    stack = []
    for event in events:
        kind = type(event)
        if kind is StartDocument:
            assert not in_document
            in_document = True
        elif kind is EndDocument:
            assert in_document and depth == 0
            in_document = False
        elif kind is StartElement:
            assert in_document
            stack.append(event.label)
            depth += 1
        elif kind is EndElement:
            assert stack and stack[-1] == event.label
            stack.pop()
            depth -= 1
        elif kind is Text:
            assert in_document and depth > 0
    assert depth == 0 and not in_document


def check_both_scanners(text):
    """Each scanner refuses *text* or parses it into a balanced stream."""
    for parse in (parse_events, oracle_events):
        try:
            events = parse(text)
        except XMLSyntaxError:
            continue
        check_stream_shape(events)


@given(noise)
@settings(max_examples=400, deadline=None)
def test_noise_never_crashes(text):
    check_both_scanners(text)


@given(fragments)
@settings(max_examples=400, deadline=None)
def test_fragment_soup_never_crashes(text):
    check_both_scanners(text)


@given(noise)
@settings(max_examples=200, deadline=None)
def test_machine_survives_arbitrary_parse_results(text):
    """Feeding whatever the parser yields into the machine raises only
    library errors (mixed content), never internal failures."""
    from repro.errors import ReproError
    from repro.xpush.machine import XPushMachine

    try:
        events = parse_events(text)
    except XMLSyntaxError:
        return
    machine = XPushMachine.from_xpath({"q": "//a[b = 1]"})
    try:
        machine.process_events(events)
    except ReproError:
        pass

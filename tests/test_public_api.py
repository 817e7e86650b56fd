"""Smoke tests for the public API surface and reprs."""

import importlib

import repro


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_subpackage_all_resolves():
    for module_name in (
        "repro.xmlstream",
        "repro.xpath",
        "repro.afa",
        "repro.xpush",
        "repro.baselines",
        "repro.data",
        "repro.theory",
        "repro.bench",
    ):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"


def test_xmlstream_exports_no_scanner_choice():
    import repro.xmlstream

    gone = {"BACKENDS", "PushScanner", "make_scanner", "resolve_backend"}
    assert not gone & set(repro.xmlstream.__all__)
    assert not any(hasattr(repro.xmlstream, name) for name in gone)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_reprs_are_informative(running_filters, running_document):
    from repro.afa.build import build_workload_automata
    from repro.xpush.machine import XPushMachine

    workload = build_workload_automata(running_filters)
    assert "AFA(oid='o1'" in repr(workload.afas[0])
    assert "OR" in repr(workload.states[0])
    assert "workload: 2 AFAs, 13 states" in workload.describe()

    machine = XPushMachine(workload)
    machine.filter_document(running_document)
    state = machine.store.bottom_states()[-1]
    assert repr(state).startswith("<Qb#")
    top = machine.qt0
    assert "Qt#" in repr(top)


def test_error_hierarchy():
    from repro.errors import (
        DTDError,
        EventStreamError,
        MixedContentError,
        ReproError,
        WorkloadError,
        XMLSyntaxError,
        XPathSyntaxError,
    )

    for error in (
        DTDError,
        EventStreamError,
        MixedContentError,
        WorkloadError,
        XMLSyntaxError,
        XPathSyntaxError,
    ):
        assert issubclass(error, ReproError)


def test_xpath_syntax_error_carries_position():
    import pytest

    from repro.errors import XPathSyntaxError
    from repro.xpath.parser import parse_xpath

    with pytest.raises(XPathSyntaxError) as excinfo:
        parse_xpath("/a[b = ]")
    assert excinfo.value.position is not None
    assert ">>>" in str(excinfo.value)


def test_xml_syntax_error_carries_line():
    import pytest

    from repro.errors import XMLSyntaxError
    from repro.xmlstream.parser import parse_events

    with pytest.raises(XMLSyntaxError) as excinfo:
        parse_events("<a>\n<b>\n</wrong>")
    assert "line 3" in str(excinfo.value)

"""Tests for workload file I/O."""

import io

import pytest

from repro.errors import WorkloadError
from repro.xpath.parser import parse_workload
from repro.xpath.workload_io import (
    dump_workload,
    iter_workload_lines,
    load_workload,
)


def test_iter_workload_lines():
    pairs = list(
        iter_workload_lines(
            ["# comment", "", "a\t//x", "  //y  ", "b\t /z[k = 1] "]
        )
    )
    assert pairs == [("a", "//x"), (None, "//y"), ("b", "/z[k = 1]")]


def test_load_from_text():
    filters = load_workload("a\t//x\n//y\n")
    assert [f.oid for f in filters] == ["a", "q0"]
    assert filters[1].source == "//y"


def test_load_from_file_object():
    filters = load_workload(io.StringIO("p\t//x[y = 1]\n"))
    assert filters[0].oid == "p"


def test_load_from_path(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("one\t//x\ntwo\t//y\n")
    filters = load_workload(str(path))
    assert [f.oid for f in filters] == ["one", "two"]


def test_round_trip():
    filters = parse_workload({"a": "//x[y = 1 and not(z)]", "b": "/p/q"})
    again = load_workload(dump_workload(filters))
    assert [(f.oid, str(f.path)) for f in again] == [
        (f.oid, str(f.path)) for f in filters
    ]


def test_save_and_load(tmp_path):
    filters = parse_workload({"a": "//x"})
    path = tmp_path / "out.txt"
    path.write_text(dump_workload(filters), encoding="utf-8")
    assert [f.oid for f in load_workload(str(path))] == ["a"]


def test_duplicate_oids_rejected():
    with pytest.raises(WorkloadError):
        load_workload("a\t//x\na\t//y\n")


def test_empty_rejected():
    with pytest.raises(WorkloadError):
        load_workload("# only comments\n\n")

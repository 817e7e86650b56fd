"""Tests for file-based parsing entry points."""

from repro.xmlstream.parser import count_bytes, iterparse, parse_events


def test_iterparse_path(tmp_path):
    path = tmp_path / "stream.xml"
    text = "<a><b>1</b></a><c/>"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        assert list(iterparse(handle)) == parse_events(text)


def test_iterparse_path_small_chunks(tmp_path):
    path = tmp_path / "stream.xml"
    text = "<root>" + "<x>val</x>" * 50 + "</root>"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        assert list(iterparse(handle, chunk_size=3)) == parse_events(text)


def test_count_bytes_utf8():
    assert count_bytes("abc") == 3
    assert count_bytes("é") == 2
    assert count_bytes("中") == 3

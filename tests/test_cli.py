"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from tests.conftest import dtd_to_text


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        "# a comment\n"
        "alpha\t//a[b = 1]\n"
        "\n"
        "//c\n"  # bare line gets oid q1
    )
    return str(path)


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.xml"
    path.write_text("<a><b>1</b></a><c/><a><b>2</b></a>")
    return str(path)


def test_filter_command(query_file, stream_file, capsys):
    assert main(["filter", "--queries", query_file, "--input", stream_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "0\talpha"
    assert out[1] == "1\tq0"  # bare lines are numbered q0, q1, … separately
    assert out[2] == "2\t-"


def test_filter_sharded_matches_serial(query_file, stream_file, capsys):
    assert main(["filter", "--queries", query_file, "--input", stream_file]) == 0
    serial = capsys.readouterr().out
    assert (
        main(
            ["filter", "--queries", query_file, "--input", stream_file,
             "--shards", "3"]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert captured.out == serial
    assert "3 shards" in captured.err


def test_sharded_filter_footer_reports_the_hit_ratio(query_file, stream_file, capsys):
    assert (
        main(["filter", "--queries", query_file, "--input", stream_file, "--shards", "2"])
        == 0
    )
    footer = capsys.readouterr().err
    assert "2 shards" in footer
    assert re.search(r"hit ratio \d+\.\d%", footer)


def test_filter_rejects_bad_shard_count(query_file, stream_file, capsys):
    assert (
        main(["filter", "--queries", query_file, "--input", stream_file, "--shards", "0"])
        == 2
    )
    assert "--shards" in capsys.readouterr().err


def test_filter_with_order_variant_requires_dtd(query_file, stream_file, capsys):
    code = main(
        ["filter", "--queries", query_file, "--input", stream_file, "--variant", "TD-order"]
    )
    assert code == 2
    assert "needs --dtd" in capsys.readouterr().err


def test_filter_with_dtd(tmp_path, stream_file, capsys):
    from repro.data.dtds import protein_dtd

    queries = tmp_path / "q.txt"
    queries.write_text("p\t//refinfo[year = 1999]\n")
    dtd_path = tmp_path / "protein.dtd"
    dtd_path.write_text(dtd_to_text(protein_dtd()))
    data = tmp_path / "d.xml"
    data.write_text("<reference><refinfo refid='1'><year>1999</year></refinfo></reference>")
    code = main(
        [
            "filter",
            "--queries",
            str(queries),
            "--input",
            str(data),
            "--variant",
            "TD-order-train",
            "--dtd",
            str(dtd_path),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0\tp"


def test_empty_query_file_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["filter", "--queries", str(empty), "--input", "-"]) == 2
    assert "no filters" in capsys.readouterr().err


def test_generate_data_roundtrip(tmp_path, capsys):
    out = tmp_path / "data.xml"
    assert main(
        ["generate-data", "--dataset", "nasa", "--documents", "3", "--out", str(out)]
    ) == 0
    from repro.xmlstream.dom import parse_forest

    assert len(parse_forest(out.read_text())) == 3


def test_generate_data_bytes_target(capsys):
    assert main(["generate-data", "--bytes", "5000"]) == 0
    text = capsys.readouterr().out
    assert len(text.encode()) >= 5000


def test_generate_queries_parse_back(tmp_path):
    out = tmp_path / "queries.txt"
    assert main(
        [
            "generate-queries",
            "--count",
            "12",
            "--mean-predicates",
            "2.0",
            "--out",
            str(out),
        ]
    ) == 0
    from repro.xpath.parser import parse_xpath
    from repro.xpath.workload_io import load_workload

    lines = out.read_text().strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        oid, _, xpath = line.partition("\t")
        parse_xpath(xpath, oid)
    assert [f.oid for f in load_workload(str(out))] == [f"q{i}" for i in range(12)]


def test_generated_queries_feed_filter(tmp_path, capsys):
    queries = tmp_path / "q.txt"
    data = tmp_path / "d.xml"
    assert main(["generate-queries", "--count", "25", "--out", str(queries)]) == 0
    assert main(["generate-data", "--documents", "5", "--out", str(data)]) == 0
    assert main(["filter", "--queries", str(queries), "--input", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5


def test_inspect(capsys):
    assert main(["inspect", "//a[b/text()=1 and .//a[@c>2]]", "-v"]) == 0
    out = capsys.readouterr().out
    assert "AFA states  : 7" in out
    assert "atomic preds: 2" in out
    assert "notification" in out
    assert "--ε-->" in out


def test_filter_requires_exactly_one_source(query_file, stream_file, capsys):
    assert main(["filter", "--input", stream_file]) == 2
    assert "requires" in capsys.readouterr().err
    assert (
        main(
            [
                "filter",
                "--queries",
                query_file,
                "--state",
                "x.json",
                "--input",
                stream_file,
            ]
        )
        == 2
    )


def test_analyze(tmp_path, capsys):
    queries = tmp_path / "q.txt"
    queries.write_text(
        "a\t//x[k = 1 and m = 2]\n"
        "b\t//x[m = 2 and k = 1]\n"
        "c\t//y[k = 1]\n"
    )
    assert main(["analyze", "--queries", str(queries), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "duplicate filters: 1" in out
    assert "most shared atomic predicates:" in out
    assert "k" in out
    # The regularity the word-parallel pop path depends on: both ANDs
    # sit the same two offsets from their children, every edge one off.
    assert "AFA states: 15" in out
    assert "eval lanes per ε-rank: 2 (a state takes the word-parallel path from 1 candidate bits)" in out
    assert "δ⁻¹ lanes per label: mean 1.0, max 1 over 5 labels" in out


def test_bench_smoke(capsys):
    assert main(
        ["bench", "--queries", "30", "--bytes", "8000", "--variant", "basic"]
    ) == 0
    out = capsys.readouterr().out
    assert "cold:" in out and "warm:" in out and "hit_ratio" in out


def test_sharded_bench_times_the_stream_path(capsys, monkeypatch):
    """``bench --shards`` times ``filter_stream``, as ``filter`` and
    ``serve`` run it, not the DOM path of ``filter_batch``."""
    from repro.service.engine import ShardedFilterEngine

    def refused(self, documents):
        raise AssertionError("bench timed filter_batch")

    monkeypatch.setattr(ShardedFilterEngine, "filter_batch", refused)
    assert main(["bench", "--queries", "20", "--bytes", "6000", "--shards", "2"]) == 0
    assert "sharded(2x" in capsys.readouterr().out


# -- the update control plane: subscribe / unsubscribe / compact ---------


def test_subscribe_filter_unsubscribe_roundtrip(tmp_path, stream_file, capsys):
    state = str(tmp_path / "engine.json")
    assert main(["subscribe", "--state", state, "--oid", "s0",
                 "--xpath", "//a[b = 1]"]) == 0
    assert main(["subscribe", "--state", state, "--oid", "s1",
                 "--xpath", "//c"]) == 0
    capsys.readouterr()

    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0\ts0", "1\ts1", "2\t-"]

    assert main(["unsubscribe", "--state", state, "--oid", "s0"]) == 0
    captured = capsys.readouterr()
    assert "1 filters" in captured.err
    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0\t-", "1\ts1", "2\t-"]


def test_compact_preserves_answers(tmp_path, stream_file, capsys):
    state = str(tmp_path / "engine.json")
    for oid, xpath in (("s0", "//a[b = 1]"), ("s1", "//c"), ("s2", "//zzz")):
        assert main(["subscribe", "--state", state, "--oid", oid,
                     "--xpath", xpath]) == 0
    assert main(["unsubscribe", "--state", state, "--oid", "s2"]) == 0
    capsys.readouterr()
    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    before = capsys.readouterr().out
    assert main(["compact", "--state", state]) == 0
    assert "2 filters" in capsys.readouterr().err
    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    assert capsys.readouterr().out == before


def test_subscribe_sharded_state(tmp_path, stream_file, capsys):
    state = str(tmp_path / "engine.json")
    assert main(["subscribe", "--state", state, "--engine", "sharded",
                 "--oid", "s0", "--xpath", "//a[b = 1]"]) == 0
    assert main(["subscribe", "--state", state, "--oid", "s1",
                 "--xpath", "//c"]) == 0
    capsys.readouterr()
    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0\ts0", "1\ts1", "2\t-"]


def test_subscribe_errors(tmp_path, capsys):
    state = str(tmp_path / "engine.json")
    assert main(["subscribe", "--state", state, "--oid", "s0",
                 "--xpath", "//a"]) == 0
    capsys.readouterr()
    # duplicate oid
    assert main(["subscribe", "--state", state, "--oid", "s0",
                 "--xpath", "//b"]) == 2
    assert "s0" in capsys.readouterr().err
    # invalid xpath never touches the state file
    before = open(state).read()
    assert main(["subscribe", "--state", state, "--oid", "s1",
                 "--xpath", "//a[("]) == 2
    capsys.readouterr()
    assert open(state).read() == before
    # unknown oid on unsubscribe
    assert main(["unsubscribe", "--state", state, "--oid", "ghost"]) == 2
    assert "ghost" in capsys.readouterr().err


@pytest.fixture
def spied_engines(monkeypatch):
    """Every engine the CLI builds, in order."""
    import repro.cli as cli

    built = []
    real = cli.create_engine

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "create_engine", spy)
    return built


def test_filter_state_honours_the_engine_flags(tmp_path, stream_file, capsys, spied_engines):
    """The state file holds the workload, the flags the configuration —
    as with ``--queries``."""
    state = str(tmp_path / "engine.json")
    for oid, xpath in (("s0", "//a[b = 1]"), ("s1", "//c")):
        assert main(["subscribe", "--state", state, "--oid", oid, "--xpath", xpath]) == 0
    capsys.readouterr()
    spied_engines.clear()
    assert main(["filter", "--state", state, "--input", stream_file,
                 "--max-memory", "1K", "--variant", "TD-train", "--early"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == ["0\ts0", "1\ts1", "2\t-"]
    assert int(re.search(r"(\d+) evictions", captured.err).group(1)) > 0
    (engine,) = spied_engines
    options = engine.options
    assert (options.runtime, options.max_memory_bytes) == ("bitmask", 1024)
    assert options.top_down and options.train and options.early
    # bitmask is the one kernel, expat the one scanner, and the stream
    # is dealt out per call: none of them is a flag.
    for flag, value in (("--runtime", "bitmask"), ("--backend", "expat"), ("--batch-size", "2")):
        with pytest.raises(SystemExit) as refused:
            main(["filter", "--state", state, "--input", stream_file, flag, value])
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_serve_state_honours_the_engine_flags(tmp_path, capsys, monkeypatch):
    import repro.serving

    state = str(tmp_path / "engine.json")
    assert main(["subscribe", "--state", state, "--oid", "s0", "--xpath", "//a"]) == 0
    served = {}

    class _Server:
        host, port = "127.0.0.1", 0

        def __init__(self, engine=None, **kwargs):
            served.update(early=engine.options.early)

        async def start(self):
            pass

        async def stop(self):
            pass

        def stats_nowait(self):
            return dict(publishes=0, published_docs=0, deliveries=0, epoch=0)

    monkeypatch.setattr(repro.serving, "FilterServer", _Server)
    assert main(["serve", "--state", state, "--early", "--duration", "0.01"]) == 0
    assert served == {"early": True}


@pytest.mark.parametrize("written, asked", [("xpush", "layered"), ("layered", "xpush")])
def test_state_files_load_under_either_name_of_the_xpush_engine(
    written, asked, tmp_path, stream_file, capsys
):
    """A state file written under either name of the XPush engine loads
    as the layered engine: the sources file the serial ``xpush`` engine
    used to write takes updates under ``layered``. ``xpush`` is no longer
    an engine the CLI names: asking for it is refused, file untouched."""
    import json

    state = str(tmp_path / "engine.json")
    if written == "xpush":
        with open(state, "w", encoding="utf-8") as handle:
            json.dump({"format": "repro-engine-workload", "version": 1, "engine": "xpush",
                       "filters": {"s0": "//a[b = 1]"}, "runtime": "bitmask"}, handle)
    else:
        assert main(["subscribe", "--state", state, "--engine", written,
                     "--oid", "s0", "--xpath", "//a[b = 1]"]) == 0
    if asked == "xpush":
        before = open(state).read()
        with pytest.raises(SystemExit) as refused:
            main(["subscribe", "--state", state, "--engine", asked,
                  "--oid", "s1", "--xpath", "//c"])
        assert refused.value.code == 2 and "invalid choice: 'xpush'" in capsys.readouterr().err
        assert open(state).read() == before
    assert main(["subscribe", "--state", state, "--engine", "layered",
                 "--oid", "s1", "--xpath", "//c"]) == 0
    capsys.readouterr()
    assert main(["filter", "--state", state, "--input", stream_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == ["0\ts0", "1\ts1", "2\t-"]
    assert "engine=layered" in captured.err
    assert json.load(open(state))["format"] == "repro-layered-engine"
    # ... and is still not a sharded one.
    assert main(["subscribe", "--state", state, "--engine", "sharded",
                 "--oid", "s2", "--xpath", "//d"]) == 2
    assert "'layered' engine, not 'sharded'" in capsys.readouterr().err


def test_a_baseline_sources_file_loads_as_the_layered_engine(tmp_path, stream_file, capsys):
    """The rebuild-on-change engines wrote their workload in the
    ``repro-engine-workload`` format under their own name; the file
    loads as the layered engine, whose ``restore`` reads the format,
    and answers as its filters say."""
    import json

    legacy = str(tmp_path / "naive.json")
    with open(legacy, "w", encoding="utf-8") as handle:
        json.dump({"format": "repro-engine-workload", "version": 1, "engine": "naive",
                   "filters": {"s0": "//a[b = 1]", "s1": "//c"}}, handle)
    assert main(["filter", "--state", legacy, "--input", stream_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == ["0\ts0", "1\ts1", "2\t-"]
    assert "engine=layered" in captured.err


def test_filter_rejects_multiple_workload_sources(query_file, tmp_path, capsys):
    state = str(tmp_path / "engine.json")
    assert main(["subscribe", "--state", state, "--oid", "s0",
                 "--xpath", "//a"]) == 0
    capsys.readouterr()
    assert main(["filter", "--queries", query_file, "--state", state,
                 "--input", "-"]) == 2
    assert "exactly one" in capsys.readouterr().err

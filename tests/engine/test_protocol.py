"""Conformance wall for the unified engine surface.

Every kind in :data:`repro.engine.ENGINES` must structurally satisfy
:class:`repro.engine.FilterEngine` *and* behave identically on the
protocol's contract: same answers for the same workload, updates
visible on the next filter call, snapshot → restore round-trips to an
engine with identical answers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import ENGINES, EngineConfig, FilterEngine, create_engine
from repro.errors import ReproError, WorkloadError, XPathSyntaxError
from repro.xmlstream.dom import parse_document
from repro.xmlstream.events import events_of_document
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import matching_oids
from repro.xpush.stats import MACHINE_KEYS

WORKLOAD = {
    "q0": "//a[b = 1]",
    "q1": "//c",
    "q2": "/a[not(b)]",
}

DOCS = ["<a><b>1</b></a>", "<c/>", "<a><d/></a>", "<a><b>2</b></a>"]

def _config(kind: str) -> EngineConfig:
    # Sharded runs in-process here; its worker-process behaviour has
    # its own suite in tests/service/.
    if kind == "sharded":
        return EngineConfig(engine="sharded", shards=2, parallel=False)
    return EngineConfig(engine=kind)


def _expected(workload: dict[str, str], xml: str) -> frozenset[str]:
    filters = [parse_xpath(source, oid) for oid, source in workload.items()]
    return matching_oids(filters, parse_document(xml))


@pytest.mark.parametrize("kind", ENGINES)
def test_every_registered_engine_satisfies_the_protocol(kind):
    engine = create_engine(_config(kind), WORKLOAD)
    try:
        assert isinstance(engine, FilterEngine)
        assert engine.filter_count == len(WORKLOAD)
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_filter_entry_points_agree(kind):
    """filter_document, filter_events and filter_stream are three
    spellings of the same evaluation."""
    engine = create_engine(_config(kind), WORKLOAD)
    try:
        expected = [_expected(WORKLOAD, xml) for xml in DOCS]
        docs = [parse_document(xml) for xml in DOCS]
        assert [engine.filter_document(d) for d in docs] == expected
        events = [e for d in docs for e in events_of_document(d)]
        assert engine.filter_events(iter(events)) == expected
        assert engine.filter_stream("".join(DOCS)) == expected
        assert engine.filter_stream("".join(DOCS).encode("utf-8")) == expected
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_updates_are_visible_and_validated(kind):
    engine = create_engine(_config(kind), WORKLOAD)
    try:
        assert engine.filter_stream("<e/>") == [frozenset()]
        engine.subscribe("q3", "//e")
        assert engine.filter_stream("<e/>") == [frozenset({"q3"})]
        assert engine.filter_count == len(WORKLOAD) + 1
        with pytest.raises(WorkloadError):
            engine.subscribe("q3", "//f")  # duplicate oid
        engine.unsubscribe("q3")
        assert engine.filter_stream("<e/>") == [frozenset()]
        assert engine.filter_count == len(WORKLOAD)
        with pytest.raises(WorkloadError):
            engine.unsubscribe("q3")  # already gone
        with pytest.raises(WorkloadError):
            engine.unsubscribe("ghost")
        with pytest.raises(XPathSyntaxError):
            engine.subscribe("bad", "not a filter [")
        assert engine.filter_count == len(WORKLOAD)
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_snapshot_restore_round_trip(kind):
    """A restored engine answers exactly like the one captured — with
    updates applied after restore still working."""
    import json

    engine = create_engine(_config(kind), WORKLOAD)
    try:
        engine.subscribe("q3", "//e")
        engine.unsubscribe("q1")
        snapshot = engine.snapshot()
        json.dumps(snapshot)  # must be JSON-safe, it is the persist format
        expected = [engine.filter_stream(xml)[0] for xml in DOCS + ["<e/>"]]
    finally:
        engine.close()
    restored = create_engine(_config(kind), snapshot=snapshot)
    try:
        assert [restored.filter_stream(xml)[0] for xml in DOCS + ["<e/>"]] == expected
        assert restored.filter_count == len(WORKLOAD)  # -q1 +q3
        restored.subscribe("q4", "//c")
        assert "q4" in restored.filter_stream("<c/>")[0]
    finally:
        restored.close()


#: Snapshots as older trees wrote them: "xpush" is the sources format
#: of the serial engine that name once built, the others are today's
#: formats, with the "runtime" key the in-process ones used to record;
#: the tests add the two keys of the deleted schema axis.
LEGACY_SNAPSHOTS = {
    "xpush": {
        "format": "repro-engine-workload",
        "version": 1,
        "engine": "xpush",
        "filters": {"q0": "//a[b = 1]", "q2": "/a[not(b)]", "q3": "//e"},
        "runtime": "bitmask",
    },
    "layered": {
        "format": "repro-layered-engine",
        "version": 2,
        "runtime": "bitmask",
        "base": {"q0": "//a[b = 1]", "q1": "//c", "q2": "/a[not(b)]"},
        "delta": {"q3": "//e"},
        "tombstones": ["q1"],
    },
    "sharded": {
        "format": "repro-sharded-engine",
        "version": 2,
        "shards": 2,
        "inner": "layered",
        "placement": "hash",
        "epoch": 2,
        "routing": {"q0": 0, "q2": 1, "q3": 1},
        "filters": {"q0": "//a[b = 1]", "q2": "/a[not(b)]", "q3": "//e"},
    },
}
LEGACY_LIVE = LEGACY_SNAPSHOTS["xpush"]["filters"]

#: ``(file format, engine kind restoring it)``: each format under its
#: own name, and the two in-process formats under each other's.
FILE_UNDER_NAME = [
    pytest.param("xpush", "xpush", id="xpush"),
    pytest.param("layered", "layered", id="layered"),
    pytest.param("sharded", "sharded", id="sharded"),
    pytest.param("xpush", "layered", id="xpush-file-as-layered"),
    pytest.param("layered", "xpush", id="layered-file-as-xpush"),
]


def test_xpush_and_layered_name_one_engine_class():
    engines = [create_engine(_config(kind), WORKLOAD) for kind in ("xpush", "layered")]
    assert type(engines[0]) is type(engines[1])
    assert engines[0].snapshot() == engines[1].snapshot()
    assert engines[0].stats().keys() == engines[1].stats().keys()


@pytest.mark.parametrize("mode", ["trust", "validate"])
@pytest.mark.parametrize("fmt, kind", FILE_UNDER_NAME)
def test_snapshots_with_the_legacy_schema_keys_still_load(fmt, kind, mode):
    """The keys are dropped on read — the schema keys and a recorded
    runtime, even one no tree ever had: an engine with no DTD loads the
    snapshot under its own options, answers like the reference, and
    never writes them back — it writes its own format, whichever it
    read."""
    legacy = {
        **LEGACY_SNAPSHOTS[fmt],
        "schema_mode": mode,
        "schema_fingerprint": "9f2c" * 16,
        "runtime": "bogus",
    }
    restored = create_engine(_config(kind), snapshot=legacy)
    try:
        for xml in DOCS + ["<e/>"]:
            assert restored.filter_stream(xml)[0] == _expected(LEGACY_LIVE, xml)
        assert restored.stats()["runtime"] == _config(kind).options.runtime
        written = "layered" if kind == "xpush" else kind
        # A version-2 sharded capture's placement and routing go too.
        dropped = {"runtime", "placement", "routing"}
        assert restored.snapshot().keys() == LEGACY_SNAPSHOTS[written].keys() - dropped
    finally:
        restored.close()


@pytest.mark.parametrize("fmt, kind", FILE_UNDER_NAME)
def test_restored_legacy_snapshot_takes_updates_and_round_trips(fmt, kind):
    """What was restored is a live workload: it grows, shrinks, folds
    and is written back in a form the same name reads again."""
    live = dict(LEGACY_LIVE)
    engine = create_engine(_config(kind), snapshot=LEGACY_SNAPSHOTS[fmt])
    try:
        engine.subscribe("q4", "//c")
        engine.unsubscribe("q0")
        live["q4"] = "//c"
        del live["q0"]
        again = create_engine(_config(kind), snapshot=engine.snapshot())
        engine.compact()
        try:
            for xml in DOCS + ["<e/>"]:
                assert engine.filter_stream(xml)[0] == _expected(live, xml)
                assert again.filter_stream(xml)[0] == _expected(live, xml)
            assert engine.filter_count == again.filter_count == len(live)
        finally:
            again.close()
    finally:
        engine.close()


#: Per format, the fields that make its reader refuse a capture: a
#: tombstone that names no filter, malformed ``filters``, or a filter
#: that does not compile (``text()`` must end a path) or parse — routed,
#: as a version-2 writer would have, though the table is not read.
_BAD_ROUTING = {**LEGACY_SNAPSHOTS["sharded"]["routing"], "bad": 0}
REJECTED = {
    "xpush": [{"tombstones": ["ghost"]}],
    "layered": [{"tombstones": ["ghost"]}],
    "sharded": [
        {"filters": []},
        {"filters": {**LEGACY_LIVE, "bad": "/a/text()/b"}, "routing": _BAD_ROUTING},
        {"filters": {**LEGACY_LIVE, "bad": "//a["}, "routing": _BAD_ROUTING},
    ],
}


@pytest.mark.parametrize("fmt, kind", FILE_UNDER_NAME)
def test_rejected_snapshot_leaves_the_engine_as_it_was(fmt, kind):
    engine = create_engine(_config(kind), {"z": "//z"})
    try:
        for fields in REJECTED[fmt]:
            with pytest.raises(ReproError):
                engine.restore({**LEGACY_SNAPSHOTS[fmt], **fields})
            assert engine.filter_count == 1
            assert engine.filter_stream("<z/>") == [frozenset({"z"})]
            assert engine.filter_stream(DOCS[0]) == [frozenset()]
    finally:
        engine.close()


#: Filters past the interpreter's recursion limit: a step chain the
#: AFA build recurses down, predicates and ``not(`` the parser does.
TOO_DEEP = {
    "steps": "/a" + "/b" * 3000,
    "predicates": "/a" + "[b" * 400 + "]" * 400,
    "negations": "/a[" + "not(" * 400 + "b" + ")" * 400 + "]",
}


@pytest.mark.parametrize("shape", TOO_DEEP)
@pytest.mark.parametrize("kind", ENGINES)
def test_a_filter_too_deep_to_compile_is_refused_typed_and_changes_nothing(kind, shape):
    """Refused at ``subscribe`` with a :class:`ReproError`, and the
    engine answers and updates as if never asked."""
    live = dict(WORKLOAD)
    engine = create_engine(_config(kind), live)
    try:
        for xml in DOCS:
            assert engine.filter_stream(xml)[0] == _expected(live, xml)
        with pytest.raises((XPathSyntaxError, WorkloadError), match="too deep"):
            engine.subscribe("bad", TOO_DEEP[shape])
        assert engine.filter_count == len(live)
        with pytest.raises(WorkloadError, match="unknown oid"):
            engine.unsubscribe("bad")
        live["bad"] = "//d"  # the oid is still free
        engine.subscribe("bad", live["bad"])
        for xml in DOCS:
            assert engine.filter_stream(xml)[0] == _expected(live, xml)
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_stats_names_the_engine(kind):
    engine = create_engine(_config(kind), WORKLOAD)
    try:
        stats = engine.stats()
        # "xpush" is a second name of the layered engine, not a kind.
        assert stats["engine"] == ("layered" if kind == "xpush" else kind)
        assert stats["filters"] == len(WORKLOAD)
        # One schema: the machine counters and their ratio, whatever the kind.
        assert {*MACHINE_KEYS, "hit_ratio", "runtime"} <= stats.keys()
    finally:
        engine.close()


def test_workload_spellings_are_equivalent():
    """Mapping, parsed-filter list and bare source list all build the
    same workload (bare sources get q0, q1, ... oids)."""
    mapping = create_engine(EngineConfig(), {"q0": "//a", "q1": "//b"})
    parsed = create_engine(
        EngineConfig(), [parse_xpath("//a", "q0"), parse_xpath("//b", "q1")]
    )
    bare = create_engine(EngineConfig(), ["//a", "//b"])
    for xml in ("<a/>", "<b/>", "<c/>"):
        assert (
            mapping.filter_stream(xml)
            == parsed.filter_stream(xml)
            == bare.filter_stream(xml)
        )


def test_factory_rejects_unknown_engine_and_double_source():
    with pytest.raises(WorkloadError):
        create_engine(replace(EngineConfig(engine="xpush"), engine="nonsense"))
    engine = create_engine(EngineConfig(), {"q0": "//a"})
    snapshot = engine.snapshot()
    with pytest.raises(WorkloadError):
        create_engine(EngineConfig(), {"q0": "//a"}, snapshot=snapshot)


@pytest.mark.parametrize("parallel", [True, False])
def test_sharded_engine_refuses_an_unregistered_inner_at_construction(parallel, monkeypatch):
    """Regression: with worker processes the name was first looked up
    in a worker, so construction succeeded and the first filter call
    failed as ``ServiceError: ... worker init failed``.  It is refused
    typed, naming the known kinds, when the config is built."""

    def no_workers():
        raise AssertionError("refuse the inner engine before spawning anything")

    monkeypatch.setattr("repro.service.engine._mp_context", no_workers)
    with pytest.raises(WorkloadError, match=r"unknown inner engine 'bogus'.*'layered'"):
        config = EngineConfig(engine="sharded", shards=2, inner="bogus", parallel=parallel)
        create_engine(config, WORKLOAD)


def test_sharded_restore_refuses_an_unregistered_inner_and_changes_nothing():
    engine = create_engine(_config("sharded"), {"z": "//z"})
    try:
        # "naive" was an engine kind once; a capture naming it is refused too.
        for inner in ("bogus", "naive"):
            with pytest.raises(WorkloadError, match=f"unknown inner engine '{inner}'"):
                engine.restore({**LEGACY_SNAPSHOTS["sharded"], "inner": inner})
            assert engine.filter_stream("<z/>") == [frozenset({"z"})]
            assert engine.stats()["inner"] == "layered"
            assert engine.filter_count == 1
    finally:
        engine.close()


@pytest.mark.parametrize(
    "fields",
    [{"engine": "naive"}, {"engine": "sharded", "inner": "naive"}],
    ids=["engine", "inner"],
)
def test_removed_engine_kinds_are_refused_by_the_config(fields, monkeypatch):
    """The baselines and the eager machine are no engine kinds: a
    config naming one is refused where it is written, before any
    engine exists."""

    def no_engine(*args, **kwargs):
        raise AssertionError("refuse the kind before building anything")

    monkeypatch.setattr("repro.engine.factory.LayeredFilterEngine", no_engine)
    monkeypatch.setattr("repro.service.engine.ShardedFilterEngine", no_engine)
    with pytest.raises(WorkloadError, match="'naive'"):
        create_engine(EngineConfig(**fields), WORKLOAD)


def test_config_validation():
    with pytest.raises(WorkloadError):
        EngineConfig(shards=0)
    with pytest.raises(WorkloadError):
        EngineConfig(batch_size=0)
    with pytest.raises(WorkloadError):
        EngineConfig(compact_threshold=0)
    with pytest.raises(WorkloadError):
        EngineConfig(options="TD")  # type: ignore[arg-type]
    with pytest.raises(WorkloadError):
        EngineConfig(engine="sharded", inner="sharded")
    assert "layered" in EngineConfig(engine="layered").describe()
    with pytest.raises(TypeError):  # the scanner is no setting
        EngineConfig(backend="expat")


def test_engine_starts_empty_and_grows():
    """No filters, no snapshot: the engine starts empty and is built
    entirely through the control plane."""
    engine = create_engine(EngineConfig(engine="layered"))
    assert engine.filter_count == 0
    assert engine.filter_stream("<a/>") == [frozenset()]
    engine.subscribe("q0", "//a")
    assert engine.filter_stream("<a/>") == [frozenset({"q0"})]


def test_stream_sources_accept_file_objects(tmp_path):
    import io

    engine = create_engine(EngineConfig(engine="layered"), {"q0": "//a"})
    assert engine.filter_stream(io.StringIO("<a/><b/>")) == [
        frozenset({"q0"}),
        frozenset(),
    ]
    assert engine.filter_stream(io.BytesIO(b"<a/>")) == [frozenset({"q0"})]
    path = tmp_path / "stream.xml"
    path.write_text("<a/>")
    with open(path, "rb") as handle:
        assert engine.filter_stream(handle) == [frozenset({"q0"})]


def test_realistic_workload_matches_reference(protein, protein_docs):
    """On realistic data the in-process engine, under both its names,
    agrees with the semantic reference, document by document (the
    baselines' agreement is tests/baselines/test_baselines.py's)."""
    from tests.conftest import make_workload

    filters = make_workload(protein, 12, seed=13)
    docs = protein_docs[:6]
    expected = [matching_oids(filters, doc) for doc in docs]
    for kind in ("xpush", "layered"):
        engine = create_engine(EngineConfig(engine=kind), filters)
        try:
            assert [engine.filter_document(d) for d in docs] == expected, kind
        finally:
            engine.close()

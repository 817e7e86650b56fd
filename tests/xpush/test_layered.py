"""Tests for the layered update engine (Sec. 8)."""

import pytest

from repro.errors import WorkloadError
from repro.xmlstream.dom import parse_document
from repro.xpath.parser import parse_workload
from repro.xpath.semantics import matching_oids
from repro.xpush.layered import LayeredFilterEngine

from tests.conftest import make_workload


def doc(xml):
    return parse_document(xml)


def test_insert_is_visible_immediately():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    assert engine.filter_document(doc("<y><z>1</z></y>")) == frozenset()
    engine.insert("b", "//y[z = 1]")
    assert engine.filter_document(doc("<y><z>1</z></y>")) == {"b"}
    assert engine.filter_document(doc("<x/>")) == {"a"}
    assert engine.filter_count == 2


def test_base_machine_untouched_by_insertion():
    engine = LayeredFilterEngine.from_xpath({"a": "//x[k = 1]"})
    engine.filter_document(doc("<x><k>1</k></x>"))  # warm the base
    base_states = engine.stats()["base_states"]
    engine.insert("b", "//new")
    assert engine.stats()["base_states"] == base_states
    assert engine.stats()["delta_states"] >= 1
    assert engine.compactions == 0


def test_remove_is_a_tombstone():
    engine = LayeredFilterEngine.from_xpath({"a": "//x", "b": "//x"})
    assert engine.filter_document(doc("<x/>")) == {"a", "b"}
    engine.remove("a")
    assert engine.filter_document(doc("<x/>")) == {"b"}
    assert engine.filter_count == 1
    with pytest.raises(WorkloadError):
        engine.remove("a")
    with pytest.raises(WorkloadError):
        engine.remove("ghost")


def test_reinsert_after_remove():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.remove("a")
    assert engine.filter_document(doc("<x/>")) == frozenset()
    engine.insert("a", "//x")
    assert engine.filter_document(doc("<x/>")) == {"a"}


def test_duplicate_insert_rejected():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    with pytest.raises(WorkloadError):
        engine.insert("a", "//y")


def test_compact_folds_everything():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.insert("b", "//y")
    engine.remove("a")
    engine.compact()
    stats = engine.stats()
    assert stats["base_filters"] == 1
    assert stats["delta_filters"] == 0
    assert stats["tombstones"] == 0
    assert engine.filter_document(doc("<y/>")) == {"b"}
    assert engine.filter_document(doc("<x/>")) == frozenset()


def test_automatic_compaction_threshold():
    engine = LayeredFilterEngine.from_xpath({"a": "//x0"})
    engine.compact_threshold = 5
    for i in range(1, 7):
        engine.insert(f"q{i}", f"//x{i}")
    assert engine.compactions >= 1
    assert engine.stats()["delta_filters"] < 5
    for i in range(7):
        assert engine.filter_document(doc(f"<x{i}/>")) == ({f"q{i}"} if i else {"a"})


def test_layered_equals_monolithic(protein, protein_docs):
    filters = make_workload(protein, 30, seed=42)
    half = len(filters) // 2
    engine = LayeredFilterEngine(filters[:half])
    for f in filters[half:]:
        engine.insert(f.oid, f.source)
    for document in protein_docs[:8]:
        assert engine.filter_document(document) == matching_oids(filters, document)


def test_filter_text_multi_document():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.insert("b", "//y")
    results = engine.filter_text("<x/><y/><z/>")
    assert results == [frozenset({"a"}), frozenset({"b"}), frozenset()]


def test_empty_engine():
    engine = LayeredFilterEngine([])
    assert engine.filter_document(doc("<x/>")) == frozenset()
    assert engine.filter_text("<x/><y/>") == [frozenset(), frozenset()]
    engine.insert("a", "//x")
    assert engine.filter_document(doc("<x/>")) == {"a"}

def test_stats_aggregate_over_the_live_layers_not_the_base():
    """Regression: ``hit_ratio`` was the base machine's alone, so an
    engine grown from empty — its only machine is the delta — read 0.0
    while that machine hit its memo on nearly every lookup."""
    engine = LayeredFilterEngine([])
    engine.subscribe("a", "//a[b=1]")
    for _ in range(50):
        assert engine.filter_text("<a><b>1</b></a>") == [frozenset({"a"})]
    assert engine._base is None and engine._delta is not None
    stats = engine.stats()
    assert stats["hit_ratio"] == engine._delta.stats.hit_ratio > 0.9
    engine.compact()  # the first fold builds the base ...
    engine.filter_text("<a><b>1</b></a>")
    engine.insert("b", "//b")
    engine.compact()  # ... the second grows it: the old store stays, as predecessor
    engine.filter_text("<a><b>1</b></a>")
    stats = engine.stats()
    assert stats["resident_bytes"] == engine._base.resident_bytes
    assert stats["resident_bytes"] > engine._base.store.resident_bytes


def test_reinsert_with_different_filter_shadows_stale_base_definition():
    """Regression: re-inserting a tombstoned base oid with a *new*
    filter must not resurrect the old definition — the stale base
    automaton used to keep answering (and the oid was double-counted)."""
    engine = LayeredFilterEngine.from_xpath({"a": "//x", "b": "//y"})
    engine.remove("a")
    engine.insert("a", "//y")  # same oid, different filter
    assert engine.filter_count == 2
    assert engine.filter_document(doc("<x/>")) == frozenset()  # old def dead
    assert engine.filter_document(doc("<y/>")) == {"a", "b"}
    # One answer set per document, each oid reported at most once.
    assert engine.filter_text("<x/><y/>") == [frozenset(), frozenset({"a", "b"})]
    engine.compact()
    assert engine.filter_count == 2
    assert engine.filter_document(doc("<x/>")) == frozenset()
    assert engine.filter_document(doc("<y/>")) == {"a", "b"}


def test_filter_events_is_single_pass():
    """Regression: the event path used to buffer the whole stream per
    layer before dispatching.  Now both layers are driven as the events
    are pulled, so earlier documents have flowed through the machines
    by the time later ones are read from the iterator."""
    from repro.xmlstream.events import events_of_document

    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.insert("b", "//y")
    first = events_of_document(doc("<x/>"))
    second = events_of_document(doc("<y/>"))
    base_events_before_second = []

    def stream():
        yield from first
        base_events_before_second.append(engine._base.stats.events)
        yield from second

    assert engine.filter_events(stream()) == [frozenset({"a"}), frozenset({"b"})]
    assert base_events_before_second[0] > 0


def test_snapshot_restore_with_uncompacted_layers():
    """The persisted form carries base + delta + tombstones verbatim;
    a restored engine answers identically without a compaction."""
    engine = LayeredFilterEngine.from_xpath({"a": "//x", "b": "//y"})
    engine.insert("c", "//z")
    engine.remove("b")
    snapshot = engine.snapshot()

    restored = LayeredFilterEngine([])
    restored.restore(snapshot)
    assert restored.filter_count == engine.filter_count == 2
    for xml in ("<x/>", "<y/>", "<z/>"):
        assert restored.filter_document(doc(xml)) == engine.filter_document(doc(xml))
    stats = restored.stats()
    assert stats["delta_filters"] == 1 and stats["tombstones"] == 1
    # Updates keep working on the restored engine.
    restored.insert("b", "//x")
    assert restored.filter_document(doc("<x/>")) == {"a", "b"}


def test_restore_rejects_malformed_snapshots():
    from repro.xpush.persist import PersistError

    engine = LayeredFilterEngine([])
    with pytest.raises(PersistError):
        engine.restore({"format": "something-else"})
    good = LayeredFilterEngine.from_xpath({"a": "//x"}).snapshot()
    with pytest.raises(PersistError):
        engine.restore({**good, "version": 99})
    with pytest.raises(PersistError):
        engine.restore({**good, "tombstones": ["ghost"]})  # stale tombstone


# ----------------------------------------------------------------------
# Layers grow, they are not rebuilt (grow / retire / renumber)
# ----------------------------------------------------------------------


@pytest.fixture
def compiled(monkeypatch):
    """Oids of every AFA compiled while the test runs, in order."""
    from repro.afa import build

    calls = []
    build_afa = build.build_afa

    def counting(workload, xpath_filter):
        calls.append(xpath_filter.oid)
        return build_afa(workload, xpath_filter)

    monkeypatch.setattr(build, "build_afa", counting)
    return calls


def test_insert_compiles_exactly_one_afa(compiled):
    engine = LayeredFilterEngine.from_xpath({f"b{i}": f"//x{i}" for i in range(5)})
    engine.compact_threshold = 1_000
    del compiled[:]
    for i in range(64):
        engine.insert(f"q{i}", f"//y{i}[z = {i}]")
    assert compiled == [f"q{i}" for i in range(64)]  # 64, not 1 + 2 + … + 64
    assert engine.filter_document(doc("<y63><z>63</z></y63>")) == {"q63"}


def test_fold_compiles_the_delta_only_and_never_a_doomed_delta(compiled):
    engine = LayeredFilterEngine.from_xpath({"a": "//x", "b": "//y"})
    engine.compact_threshold = 3
    base = engine._base
    del compiled[:]
    engine.insert("c", "//z")
    engine.insert("d", "//w")
    engine.remove("c")
    assert compiled == ["c", "d"]
    engine.insert("e", "//v")  # fills the delta: goes straight into the base
    assert compiled == ["c", "d", "d", "e"]  # no delta rebuilt to be thrown away
    assert engine._base is base and engine._delta is None
    assert engine.compactions == 1 and engine.stats()["base_filters"] == 4
    assert engine.filter_text("<x/><z/><w/><v/>") == [{"a"}, frozenset(), {"d"}, {"e"}]


def test_fold_keeps_the_base_memo_reachable():
    engine = LayeredFilterEngine.from_xpath({"a": "//x[k = 1]", "b": "/r/x[not(k = 2)]"})
    stream = "<r><x><k>1</k></x></r><r><x><k>2</k></x></r>"
    assert engine.filter_text(stream) == [{"a", "b"}, frozenset()]
    engine.insert("c", "//k")
    engine.compact()
    base = engine._base
    computed = base.stats.pop_computed
    assert engine.filter_text(stream) == [{"a", "b", "c"}, {"c"}]
    # Every pop miss of the replay found its old block in the predecessor.
    assert base.stats.pop_computed > computed
    assert engine.stats()["carried"] >= base.stats.pop_computed - computed
    # A fold with nothing to fold (an untouched shard's epoch) leaves the
    # warmed store live: the replay is all hits.
    store, misses = base.store, base.stats.lookups - base.stats.hits
    engine.compact()
    assert engine.filter_text(stream) == [{"a", "b", "c"}, {"c"}]
    assert base.store is store and base.stats.lookups - base.stats.hits == misses
    assert engine.compactions == 2  # still counted, as before this engine grew in place


EARLY = dict(top_down=True, early=True, precompute_values=False)


@pytest.mark.parametrize("options", [{}, EARLY], ids=["default", "early"])
def test_passenger_and_live_definition_share_an_oid_in_one_layer(options):
    """Two AFAs, one oid, same layer: only the live one may answer —
    at ``end_document`` and through ``on_match`` (under early
    notification the retired one's oid also sits in memoised pop
    entries of the predecessor store)."""
    from repro.xpush.options import XPushOptions

    engine = LayeredFilterEngine.from_xpath(
        {"a": "/r/x[k]", "b": "/r/y", "p0": "//p0", "p1": "//p1", "p2": "//p2"},
        XPushOptions(**options),
    )
    emitted = []
    engine.on_match = lambda oid, _doc, _event: emitted.append(oid)

    def answers(xml):
        del emitted[:]
        answer = engine.filter_document(doc(xml))
        assert sorted(emitted) == sorted(answer)
        return answer

    old, new = "<r><x><k>1</k></x></r>", "<r><z/></r>"
    assert answers(old) == {"a"}
    # In the base: the old "a" is a passenger after the fold.
    engine.remove("a")
    engine.insert("a", "/r/z")
    assert (answers(old), answers(new)) == (frozenset(), {"a"})
    engine.compact()
    assert engine.stats()["retired_filters"] == 1 and engine.stats()["tombstones"] == 0
    assert (answers(old), answers(new)) == (frozenset(), {"a"})
    # In the delta: redefined before any fold, retired on the spot.
    engine.insert("d", "/r/x[k]")
    assert answers(old) == {"d"}
    engine.remove("d")
    engine.insert("d", "/r/z")
    assert engine.stats()["retired_filters"] == 2 and engine.filter_count == 6
    assert (answers(old), answers(new)) == (frozenset(), {"a", "d"})
    engine.compact()
    assert (answers(old), answers(new)) == (frozenset(), {"a", "d"})


# ----------------------------------------------------------------------
# Copies of one source share one AFA
# ----------------------------------------------------------------------

COPIED = "/r/a[b = 1 and not(d)]"
COPY_DOCS = [
    "<r><a><b>1</b></a></r>",
    "<r><a><b>1</b><d/></a></r>",
    "<r><a><b>2</b></a><a><b>1</b></a></r>",
]


def emissions(engine, call):
    """*call*'s answers and the ``(doc, event, oid)`` on_match saw."""
    emitted = []
    engine.on_match = lambda oid, doc_index, event: emitted.append((doc_index, event, oid))
    try:
        return call(), sorted(emitted)
    finally:
        engine.on_match = None


def stream_emissions(engine):
    return emissions(engine, lambda: engine.filter_stream("".join(COPY_DOCS)))


def expected_answers(live):
    filters = parse_workload(live)
    return [matching_oids(filters, doc(xml)) for xml in COPY_DOCS]


@pytest.mark.parametrize("options", [{}, EARLY], ids=["default", "early"])
def test_copies_answer_as_distinct_afas_would(options):
    """N oids on one source answer — at the end of a document and
    through ``on_match``, at the same event — exactly as N automata of
    their own: the same filters spelled apart (trailing blanks)."""
    from repro.xpush.options import XPushOptions

    live = {"c0": COPIED, "u": "/r/a/b", "c1": COPIED, "w": "//a[d]", "c2": COPIED}
    apart = {oid: xpath + " " * i for i, (oid, xpath) in enumerate(live.items())}
    shared, distinct = (
        LayeredFilterEngine.from_xpath(sources, XPushOptions(**options))
        for sources in (live, apart)
    )
    assert shared.stats()["afa_states"] < distinct.stats()["afa_states"]
    answers, emitted = stream_emissions(shared)
    assert (answers, emitted) == stream_emissions(distinct)
    assert answers == expected_answers(live) and {"c0", "c1", "c2"} <= answers[0]
    for xml in COPY_DOCS:
        document = doc(xml)
        assert emissions(shared, lambda: shared.filter_document(document)) == emissions(
            distinct, lambda: distinct.filter_document(document)
        )


@pytest.mark.parametrize("options", [{}, EARLY], ids=["default", "early"])
def test_unsubscribing_copies_retires_their_afa_with_the_last(options):
    from repro.xpush.options import XPushOptions

    live = {"c0": COPIED, "c1": COPIED, "c2": COPIED, "u": "/r/a/b"}
    engine = LayeredFilterEngine.from_xpath(live, XPushOptions(**options))
    stream_emissions(engine)  # warm the base
    for oid, retired in (("c0", 0), ("c1", 0), ("c2", 1)):
        engine.remove(oid)
        del live[oid]
        engine.compact()
        assert engine.stats()["retired_filters"] == retired, oid
        answers, emitted = stream_emissions(engine)
        assert answers == expected_answers(live), oid
        assert sorted((d, o) for d, _, o in emitted) == sorted(
            (d, o) for d, matched in enumerate(answers) for o in matched
        ), oid


@pytest.mark.parametrize("options", [{}, EARLY], ids=["default", "early"])
def test_a_copy_folded_into_a_warm_base_answers_at_its_originals_event(options):
    """The copy joins the base's AFA; under early notification the base
    store it replaced memoised notification sets naming the original
    only, and the carried ones must name the copy too."""
    from repro.xpush.options import XPushOptions

    engine = LayeredFilterEngine.from_xpath({"c0": COPIED, "u": "/r/a/b"}, XPushOptions(**options))
    states = engine.stats()["afa_states"]
    before, emitted = stream_emissions(engine)
    engine.insert("c1", COPIED)
    engine.compact()
    assert engine.stats()["afa_states"] == states
    after, emitted_after = stream_emissions(engine)
    assert engine.stats()["carried"] > 0
    assert after == [m | {"c1"} if "c0" in m else m for m in before]
    assert emitted_after == sorted(
        emitted + [(d, event, "c1") for d, event, oid in emitted if oid == "c0"]
    )


def test_snapshot_never_resurrects_a_passenger():
    from repro.service.engine import _snapshot_sources

    engine = LayeredFilterEngine.from_xpath({"a": "//x", "b": "//y", "c": "//w"})
    engine.remove("a")
    engine.insert("a", "//z")
    engine.compact()  # the old "a" rides in the base, retired
    engine.insert("d", "//v")
    engine.remove("b")  # tombstoned, not yet folded
    assert engine.stats()["retired_filters"] == 1
    snapshot = engine.snapshot()
    assert snapshot["version"] == 2
    assert snapshot["base"] == {"b": "//y", "c": "//w", "a": "//z"}
    assert _snapshot_sources(snapshot) == {"c": "//w", "a": "//z", "d": "//v"}

    restored = LayeredFilterEngine([])
    restored.restore(snapshot)
    stats = restored.stats()
    assert (stats["retired_filters"], stats["tombstones"], stats["delta_filters"]) == (0, 1, 1)
    stream = "<x/><y/><z/><w/><v/>"
    assert restored.filter_text(stream) == engine.filter_text(stream)
    assert restored.filter_text(stream) == [frozenset(), frozenset(), {"a"}, {"c"}, {"d"}]


#: The compiled ``{"a": "//x", "b": "//y"}`` base a version-1 snapshot
#: carried, as the deleted compiled-workload format wrote it; a restore
#: reads each AFA's oid and source and nothing else.
VERSION_1_BASE = {
    "format": "repro-workload",
    "version": 1,
    "states": [
        {"kind": "OR", "predicate": None, "edges": {"*": [0]}, "eps": [], "top": ["x"]},
        {"kind": "OR", "predicate": None, "edges": {"*": [1]}, "eps": [], "top": ["y"]},
    ],
    "afas": [
        {"oid": "a", "initial": 0, "source": "//x", "states": [0], "notification": 0},
        {"oid": "b", "initial": 1, "source": "//y", "states": [1], "notification": 1},
    ],
}


def test_version_1_snapshot_still_restores():
    engine = LayeredFilterEngine([])
    engine.restore(
        {
            "format": "repro-layered-engine",
            "version": 1,
            "runtime": "codegen",
            "base": VERSION_1_BASE,
            "delta": {"c": "//z"},
            "tombstones": ["b"],
        }
    )
    assert engine.stats()["runtime"] == "bitmask"  # the recorded runtime is not read
    assert engine.filter_text("<x/><y/><z/>") == [{"a"}, frozenset(), {"c"}]


def test_renumbering_rule_reads_the_workload(caplog):
    """Passengers outnumbering half the live AFA states renumber the
    base at the next fold; until then folds only grow it.  Both are
    logged, and both count as compactions."""
    import logging

    engine = LayeredFilterEngine.from_xpath({f"q{i}": f"//x{i}" for i in range(9)})
    base = engine._base
    with caplog.at_level(logging.INFO, logger="repro.xpush.layered"):
        for i in range(3):
            engine.remove(f"q{i}")
        engine.compact()  # 3 passengers against 6 live: not yet more than half
        assert engine._base is base
        assert engine.stats()["retired_filters"] == 3 and engine.stats()["afa_states"] == 9
        engine.remove("q3")
        engine.compact()  # decided on what rides now (3 of 6): still grows
        assert engine._base is base and engine.stats()["retired_filters"] == 4
        engine.compact()  # 4 passengers against 5 live: renumbered
    assert engine._base is not base
    stats = engine.stats()
    assert (stats["retired_filters"], stats["afa_states"], stats["compactions"]) == (0, 5, 3)
    assert engine.filter_text("<x3/><x4/>") == [frozenset(), {"q4"}]
    lines = [record.getMessage() for record in caplog.records]
    assert [line.split(":")[0] for line in lines] == [
        "folded (compact)",
        "folded (compact)",
        "renumbered (compact)",
    ]
    assert "5 live filters, 0 retired, 5 AFA states" in lines[-1]


def test_uncompilable_insert_leaves_the_engine_as_it_was():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.compact_threshold = 3
    for oid, xpath in (("b", "//y"), ("c", "//w")):  # into the delta, then a fold
        with pytest.raises(WorkloadError):
            engine.insert("bad", "//z[not(.)]")
        engine.insert(oid, xpath)
    with pytest.raises(WorkloadError):
        engine.insert("bad", "//z[not(.)]")
    assert engine.filter_count == 3 and engine.compactions == 0
    assert engine.stats()["delta_filters"] == 2
    assert engine.filter_text("<x/><y/><w/>") == [{"a"}, {"b"}, {"c"}]


# ----------------------------------------------------------------------
# A delta that stops growing folds (the idle rule)
# ----------------------------------------------------------------------


def _fold_triggers(caplog):
    return [record.getMessage().split(":")[0] for record in caplog.records]


@pytest.mark.parametrize("options", [{}, EARLY], ids=["default", "early"])
def test_a_delta_idles_out_after_threshold_documents(caplog, options):
    """Grown from empty by ``2 × threshold + k`` subscribes, the engine
    keeps base and delta for ``threshold`` documents; the next call
    folds before its first event and runs on one machine.  Answers and
    ``on_match`` ``(oid, doc_index, event_index)`` equal an engine built
    from the same sources on every document, on both sides of the fold."""
    import logging

    from repro.xpush.options import XPushOptions

    threshold, k = 4, 3
    sources = {f"q{i}": f"//x{i % 5}[k = {i % 3}]" for i in range(2 * threshold + k)}
    engine = LayeredFilterEngine([], XPushOptions(**options), compact_threshold=threshold)
    reference = LayeredFilterEngine.from_xpath(sources, XPushOptions(**options))
    with caplog.at_level(logging.INFO, logger="repro.xpush.layered"):
        for oid, xpath in sources.items():
            engine.subscribe(oid, xpath)
        assert engine.stats()["delta_filters"] == k and engine._base is not None

        def emissions(target, xml):
            emitted = []
            target.on_match = lambda *match: emitted.append(match)
            answers = target.filter_text(xml)
            return answers, sorted(emitted)

        for i in range(threshold + 2):
            xml = f"<x{i % 5}><k>{i % 3}</k></x{i % 5}><x{(i + 1) % 5}><k>0</k></x{(i + 1) % 5}>"
            assert emissions(engine, xml) == emissions(reference, xml), i
            # One call answers two documents: the count reaches the
            # threshold with the second call, the third call folds.
            assert (engine._delta is not None) == (i < 2), i
        assert _fold_triggers(caplog) == ["folded (threshold)"] * 2 + ["folded (idle)"]
    stats = engine.stats()
    assert stats["delta_filters"] == 0 and stats["compactions"] == 3
    assert stats["base_filters"] == len(sources)


def test_a_delta_beside_no_base_is_left_alone():
    """A workload grown from empty below the threshold has its delta as
    its only machine: already the one-machine path, so no idle fold
    rebuilds it."""
    engine = LayeredFilterEngine([], compact_threshold=2)
    engine.subscribe("a", "//a")
    delta = engine._delta
    for _ in range(5):
        assert engine.filter_text("<a/>") == [{"a"}]
    assert engine._delta is delta and engine._base is None and engine.compactions == 0


def test_a_multi_document_call_counts_each_document():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.compact_threshold = 3
    engine.insert("b", "//y")
    assert engine.filter_text("<x/><y/><z/>") == [{"a"}, {"b"}, frozenset()]
    assert engine._delta is not None  # never inside a call
    assert engine.filter_text("<y/>") == [{"b"}]
    assert engine._delta is None and engine.stats()["delta_filters"] == 0


def test_an_insert_restarts_the_idle_count():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.compact_threshold = 3
    engine.insert("b", "//y")
    engine.filter_text("<x/><y/>")
    engine.insert("c", "//z")
    engine.filter_text("<x/><y/>")
    engine.filter_text("<z/>")
    assert engine.stats()["delta_filters"] == 2  # 3 documents, not 5
    assert engine.filter_text("<z/>") == [{"c"}]
    assert engine.stats()["delta_filters"] == 0 and engine.compactions == 1


def test_an_insert_every_k_documents_never_idles(caplog):
    """k < threshold documents between insertions: every fold is the
    insertion threshold's."""
    import logging

    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.compact_threshold = 4
    with caplog.at_level(logging.INFO, logger="repro.xpush.layered"):
        for i in range(12):
            engine.insert(f"q{i}", f"//y{i}")
            for _ in range(3):
                assert engine.filter_text(f"<y{i}/>") == [{f"q{i}"}]
    assert _fold_triggers(caplog) == ["folded (threshold)"] * 3


def test_a_delta_holding_only_a_tombstone_idles_out():
    engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    engine.compact_threshold = 2
    engine.insert("b", "//x")
    engine.remove("b")
    assert engine.filter_text("<x/><x/>") == [{"a"}, {"a"}]
    assert engine._delta is not None
    assert engine.filter_text("<x/>") == [{"a"}]
    stats = engine.stats()
    assert engine._delta is None
    assert (stats["delta_filters"], stats["tombstones"], stats["filters"]) == (0, 0, 1)

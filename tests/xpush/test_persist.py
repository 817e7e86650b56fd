"""Tests for persisted engine state: a workload at rest is its XPath
sources, framed by :mod:`repro.xpush.persist`."""

import io
import json

import pytest

from repro.xpath.semantics import matching_oids
from repro.xpush.layered import LayeredFilterEngine
from repro.xpush.options import XPushOptions
from repro.xpush.persist import PersistError, load_engine_snapshot, save_engine_snapshot

from tests.conftest import make_workload


def _engine(filters, options=None, **kwargs):
    """An engine with both layers live and a tombstone: every part a
    snapshot carries."""
    engine = LayeredFilterEngine(filters[:-1], options, compact_threshold=1_000, **kwargs)
    engine.subscribe(filters[-1].oid, filters[-1].source)
    engine.unsubscribe(filters[0].oid)
    return engine


def test_round_trip_structure(running_filters):
    original = _engine(running_filters)
    buffer = io.StringIO()
    save_engine_snapshot(original.snapshot(), buffer)
    buffer.seek(0)
    restored = LayeredFilterEngine([])
    restored.restore(load_engine_snapshot(buffer))
    assert restored.snapshot() == original.snapshot()
    for key in ("filters", "base_filters", "delta_filters", "tombstones", "afa_states"):
        assert restored.stats()[key] == original.stats()[key], key


def test_machines_behave_identically(protein, protein_docs):
    filters = make_workload(protein, 25, seed=61)
    options = XPushOptions(top_down=True, early=True)
    original = _engine(filters, options)
    restored = LayeredFilterEngine([], options)
    restored.restore(json.loads(json.dumps(original.snapshot())))
    live = [f for f in filters if f.oid != filters[0].oid]
    for doc in protein_docs[:8]:
        want = matching_oids(live, doc)
        assert original.filter_document(doc) == want
        assert restored.filter_document(doc) == want
    assert original.stats()["xpush_states"] == restored.stats()["xpush_states"]


def test_file_round_trip(tmp_path, running_filters):
    snapshot = _engine(running_filters).snapshot()
    path = tmp_path / "engine.json"
    save_engine_snapshot(snapshot, str(path))
    assert load_engine_snapshot(str(path)) == snapshot


def test_json_is_plain_data(running_filters):
    snapshot = _engine(running_filters).snapshot()
    text = json.dumps(snapshot)  # must be JSON-serialisable as-is
    assert json.loads(text) == snapshot
    # Sources only: nothing compiled, no runtime.
    assert set(snapshot) == {"format", "version", "base", "delta", "tombstones"}
    assert all(isinstance(xpath, str) for xpath in snapshot["base"].values())


def test_rejects_garbage(tmp_path):
    for garbage in ([], {"format": "something-else"}, {"version": 2}):
        with pytest.raises(PersistError):
            save_engine_snapshot(garbage, io.StringIO())
        path = tmp_path / "garbage.json"
        path.write_text(json.dumps(garbage))
        with pytest.raises(PersistError):
            load_engine_snapshot(str(path))
    with pytest.raises(PersistError):  # an envelope the engine cannot read
        LayeredFilterEngine([]).restore({"format": "repro-layered-engine", "version": 999})


def test_training_still_works_after_reload(protein):
    """The persisted sources let the training generator run unchanged."""
    filters = make_workload(
        protein, 10, seed=3, prob_not=0.0, prob_or=0.0,
        prob_wildcard=0.0, prob_descendant=0.0,
    )
    options = XPushOptions(top_down=True, train=True)
    snapshot = LayeredFilterEngine(filters, options, protein.dtd).snapshot()
    restored = LayeredFilterEngine([], options, protein.dtd)
    restored.restore(json.loads(json.dumps(snapshot)))
    assert restored.stats()["xpush_states"] > 1  # training created states

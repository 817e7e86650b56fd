"""Training runs exactly when ``options.train`` asks, on seed 0, in
every engine kind and in ``XPushMachine.clone()``.

The sharded engine used to warm every shard at boot whatever the
options said.
"""

from __future__ import annotations

import random

import pytest

import repro.xpush.training as training
from repro.engine import EngineConfig, create_engine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

SOURCES = {"q0": "//a[b = 1]", "q1": "/a/c"}
TRAINED = XPushOptions(top_down=True, train=True)
SEED = 0


@pytest.fixture()
def seeds_seen(monkeypatch):
    """Every rng state handed to ``training_documents``."""
    seen: list[object] = []
    real = training.training_documents

    def spy(workload, dtd=None, rng=None):
        seen.append(rng.getstate())
        return real(workload, dtd, rng)

    monkeypatch.setattr(training, "training_documents", spy)
    return seen


@pytest.mark.parametrize("engine", ["xpush", "layered"])
def test_engines_train_on_the_configured_seed(engine, seeds_seen):
    config = EngineConfig(engine=engine, options=TRAINED)
    built = create_engine(config, SOURCES)
    assert built.filter_stream("<a><b>1</b></a>") == [frozenset({"q0"})]
    assert seeds_seen and set(seeds_seen) == {random.Random(SEED).getstate()}


@pytest.mark.parametrize("options", [TRAINED, XPushOptions(top_down=True)], ids=["train", "no-train"])
def test_shards_train_exactly_when_the_options_ask(options, seeds_seen):
    config = EngineConfig(engine="sharded", shards=2, parallel=False, options=options)
    with create_engine(config, SOURCES) as built:
        assert built.filter_stream("<a><b>1</b></a>") == [frozenset({"q0"})]
    if options.train:
        assert seeds_seen and set(seeds_seen) == {random.Random(SEED).getstate()}
    else:
        assert seeds_seen == []


def test_clone_trains_on_the_original_seed(seeds_seen):
    machine = XPushMachine.from_xpath(SOURCES, TRAINED)
    machine.clone()
    assert seeds_seen == [random.Random(SEED).getstate()] * 2

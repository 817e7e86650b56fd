"""``EngineConfig.training_seed`` must reach the warm-up generator.

The sharded workers always honoured it; the serial ``xpush`` engine,
the ``layered`` engine and ``XPushMachine.clone()`` used to drop it
and train on seed 0.
"""

from __future__ import annotations

import random

import pytest

import repro.xpush.training as training
from repro.engine import EngineConfig, create_engine
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

SOURCES = {"q0": "//a[b = 1]", "q1": "/a/c"}
TRAINED = XPushOptions(top_down=True, train=True, precompute_values=False)
SEED = 4242


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
    config = EngineConfig(engine=engine, options=TRAINED, training_seed=SEED)
    built = create_engine(config, SOURCES)
    assert built.filter_stream("<a><b>1</b></a>") == [frozenset({"q0"})]
    assert seeds_seen and set(seeds_seen) == {random.Random(SEED).getstate()}


def test_clone_trains_on_the_original_seed(seeds_seen):
    machine = XPushMachine.from_xpath(SOURCES, TRAINED, training_seed=SEED)
    machine.clone()
    assert seeds_seen == [random.Random(SEED).getstate()] * 2

"""`EngineConfig` construction-time validation.

A config travels far from where it is built (CLI → factory → worker
boot payloads), so a bad field must fail at construction with a
:class:`WorkloadError`, not surface later as a KeyError inside a
worker process.
"""

from __future__ import annotations

import pytest

from repro.engine.config import EngineConfig
from repro.errors import WorkloadError
from repro.service.placement import PLACEMENT_POLICIES


def test_default_config_is_valid():
    EngineConfig()


@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
def test_known_placements_accepted(placement):
    EngineConfig(placement=placement)


def test_unknown_placement_rejected():
    with pytest.raises(WorkloadError, match="unknown placement policy"):
        EngineConfig(placement="cheapest")


@pytest.mark.parametrize("threshold", [0.99, 0.0, -1.0])
def test_rebalance_threshold_floor(threshold):
    with pytest.raises(WorkloadError, match="rebalance_threshold"):
        EngineConfig(rebalance_threshold=threshold)


def test_rebalance_threshold_of_one_accepted():
    EngineConfig(rebalance_threshold=1.0)


def test_negative_rebalance_interval_rejected():
    with pytest.raises(WorkloadError, match="rebalance_interval"):
        EngineConfig(rebalance_interval=-1)


@pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5])
def test_non_positive_result_timeout_rejected(timeout):
    with pytest.raises(WorkloadError, match="result_timeout"):
        EngineConfig(result_timeout=timeout)

"""Smoke test of the e2e benchmark: every workload cut to about a second,
same code paths, same answer checks.

Not part of tier-1 collection (``testpaths = ["tests"]``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def smoke(name: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--smoke",
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


@pytest.mark.parametrize("name", [spec.name for spec in workloads.SPECS])
def test_end_to_end_metrics(name: str) -> None:
    result = smoke(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {n: unit for n, unit, _, _, _ in metrics.END_TO_END}
    assert {n: cell["unit"] for n, cell in result["metrics"].items()} == expected
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("name", [spec.name for spec in workloads.SPECS])
def test_per_layer_metrics(name: str) -> None:
    result = smoke(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {n: unit for n, unit, _, _ in metrics.PER_LAYER}
    assert {n: cell["unit"] for n, cell in result["metrics"].items()} == expected
    assert os.path.exists(os.path.join(HERE, "out", f"trace-{name}.jsonl"))


def test_second_seed_changes_inputs_not_metrics() -> None:
    first = workloads.build("protein-warm", 0, 0.25)
    second = workloads.build("protein-warm", 1, 0.25)
    assert first.sources != second.sources and first.docs != second.docs
    assert first.param_hash() == second.param_hash()
    assert workloads.build("protein-warm", 0, 0.25).docs == first.docs


def test_manifest_is_current() -> None:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        assert json.load(handle) == metrics.manifest()

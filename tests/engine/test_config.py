"""`EngineConfig` construction-time validation.

A config travels far from where it is built (CLI → factory → worker
boot payloads), so a bad field must fail at construction with a
:class:`WorkloadError`, not surface later as a KeyError inside a
worker process.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.engine import ENGINES
from repro.engine.config import EngineConfig
from repro.errors import WorkloadError
from repro.xpush.options import XPushOptions


def test_default_config_is_valid():
    EngineConfig()


@pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5])
def test_non_positive_result_timeout_rejected(timeout):
    with pytest.raises(WorkloadError, match="result_timeout"):
        EngineConfig(result_timeout=timeout)


def test_the_docs_knob_table_names_every_field_and_nothing_else():
    """``docs/architecture.md`` calls its ``EngineConfig`` table the
    single source of truth: every config and machine-option field has a
    row, a row names no field that does not exist, and the ``engine``
    row and the diagram list the kinds :data:`ENGINES` holds."""
    text = (Path(__file__).parents[2] / "docs" / "architecture.md").read_text("utf-8")
    section = text.split("## `EngineConfig`")[1].split("\n## ")[0]
    named: set[str] = set()
    for row in section.splitlines():
        if row.startswith("| `engine` "):
            assert sorted(re.findall(r"`([a-z]+)`", row.split("|")[3])) == sorted(ENGINES)
        if row.startswith("| `"):
            # Field names are bare identifiers; defaults are quoted,
            # capitalised or calls, so the pattern skips them.
            named.update(re.findall(r"`([a-z_.]+)`", row.split("|")[1]))
    diagram = text.split("```")[1]
    assert sorted(re.findall(r'"([a-z]+)"', diagram)) == sorted(ENGINES)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    fields |= {f"options.{f.name}" for f in dataclasses.fields(XPushOptions)}
    assert named == fields

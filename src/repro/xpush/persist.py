"""The envelope of persisted engine state.

A workload at rest is its XPath sources: every engine's ``snapshot()``
writes them (with whatever layering, tombstones or routing the engine
keeps), and its ``restore()`` recompiles them under the options the
restoring engine was built with.  Nothing compiled is persisted — the
AFAs, the bitmask tables, the codegen handlers and the lazily-built
machine states are all derived from the sources (the machine is a cache
over the workload, Sec. 7), and so is the memory manager's bookkeeping.
Older snapshots may carry ``"runtime"``, ``"schema_mode"`` or
``"schema_fingerprint"`` keys; nothing reads them.

This module only frames a snapshot as a JSON file: plain data, safe to
load from untrusted storage, validated by the engine that restores it.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.errors import ReproError


class PersistError(ReproError):
    """Raised when persisted engine state cannot be decoded."""


def _checked(snapshot: Any) -> dict[str, Any]:
    if not isinstance(snapshot, dict) or not str(snapshot.get("format", "")).startswith(
        "repro-"
    ):
        raise PersistError("not an engine snapshot (missing repro format tag)")
    return snapshot


def save_engine_snapshot(snapshot: dict[str, Any], target: str | IO[str]) -> None:
    """Write an engine ``snapshot()`` capture (e.g. a layered engine's
    base + delta + tombstones) as JSON to a path or file object.

    This is the restart story of the update control plane: a worker or
    CLI session that dies with uncompacted updates resumes the exact
    workload version from this file via ``engine.restore(...)``."""
    _checked(snapshot)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, separators=(",", ":"))
    else:
        json.dump(snapshot, target, separators=(",", ":"))


def load_engine_snapshot(source: str | IO[str]) -> dict[str, Any]:
    """Read an engine snapshot written by :func:`save_engine_snapshot`.

    Only the envelope is validated here; the engine's ``restore()``
    validates the payload it understands."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return _checked(json.load(handle))
    return _checked(json.load(source))

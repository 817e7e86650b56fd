"""Persisting compiled workloads.

Compiling tens of thousands of XPath filters into AFAs is the one-time
cost a broker pays at startup; this module serialises a compiled
:class:`~repro.afa.automaton.WorkloadAutomata` to a JSON document so a
restarted broker can skip re-parsing and re-compiling the workload.
The format is versioned, self-contained and pickle-free (safe to load
from untrusted storage: it is plain data validated on load).

The lazily-built machine *states* are deliberately not persisted — they
are a cache (Sec. 7's framing) and re-warm quickly; training (Sec. 5)
exists precisely to rebuild them cheaply.  The same goes for the
compiled bitmask tables (:class:`~repro.afa.automaton.CompiledMasks`)
and the codegen runtime's generated handler functions
(:mod:`repro.afa.codegen`): both are derived data, rebuilt
deterministically from the finalized workload on load, so the JSON
format needs no new fields and old snapshots keep loading under every
runtime unchanged.  (Engine-level snapshots additionally record which
*runtime* was active so a restored engine rebuilds the same machine
shape — but never the generated code itself.)

Memory-manager state (the Sec. 6 watermark bookkeeping: resident-byte
estimates, clock hands, reference bits) is likewise not persisted: it
describes the transient cache, not the workload.  A machine rebuilt
from a snapshot starts with fresh books and re-converges under the same
``max_memory_bytes`` bound.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import IO, Any, Mapping

from repro.afa.automaton import AFA, AfaState, StateKind, WorkloadAutomata
from repro.afa.predicates import AtomicPredicate
from repro.errors import ReproError
from repro.xpush.options import RUNTIMES, XPushOptions

FORMAT_VERSION = 1


class PersistError(ReproError):
    """Raised when a persisted workload cannot be decoded."""


def restored_options(snapshot: Mapping[str, Any], options: XPushOptions) -> XPushOptions:
    """*options* under the runtime an engine snapshot records, if it
    records one.  Every engine's ``restore`` calls this before it
    changes anything, so a snapshot naming an unknown runtime is
    refused whole.  Snapshots of older versions also carry
    ``"schema_mode"`` and ``"schema_fingerprint"``; nothing reads them.
    """
    runtime = snapshot.get("runtime")
    if runtime is None:
        return options
    if runtime not in RUNTIMES:
        raise PersistError(
            f"snapshot records unknown runtime {runtime!r}; known: {sorted(RUNTIMES)}"
        )
    return replace(options, runtime=runtime)


def _predicate_to_json(predicate: AtomicPredicate | None):
    if predicate is None:
        return None
    return {"op": predicate.op, "constant": predicate.constant}


def _predicate_from_json(data) -> AtomicPredicate | None:
    if data is None:
        return None
    return AtomicPredicate(data["op"], data.get("constant"))


def workload_to_json(workload: WorkloadAutomata) -> dict:
    """A JSON-compatible dict capturing the compiled workload.

    An AFA record has no field for *retired*, so a workload carrying
    retired passengers (:meth:`WorkloadAutomata.extend`) is refused
    rather than written in a form that would load them back alive.
    """
    if workload.retired_filters:
        raise PersistError(
            f"workload carries {workload.retired_filters} retired filters; "
            "rebuild it from its live sources before persisting"
        )
    return {
        "format": "repro-workload",
        "version": FORMAT_VERSION,
        "states": [
            {
                "kind": state.kind.name,
                "predicate": _predicate_to_json(state.predicate),
                "edges": {label: targets for label, targets in state.edges.items()},
                "eps": list(state.eps),
                "top": sorted(state.top_labels),
            }
            for state in workload.states
        ],
        "afas": [
            {
                "oid": afa.oid,
                "initial": afa.initial,
                "source": afa.source,
                "states": list(afa.state_sids),
                "notification": afa.notification,
            }
            for afa in workload.afas
        ],
    }


def workload_from_json(data: dict) -> WorkloadAutomata:
    """Rebuild a compiled workload; inverse of :func:`workload_to_json`."""
    if not isinstance(data, dict) or data.get("format") != "repro-workload":
        raise PersistError("not a persisted repro workload")
    if data.get("version") != FORMAT_VERSION:
        raise PersistError(f"unsupported workload format version {data.get('version')!r}")
    workload = WorkloadAutomata()
    try:
        for entry in data["states"]:
            state = workload.new_state(
                StateKind[entry["kind"]], _predicate_from_json(entry["predicate"])
            )
            for label, targets in entry["edges"].items():
                for target in targets:
                    state.add_edge(label, int(target))
            state.eps.extend(int(sid) for sid in entry["eps"])
            state.top_labels.update(entry["top"])
        for index, entry in enumerate(data["afas"]):
            afa = AFA(
                oid=entry["oid"],
                initial=int(entry["initial"]),
                source=entry.get("source", ""),
                state_sids=tuple(int(s) for s in entry["states"]),
                notification=int(entry.get("notification", -1)),
            )
            for sid in afa.state_sids:
                workload.states[sid].owner = index
            workload.afas.append(afa)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise PersistError(f"malformed persisted workload: {error}") from None
    _validate(workload)
    return workload.finalize()


def _validate(workload: WorkloadAutomata) -> None:
    n = len(workload.states)
    for state in workload.states:
        for targets in state.edges.values():
            for target in targets:
                if not 0 <= target < n:
                    raise PersistError(f"edge target s{target} out of range")
        for child in state.eps:
            if not 0 <= child < n:
                raise PersistError(f"ε target s{child} out of range")
    oids = [afa.oid for afa in workload.afas]
    if len(set(oids)) != len(oids):
        raise PersistError("duplicate oids in persisted workload")
    for afa in workload.afas:
        if not 0 <= afa.initial < n:
            raise PersistError("initial state out of range")
    orphans = [state.sid for state in workload.states if state.owner < 0]
    if orphans:
        # Ownerless states would corrupt the per-filter owner masks the
        # bitmask runtime strips under early notification.
        raise PersistError(f"states without an owning AFA: {orphans[:8]}")


def save_engine_snapshot(snapshot: dict, target: str | IO) -> None:
    """Write an engine ``snapshot()`` capture (e.g. a layered engine's
    base + delta + tombstones) as JSON to a path or file object.

    This is the restart story of the update control plane: a worker or
    CLI session that dies with uncompacted updates resumes the exact
    workload version from this file via ``engine.restore(...)``."""
    if not isinstance(snapshot, dict) or not str(snapshot.get("format", "")).startswith(
        "repro-"
    ):
        raise PersistError("not an engine snapshot (missing repro format tag)")
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, separators=(",", ":"))
    else:
        json.dump(snapshot, target, separators=(",", ":"))


def load_engine_snapshot(source: str | IO) -> dict:
    """Read an engine snapshot written by :func:`save_engine_snapshot`.

    Only the envelope is validated here (it is plain data, safe to load
    from untrusted storage); the engine's ``restore()`` validates the
    payload it understands."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.load(source)
    if not isinstance(data, dict) or not str(data.get("format", "")).startswith(
        "repro-"
    ):
        raise PersistError("not an engine snapshot (missing repro format tag)")
    return data


def save_workload(workload: WorkloadAutomata, target: str | IO) -> None:
    """Write the compiled workload as JSON to a path or file object."""
    payload = workload_to_json(workload)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    else:
        json.dump(payload, target, separators=(",", ":"))


def load_workload(source: str | IO) -> WorkloadAutomata:
    """Read a compiled workload from a path or file object."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.load(source)
    return workload_from_json(data)

"""Schema-aware AFA specialization (DTD × AFA product pruning).

The datasets this library benchmarks against are generated from DTDs
(:mod:`repro.data.dtds`), and the paper already consumes the DTD for
the Sec. 5 order optimisation and training.  This module closes the
loop at compile time, in the spirit of schema-based scheduling of
event processors: intersect the workload's AFA with what the schema
can actually produce, *before* the bitmask and codegen runtimes build
their tables, so every downstream mask, sweep window and generated
handler shrinks for free.

Three analyses feed the specialization:

1. **Producible labels** — the parent→child label relation
   (:meth:`~repro.xmlstream.dtd.DTD.children_map`) closed from the
   root, plus the ``@name`` pseudo-labels of reachable elements.
   Label edges (and ⊤-edges) on labels the schema can never produce
   are deleted.
2. **Forward reachability** — after edge pruning, any AFA state no
   longer forward-reachable from an initial or notification state can
   never influence an answer on conforming input; its edges, ε-arcs,
   ⊤-edges and terminal predicate are stripped, so it vanishes from
   δ⁻¹, ``t_push``, the rank buckets and the atomic predicate index.
3. **Depth bound** — ``is_recursive``/``max_depth`` derive a hard
   stack bound for non-recursive schemas (attributes are pushed as
   pseudo-elements one level deeper), so the machine runs on a
   preallocated frame buffer instead of a growing list.

The pruned automaton is a genuine second
:class:`~repro.afa.automaton.WorkloadAutomata` over the *same* sid
space, finalized normally — its :class:`CompiledMasks` and compiled
handlers are built by the ordinary machinery and are cached per DTD
fingerprint on the original workload until that workload grows, so
machines and shards over one workload share one specialization.

Soundness (``schema_mode="trust"``) holds exactly on documents that
only use producible labels and respect the depth bound; those are the
only two assumptions the pruning makes, and they are precisely what
``schema_mode="validate"`` checks per event, falling back to the
unpruned tables for a non-conforming document instead of
mis-answering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.afa.automaton import (
    AFA,
    ATTRIBUTE_WILDCARD,
    WILDCARD,
    WorkloadAutomata,
)
from repro.errors import WorkloadError
from repro.xmlstream.dtd import DTD
from repro.xmlstream.events import attribute_label

#: Hard cap on the per-depth reachable-label iteration for recursive
#: DTDs (the level sequence must cycle within the label alphabet).
_LEVEL_CAP_SLACK = 2

#: Sentinel target sid for a pruned ⊤-edge (⊤ is not a state).
TOP = -1


def dtd_fingerprint(dtd: DTD) -> str:
    """A stable content hash of a DTD — root, content models (via the
    canonical :meth:`ContentParticle.__str__` serialization) and
    attribute declarations.  Engine snapshots record it so ``restore``
    can prove the caller supplied the same schema the pruned tables
    were derived from."""
    digest = hashlib.sha256()
    digest.update(f"root={dtd.root}\n".encode("utf-8"))
    for name in sorted(dtd.elements):
        decl = dtd.elements[name]
        attrs = ",".join(
            f"{attr.name}{'!' if attr.required else ''}"
            for attr in sorted(decl.attributes, key=lambda a: a.name)
        )
        digest.update(f"{name}:{decl.content}:{attrs}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class SchemaAnalysis:
    """What the DTD can produce, from the specializer's point of view.

    Attributes:
        fingerprint: :func:`dtd_fingerprint` of the source DTD.
        element_labels: element labels reachable from the root.
        attribute_labels: ``@name`` pseudo-labels of reachable elements.
        producible: the union — every label a conforming document can
            fire a start-element event for.
        levels: per-depth reachable element-label sets (depth 1 = the
            root); truncated at the saturation point for recursive DTDs.
        saturated: True when *levels* was cut off by recursion.
        is_recursive: :meth:`DTD.is_recursive`.
        max_depth: :meth:`DTD.max_depth` (None when recursive).
        depth_bound: hard bound on machine stack depth — element depth
            plus one pseudo-level when any reachable element declares
            attributes; None when the DTD is recursive.
    """

    fingerprint: str
    element_labels: frozenset[str]
    attribute_labels: frozenset[str]
    producible: frozenset[str]
    levels: tuple[frozenset[str], ...]
    saturated: bool
    is_recursive: bool
    max_depth: int | None
    depth_bound: int | None


def analyze(dtd: DTD) -> SchemaAnalysis:
    """The schema-side half of the specialization: producible labels,
    per-depth reachable sets and the stack depth bound."""
    children = dtd.children_map()
    reachable: set[str] = set()
    frontier = [dtd.root]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(children[name])
    attrs: set[str] = set()
    for name in reachable:
        for attr in dtd.elements[name].attributes:
            attrs.add(attribute_label(attr.name))

    levels: list[frozenset[str]] = []
    level = frozenset((dtd.root,))
    cap = len(dtd.elements) + _LEVEL_CAP_SLACK
    saturated = False
    while level:
        if level in levels or len(levels) >= cap:
            saturated = True  # recursion: the level sequence cycles
            break
        levels.append(level)
        nxt: set[str] = set()
        for name in level:
            nxt |= children[name]
        level = frozenset(nxt)

    recursive = dtd.is_recursive()
    max_depth = None if recursive else dtd.max_depth()
    depth_bound: int | None = None
    if max_depth is not None:
        depth_bound = max_depth + (1 if attrs else 0)
    return SchemaAnalysis(
        fingerprint=dtd_fingerprint(dtd),
        element_labels=frozenset(reachable),
        attribute_labels=frozenset(attrs),
        producible=frozenset(reachable) | frozenset(attrs),
        levels=tuple(levels),
        saturated=saturated,
        is_recursive=recursive,
        max_depth=max_depth,
        depth_bound=depth_bound,
    )


@dataclass(frozen=True)
class SchemaSpec:
    """One workload × one DTD: the pruned automaton and what was cut.

    Attributes:
        analysis: the schema-side :class:`SchemaAnalysis`.
        workload: the pruned, finalized clone over the same sid space —
            its ``masks`` / ``compiled_handlers`` feed the machine.
        pruned_sids: sids stripped as forward-unreachable.
        pruned_edges: deleted transitions as ``(source sid, label,
            target sid)`` triples (:data:`TOP` marks a pruned ⊤-edge).
    """

    analysis: SchemaAnalysis
    workload: WorkloadAutomata
    pruned_sids: tuple[int, ...]
    pruned_edges: tuple[tuple[int, str, int], ...]

    @property
    def pruned_state_count(self) -> int:
        return len(self.pruned_sids)

    @property
    def pruned_edge_count(self) -> int:
        return len(self.pruned_edges)

    def describe(self) -> str:
        """Human-readable dump for ``repro explain --schema``."""
        analysis = self.analysis
        lines = [
            f"fingerprint : {analysis.fingerprint[:16]}…",
            f"producible  : {len(analysis.element_labels)} elements, "
            f"{len(analysis.attribute_labels)} attribute labels",
            "recursive   : "
            + ("yes (no depth bound)" if analysis.is_recursive
               else f"no (max element depth {analysis.max_depth}, "
                    f"stack bound {analysis.depth_bound})"),
            f"pruned      : {self.pruned_state_count} states, "
            f"{self.pruned_edge_count} edges",
        ]
        for depth, level in enumerate(analysis.levels, start=1):
            lines.append(f"  depth {depth}: {', '.join(sorted(level))}")
        if analysis.saturated:
            lines.append("  depth …: saturated (recursive content model)")
        if self.pruned_sids:
            shown = ", ".join(f"s{sid}" for sid in self.pruned_sids[:20])
            more = len(self.pruned_sids) - 20
            lines.append(
                f"pruned states: {shown}{f', … +{more}' if more > 0 else ''}"
            )
        for source, label, target in self.pruned_edges[:20]:
            arrow = "⊤" if target == TOP else f"s{target}"
            lines.append(f"pruned edge : s{source} --{label}--> {arrow}")
        if len(self.pruned_edges) > 20:
            lines.append(f"pruned edge : … +{len(self.pruned_edges) - 20} more")
        return "\n".join(lines)


def specialize(workload: WorkloadAutomata, dtd: DTD) -> SchemaSpec:
    """The DTD × AFA product pruning, cached per DTD fingerprint on the
    workload (machines and shards over it share one result; growing the
    workload drops the cache).

    The clone keeps the original sid numbering (states are re-created
    in append order), so oids, owners, notification states and every
    externally visible mask bit line up with the unpruned automaton —
    only impossible transitions and dead states are emptied out.
    """
    if workload.masks is None:
        raise WorkloadError(
            "schema specialization needs a finalized workload (call finalize())"
        )
    analysis = analyze(dtd)
    cached = workload._schema_cache.get(analysis.fingerprint)
    if cached is not None:
        return cached

    producible = analysis.producible
    pruned_edges: list[tuple[int, str, int]] = []
    clone = WorkloadAutomata()
    for state in workload.states:
        twin = clone.new_state(state.kind, state.predicate)
        for label, targets in state.edges.items():
            if label in (WILDCARD, ATTRIBUTE_WILDCARD) or label in producible:
                for target in targets:
                    twin.add_edge(label, target)
            else:
                pruned_edges.extend((state.sid, label, target) for target in targets)
        twin.eps = list(state.eps)
        for label in state.top_labels:
            if label in (WILDCARD, ATTRIBUTE_WILDCARD) or label in producible:
                twin.top_labels.add(label)
            else:
                pruned_edges.append((state.sid, label, TOP))

    # Forward reachability from the answer-relevant seeds.  Membership
    # of a state in any computed set can only influence acceptance (or
    # an early notification) along its own edges and ε-arcs, so states
    # outside this cone are dead weight: strip them entirely.
    seeds = {afa.initial for afa in workload.afas}
    seeds.update(afa.notification for afa in workload.afas if afa.notification >= 0)
    reached: set[int] = set()
    stack = list(seeds)
    while stack:
        sid = stack.pop()
        if sid in reached:
            continue
        reached.add(sid)
        twin = clone.states[sid]
        for targets in twin.edges.values():
            stack.extend(targets)
        stack.extend(twin.eps)
    pruned_sids = tuple(
        state.sid for state in clone.states if state.sid not in reached
    )
    for sid in pruned_sids:
        twin = clone.states[sid]
        twin.edges = {}
        twin.eps = []
        twin.top_labels = set()
        twin.predicate = None

    for index, afa in enumerate(workload.afas):
        clone.afas.append(
            AFA(
                oid=afa.oid,
                initial=afa.initial,
                source=afa.source,
                state_sids=afa.state_sids,
                notification=afa.notification,
                retired=afa.retired,
            )
        )
        for sid in afa.state_sids:
            clone.states[sid].owner = index
    clone.finalize()
    assert clone.masks is not None
    # Per-element-type transition rows: resolve the wildcard push rows
    # to direct per-label table hits for every label the schema can
    # produce, so ``t_push`` never falls through to the wildcard
    # default and codegen emits a literal handler per element type.
    clone.masks.materialize_push_rows(
        sorted(analysis.element_labels), sorted(analysis.attribute_labels)
    )

    spec = SchemaSpec(
        analysis=analysis,
        workload=clone,
        pruned_sids=pruned_sids,
        pruned_edges=tuple(pruned_edges),
    )
    workload._schema_cache[analysis.fingerprint] = spec
    return spec

"""Graphviz (dot) export for AFAs.

Produces the Fig. 4-style picture of a workload's automata for
debugging and documentation (render with ``dot -Tsvg``).  No graphviz
dependency: we only emit the text format.
"""

from __future__ import annotations

from repro.afa.automaton import StateKind, WorkloadAutomata


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def afa_to_dot(workload: WorkloadAutomata, title: str = "workload") -> str:
    """The workload's AFAs as one dot digraph, one cluster per AFA,
    labelled with the oids it answers to (copies of a filter share one
    AFA; a retired one shows the oid it was compiled for)."""
    lines = [
        f"digraph {_quote(title)} {{",
        "  rankdir=TB;",
        "  node [fontsize=10];",
    ]
    for index, afa in enumerate(workload.afas):
        lines.append(f"  subgraph cluster_{index} {{")
        oids = ", ".join(sorted(workload.accepted_oids((afa.initial,)))) or afa.oid
        lines.append(f"    label={_quote(f'{oids}: {afa.source}')};")
        for sid in afa.state_sids:
            state = workload.states[sid]
            label = f"s{sid}"
            shape = "circle"
            if state.kind is StateKind.AND:
                label += "\\nAND"
                shape = "box"
            elif state.kind is StateKind.NOT:
                label += "\\nNOT"
                shape = "diamond"
            if state.is_terminal:
                label += f"\\n{state.predicate}"
                shape = "doublecircle"
            extra = ", peripheries=2" if sid == afa.initial and not state.is_terminal else ""
            lines.append(f"    n{sid} [label={_quote(label)}, shape={shape}{extra}];")
            if state.top_labels:
                lines.append(f"    top{sid} [label={_quote('⊤')}, shape=plaintext];")
        for sid in afa.state_sids:
            state = workload.states[sid]
            for label, targets in sorted(state.edges.items()):
                for target in targets:
                    lines.append(f"    n{sid} -> n{target} [label={_quote(label)}];")
            for child in state.eps:
                lines.append(f"    n{sid} -> n{child} [label={_quote('ε')}, style=dashed];")
            for label in sorted(state.top_labels):
                lines.append(f"    n{sid} -> top{sid} [label={_quote(label)}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Graphviz (dot) export for AFAs and lazily materialised XPush states.

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


def machine_states_to_dot(machine, max_states: int = 200, title: str = "xpush") -> str:
    """The materialised bottom-up states and their t_pop/t_badd edges.

    Caps at *max_states* nodes — the lazy machine can hold thousands.
    """
    states = machine.store.bottom_states()[:max_states]
    shown = {state.uid for state in states}
    lines = [
        f"digraph {_quote(title)} {{",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=9];",
    ]
    for state in states:
        body = ",".join(str(s) for s in state.sids[:10])
        if len(state.sids) > 10:
            body += ",…"
        label = f"q{state.uid}\\n{{{body}}}"
        if state.accepts:
            label += "\\naccepts " + ",".join(sorted(state.accepts))
        lines.append(f"  q{state.uid} [label={_quote(label)}];")
    for state in states:
        for key, (target, _notified) in state.pop_table.items():
            if target.uid in shown:
                tag = key if isinstance(key, str) else key[0]
                lines.append(
                    f"  q{state.uid} -> q{target.uid} [label={_quote('pop ' + str(tag))}];"
                )
        for other_uid, target in state.add_table.items():
            if target.uid in shown and other_uid != target.uid:
                lines.append(
                    f"  q{state.uid} -> q{target.uid} "
                    f"[label={_quote(f'+q{other_uid}')}, style=dotted];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"

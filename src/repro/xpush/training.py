"""Training the XPush machine (Sec. 5).

"We generate one XML document tree D for every XPath query tree P:
atomic predicates are replaced with values that satisfy them, and label
constants are replaced with elements or attributes.  Wildcards * and //
are expanded using the DTD, and boolean connectors are simply ignored.
… The DTD is also consulted to generate the elements in the right
order.  All such generated documents are concatenated and the result is
called training data."

Running the lazy machine over this data precomputes many of the states
the real data will need — including all the ``t_value`` states, which
is why the paper's TD+train variants recover the cost of not being able
to precompute the predicate index under top-down pruning (Sec. 7).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

from repro.afa.automaton import WorkloadAutomata
from repro.xmlstream.dom import Document, Element
from repro.xmlstream.dtd import DTD, ContentParticle
from repro.xpath.ast import (
    Axis,
    Comparison,
    Exists,
    LocationPath,
    NodeTestKind,
    Step,
    iter_predicates,
)
from repro.xpath.parser import parse_xpath


def satisfying_value(op: str, constant) -> str:
    """A value that makes ``value op constant`` true."""
    if isinstance(constant, (int, float)):
        number = constant
        if op in ("=", "<=", ">="):
            value = number
        elif op == ">":
            value = number + 1
        elif op in ("<", "!="):
            value = number - 1
        else:  # pragma: no cover - guarded by the AST
            raise ValueError(f"numeric constant with operator {op!r}")
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return str(value)
    if op in ("=", "<=", ">=", "contains"):
        return constant
    if op == ">":
        return constant + "z"
    if op == "starts-with":
        return constant + "0"
    if op in ("<", "!="):
        return "!" + constant[:1] if constant else "!"
    raise ValueError(f"string constant with operator {op!r}")  # pragma: no cover


class _TrainingBuilder:
    """Builds one training document per filter."""

    def __init__(self, dtd: DTD | None, rng: random.Random):
        self.dtd = dtd
        self.rng = rng
        self.children_map = dtd.children_map() if dtd else {}
        self._rank_cache: dict[str, dict[str, int]] = {}
        self.root: Element | None = None

    # -- DTD helpers ----------------------------------------------------

    def _bfs_path(self, source: str | None, target: str) -> list[str] | None:
        """Labels strictly between *source* and *target* (exclusive of
        both), following the DTD child relation; None when unreachable.
        A None source means the virtual document root."""
        if not self.dtd:
            return []
        start = self.dtd.root if source is None else source
        if source is None and target == start:
            return []
        parents: dict[str, str] = {}
        queue: deque[str] = deque([start])
        seen = {start}
        while queue:
            label = queue.popleft()
            for child in self.children_map.get(label, ()):
                if child in seen:
                    continue
                parents[child] = label
                if child == target:
                    chain: list[str] = []
                    cursor = label
                    while cursor != start:
                        chain.append(cursor)
                        cursor = parents[cursor]
                    chain.reverse()
                    if source is None:
                        chain.insert(0, start)
                    return chain
                seen.add(child)
                queue.append(child)
        return None

    def _pick_child_label(self, context: Element | None) -> str:
        if self.dtd:
            if context is None:
                return self.dtd.root
            allowed = sorted(self.children_map.get(context.label, ()))
            if allowed:
                return self.rng.choice(allowed)
        return "any"

    def _child_rank(self, parent_label: str) -> dict[str, int]:
        ranks = self._rank_cache.get(parent_label)
        if ranks is not None:
            return ranks
        ranks = {}
        if self.dtd and parent_label in self.dtd.elements:
            position = 0
            stack = [self.dtd.elements[parent_label].content]
            order: list[ContentParticle] = []
            while stack:
                particle = stack.pop(0)
                if particle.kind == "element":
                    if particle.label not in ranks:
                        ranks[particle.label] = position
                        position += 1
                elif particle.kind in ("seq", "choice"):
                    stack = list(particle.children) + stack
        self._rank_cache[parent_label] = ranks
        return ranks

    # -- document assembly ----------------------------------------------

    def build(self, path: LocationPath) -> Document | None:
        self.root = None
        self._walk(None, list(path.steps), None)
        if self.root is None:
            return None
        self._sort_children(self.root)
        return Document(self.root)

    def _attach(self, context: Element | None, label: str) -> Element:
        node = Element(label)
        if context is None:
            if self.root is None:
                self.root = node
                return node
            # A second top-level element cannot exist; nest under root.
            self.root.children.append(node)
            return node
        context.children.append(node)
        return node

    def _walk(self, context: Element | None, steps: list[Step], value: str | None) -> None:
        if not steps:
            if value is not None and context is not None and not context.children:
                context.text = value
            return
        step, rest = steps[0], steps[1:]
        kind = step.test.kind

        if step.axis is Axis.SELF:
            self._apply_predicates(context, step)
            self._walk(context, rest, value)
            return

        if kind is NodeTestKind.TEXT:
            if context is not None:
                context.text = value if value is not None else "0"
            return

        if kind in (NodeTestKind.ATTRIBUTE, NodeTestKind.ATTRIBUTE_WILDCARD):
            if context is None:
                return  # attributes cannot hang off the virtual root
            name = step.test.name[1:] if kind is NodeTestKind.ATTRIBUTE else "any"
            context.attributes.append((name, value if value is not None else "0"))
            return

        if kind is NodeTestKind.WILDCARD:
            label = self._pick_child_label(context)
        else:
            label = step.test.name

        cursor = context
        if step.axis is Axis.DESCENDANT:
            chain = self._bfs_path(context.label if context else None, label)
            for intermediate in chain or []:
                cursor = self._attach(cursor, intermediate)
        node = self._attach(cursor, label)
        self._apply_predicates(node, step)
        if not rest and value is not None and not node.children:
            node.text = value
        self._walk(node, rest, value)

    def _apply_predicates(self, node: Element | None, step: Step) -> None:
        if node is None:
            return
        for predicate in step.predicates:
            for atom in iter_predicates(predicate):
                if isinstance(atom, Comparison):
                    self._walk(node, list(atom.path.steps), satisfying_value(atom.op, atom.value))
                elif isinstance(atom, Exists):
                    self._walk(node, list(atom.path.steps), None)

    def _sort_children(self, node: Element) -> None:
        ranks = self._child_rank(node.label)
        if ranks:
            node.children.sort(key=lambda child: ranks.get(child.label, len(ranks)))
        for child in node.children:
            self._sort_children(child)


def training_documents(
    workload: WorkloadAutomata,
    dtd: DTD | None = None,
    rng: random.Random | None = None,
) -> Iterator[Document]:
    """One training document per filter in the workload (Sec. 5).

    Filters are recovered from the AFA ``source`` strings; filters whose
    training tree degenerates (e.g. pure attribute filters) are skipped.
    """
    builder = _TrainingBuilder(dtd, rng or random.Random(0))
    for afa in workload.afas:
        if not afa.source:
            continue
        path = parse_xpath(afa.source).path
        document = builder.build(path)
        if document is not None:
            yield document

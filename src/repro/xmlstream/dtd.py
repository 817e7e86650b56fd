"""DTD model: content models, sibling order, generation, validation.

The paper uses the DTD in three ways, all implemented here:

1. **Order optimisation** (Sec. 5): "we use the DTD to define a partial
   order on elements and attributes: ``a ≺ b`` if *a* must precede *b*
   whenever *a* and *b* are siblings.  Every attribute always precedes
   every element."  :meth:`DTD.sibling_order` extracts exactly that
   relation, conservatively, from the content models.
2. **Training** (Sec. 5): wildcards and ``//`` in queries are expanded
   using the DTD, and training documents list children in DTD order.
3. **Dataset structure**: the Protein DTD is non-recursive with maximum
   document depth 7, the NASA DTD is recursive with depth 8
   (:mod:`repro.data.dtds`); :meth:`DTD.generate` produces random
   conforming documents, and :meth:`DTD.validate` checks conformance
   (content models are compiled to NFAs by Thompson construction and
   simulated over the child-label sequence).

Content models are the standard DTD particles: ``EMPTY``, ``(#PCDATA)``,
element references, sequences and choices, each with an occurrence
indicator ``''``/``?``/``*``/``+``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.errors import DTDError
from repro.xmlstream.dom import Document, Element
from repro.xmlstream.events import attribute_label

OCCURRENCES = ("", "?", "*", "+")


@dataclass(frozen=True)
class ContentParticle:
    """One node of a DTD content model.

    Attributes:
        kind: ``"element"``, ``"seq"``, ``"choice"``, ``"pcdata"`` or
            ``"empty"``.
        label: referenced element name (``kind == "element"`` only).
        children: sub-particles (``seq``/``choice`` only).
        occurrence: ``""`` (exactly once), ``"?"``, ``"*"`` or ``"+"``.
    """

    kind: str
    label: str | None = None
    children: tuple["ContentParticle", ...] = ()
    occurrence: str = ""

    def __post_init__(self):
        if self.kind not in ("element", "seq", "choice", "pcdata", "empty"):
            raise DTDError(f"unknown particle kind {self.kind!r}")
        if self.occurrence not in OCCURRENCES:
            raise DTDError(f"bad occurrence indicator {self.occurrence!r}")
        if self.kind == "element" and not self.label:
            raise DTDError("element particle requires a label")
        if self.kind in ("seq", "choice") and not self.children:
            raise DTDError(f"{self.kind} particle requires children")

    def labels(self) -> frozenset[str]:
        """All element labels that can occur anywhere in this particle."""
        if self.kind == "element":
            return frozenset((self.label,))
        out: set[str] = set()
        for child in self.children:
            out |= child.labels()
        return frozenset(out)

    def __str__(self) -> str:
        if self.kind == "empty":
            return "EMPTY"
        if self.kind == "pcdata":
            return "(#PCDATA)"
        if self.kind == "element":
            return self.label + self.occurrence
        sep = ", " if self.kind == "seq" else " | "
        return "(" + sep.join(str(c) for c in self.children) + ")" + self.occurrence


def elem(label: str, occurrence: str = "") -> ContentParticle:
    """Element-reference particle (``b?``, ``b*``…)."""
    return ContentParticle("element", label=label, occurrence=occurrence)


def seq(*children: ContentParticle, occurrence: str = "") -> ContentParticle:
    """Sequence particle ``(c1, c2, …)``."""
    return ContentParticle("seq", children=tuple(children), occurrence=occurrence)


def choice(*children: ContentParticle, occurrence: str = "") -> ContentParticle:
    """Choice particle ``(c1 | c2 | …)``."""
    return ContentParticle("choice", children=tuple(children), occurrence=occurrence)


PCDATA = ContentParticle("pcdata")
EMPTY = ContentParticle("empty")


@dataclass(frozen=True)
class AttributeDecl:
    """One declared attribute: its name and whether it is #REQUIRED."""

    name: str
    required: bool = False


@dataclass(frozen=True)
class ElementDecl:
    """One <!ELEMENT …> plus its <!ATTLIST …>."""

    name: str
    content: ContentParticle
    attributes: tuple[AttributeDecl, ...] = ()


class DTD:
    """A document type: a root element and a set of element declarations."""

    def __init__(self, root: str, declarations: Iterable[ElementDecl]):
        self.root = root
        self.elements: dict[str, ElementDecl] = {}
        for decl in declarations:
            if decl.name in self.elements:
                raise DTDError(f"duplicate declaration for element {decl.name!r}")
            self.elements[decl.name] = decl
        if root not in self.elements:
            raise DTDError(f"root element {root!r} is not declared")
        for decl in self.elements.values():
            for label in decl.content.labels():
                if label not in self.elements:
                    raise DTDError(f"element {decl.name!r} references undeclared {label!r}")
        self._order_cache: frozenset[tuple[str, str]] | None = None
        self._min_depth_cache: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Structural analysis
    # ------------------------------------------------------------------

    def element_labels(self) -> list[str]:
        return list(self.elements)

    def attribute_labels(self) -> list[str]:
        """All ``@name`` pseudo-element labels declared anywhere."""
        out: list[str] = []
        seen: set[str] = set()
        for decl in self.elements.values():
            for attr in decl.attributes:
                label = attribute_label(attr.name)
                if label not in seen:
                    seen.add(label)
                    out.append(label)
        return out

    def children_map(self) -> dict[str, frozenset[str]]:
        """label → set of element labels allowed as its children."""
        return {name: decl.content.labels() for name, decl in self.elements.items()}

    def is_recursive(self) -> bool:
        """True if some element can (transitively) contain itself."""
        children = self.children_map()
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in children}

        def visit(name: str) -> bool:
            colour[name] = GREY
            for child in children[name]:
                if colour[child] == GREY:
                    return True
                if colour[child] == WHITE and visit(child):
                    return True
            colour[name] = BLACK
            return False

        return any(visit(name) for name in children if colour[name] == WHITE)

    def max_depth(self) -> int | None:
        """Maximum element-nesting depth, or None for a recursive DTD."""
        if self.is_recursive():
            return None
        children = self.children_map()
        memo: dict[str, int] = {}

        def depth(name: str) -> int:
            if name not in memo:
                kids = children[name]
                memo[name] = 1 + (max(depth(k) for k in kids) if kids else 0)
            return memo[name]

        return depth(self.root)

    def min_depths(self) -> dict[str, int]:
        """Minimum subtree depth needed to complete each element.

        Used by the generator to steer away from recursion when the
        depth budget runs low.  Computed as a fixpoint so recursive DTDs
        are handled (an element whose every expansion recurses forever
        would keep an infinite bound; our DTDs always terminate).
        """
        if self._min_depth_cache is not None:
            return self._min_depth_cache
        INF = 10**9
        depth = {name: INF for name in self.elements}

        def particle_min(particle: ContentParticle) -> int:
            if particle.kind in ("pcdata", "empty"):
                return 0
            if particle.occurrence in ("?", "*"):
                return 0
            if particle.kind == "element":
                return depth[particle.label]
            if particle.kind == "seq":
                return max(particle_min(child) for child in particle.children)
            return min(particle_min(child) for child in particle.children)

        changed = True
        while changed:
            changed = False
            for name, decl in self.elements.items():
                new = 1 + particle_min(decl.content)
                if new < depth[name]:
                    depth[name] = new
                    changed = True
        self._min_depth_cache = depth
        return depth

    # ------------------------------------------------------------------
    # Sibling order (Sec. 5, order optimisation)
    # ------------------------------------------------------------------

    def sibling_order(self) -> frozenset[tuple[str, str]]:
        """The partial order ``a ≺ b`` of Sec. 5 as a set of pairs.

        ``(a, b)`` is in the result iff *a* must precede *b* whenever
        the two occur as siblings.  Element/element pairs are derived
        conservatively from the content models; in addition every
        declared attribute label precedes every element label ("every
        attribute always precedes every element").
        """
        if self._order_cache is not None:
            return self._order_cache
        votes: dict[tuple[str, str], bool] = {}
        cooccur: set[frozenset[str]] = set()
        for decl in self.elements.values():
            pairs, labels = _ordered_pairs(decl.content)
            for x in labels:
                for y in labels:
                    if x != y:
                        cooccur.add(frozenset((x, y)))
            for pair in pairs:
                votes.setdefault(pair, True)
            # A pair that co-occurs here without a guaranteed order kills
            # the global claim.
            for x in labels:
                for y in labels:
                    if x != y and (x, y) not in pairs:
                        votes[(x, y)] = False
        order = {pair for pair, ok in votes.items() if ok}
        # Contradictions (possible when the same labels appear in several
        # declarations with opposite orders) cancel out.
        order = {(x, y) for (x, y) in order if (y, x) not in order}
        for attr in self.attribute_labels():
            for element in self.elements:
                order.add((attr, element))
        self._order_cache = frozenset(order)
        return self._order_cache

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, document: Document) -> None:
        """Raise :class:`DTDError` unless *document* conforms to the DTD."""
        if document.root.label != self.root:
            raise DTDError(f"root is <{document.root.label}>, expected <{self.root}>")
        for node in document.root.iter_descendants():
            self._validate_element(node)

    def _validate_element(self, node: Element) -> None:
        decl = self.elements.get(node.label)
        if decl is None:
            raise DTDError(f"undeclared element <{node.label}>")
        declared = {attr.name for attr in decl.attributes}
        present = {name for name, _ in node.attributes}
        for attr in decl.attributes:
            if attr.required and attr.name not in present:
                raise DTDError(f"<{node.label}> is missing required attribute {attr.name!r}")
        undeclared = present - declared
        if undeclared:
            raise DTDError(f"<{node.label}> has undeclared attributes {sorted(undeclared)}")
        content = decl.content
        if content.kind == "empty":
            if node.children or (node.text is not None and node.text.strip()):
                raise DTDError(f"<{node.label}> is declared EMPTY but has content")
            return
        if content.kind == "pcdata":
            if node.children:
                raise DTDError(f"<{node.label}> is declared (#PCDATA) but has element children")
            return
        if node.text is not None and node.text.strip():
            raise DTDError(f"<{node.label}> has element content but contains text")
        nfa = _content_nfa(content)
        if not nfa.accepts([child.label for child in node.children]):
            got = ", ".join(child.label for child in node.children) or "(nothing)"
            raise DTDError(f"children of <{node.label}> [{got}] do not match {content}")

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(
        self,
        rng: random.Random,
        text_for: Callable[[str, random.Random], str],
        max_depth: int | None = None,
        repeat_mean: float = 2.0,
        optional_probability: float = 0.5,
    ) -> Document:
        """Generate a random document conforming to this DTD.

        Args:
            rng: source of randomness (pass a seeded ``random.Random``
                for reproducible streams).
            text_for: callback producing the text value for a leaf
                element or attribute label (attribute labels carry the
                ``@`` prefix).
            max_depth: hard cap on nesting; required for recursive DTDs.
            repeat_mean: mean repetition count for ``*``/``+`` particles
                (geometric distribution).
            optional_probability: probability that a ``?`` particle or
                optional attribute is emitted.
        """
        min_depth = self.min_depths()
        if max_depth is None:
            max_depth = self.max_depth()
            if max_depth is None:
                raise DTDError("recursive DTD requires an explicit max_depth")

        def build(label: str, budget: int) -> Element:
            decl = self.elements[label]
            node = Element(label)
            for attr in decl.attributes:
                if attr.required or rng.random() < optional_probability:
                    node.attributes.append((attr.name, text_for(attribute_label(attr.name), rng)))
            if decl.content.kind == "pcdata":
                node.text = text_for(label, rng)
                return node
            if decl.content.kind == "empty":
                return node
            for child_label in self._expand(decl.content, budget - 1, rng, min_depth, repeat_mean, optional_probability):
                node.children.append(build(child_label, budget - 1))
            return node

        if min_depth[self.root] > max_depth:
            raise DTDError(f"max_depth={max_depth} cannot accommodate the root")
        return Document(build(self.root, max_depth))

    def _expand(
        self,
        particle: ContentParticle,
        budget: int,
        rng: random.Random,
        min_depth: Mapping[str, int],
        repeat_mean: float,
        optional_probability: float,
    ) -> list[str]:
        """Expand a content particle into a child-label sequence that
        fits within *budget* levels below the current element."""

        def fits(p: ContentParticle) -> bool:
            return _particle_min_depth(p, min_depth) <= budget

        def repetitions(at_least_one: bool) -> int:
            count = 1 if at_least_one else 0
            stop = 1.0 / max(repeat_mean, 1.0)
            while rng.random() > stop:
                count += 1
            return count

        out: list[str] = []

        def walk(p: ContentParticle) -> None:
            if p.kind in ("pcdata", "empty"):
                return
            occurrence = p.occurrence
            if occurrence == "?":
                if not fits(p.__class__(p.kind, p.label, p.children, "")) or rng.random() >= optional_probability:
                    return
                times = 1
            elif occurrence == "*":
                if not fits(ContentParticle(p.kind, p.label, p.children, "")):
                    return
                times = repetitions(at_least_one=False)
            elif occurrence == "+":
                times = repetitions(at_least_one=True)
            else:
                times = 1
            bare = ContentParticle(p.kind, p.label, p.children, "")
            for _ in range(times):
                if p.kind == "element":
                    out.append(p.label)
                elif p.kind == "seq":
                    for child in p.children:
                        walk(child)
                else:  # choice
                    viable = [c for c in p.children if _particle_min_depth(c, min_depth) <= budget]
                    if not viable:
                        raise DTDError(f"no viable alternative of {bare} fits depth budget {budget}")
                    walk(rng.choice(viable))

        walk(particle)
        return out


def _particle_min_depth(particle: ContentParticle, min_depth: Mapping[str, int]) -> int:
    """Levels strictly required below the parent to satisfy *particle*
    once (its own occurrence indicator is ignored by callers that have
    already decided to emit it)."""
    if particle.kind in ("pcdata", "empty"):
        return 0
    if particle.kind == "element":
        return min_depth[particle.label]
    if particle.kind == "seq":
        return max(
            _particle_min_depth(c, min_depth) if c.occurrence in ("", "+") else 0
            for c in particle.children
        )
    return min(_particle_min_depth(c, min_depth) for c in particle.children)


def _ordered_pairs(particle: ContentParticle) -> tuple[set[tuple[str, str]], frozenset[str]]:
    """Return (guaranteed-order pairs, labels) for one content model.

    ``(x, y)`` is included iff every instance of *x* precedes every
    instance of *y* among the children generated by this particle.
    Repetition (``*``/``+``) of a compound particle interleaves copies,
    so it destroys all order guarantees inside it.
    """
    labels = particle.labels()
    if particle.kind in ("pcdata", "empty", "element"):
        return set(), labels
    if particle.occurrence in ("*", "+"):
        return set(), labels
    if particle.kind == "choice":
        pairs: set[tuple[str, str]] = set()
        for child in particle.children:
            child_pairs, _ = _ordered_pairs(child)
            pairs |= child_pairs
        return pairs, labels
    # Sequence with occurrence "" or "?": children keep internal order and
    # earlier slots precede later slots.
    pairs = set()
    child_labels = [child.labels() for child in particle.children]
    for i, child in enumerate(particle.children):
        child_pairs, _ = _ordered_pairs(child)
        pairs |= child_pairs
        for j in range(i + 1, len(particle.children)):
            for x in child_labels[i]:
                for y in child_labels[j]:
                    if x != y:
                        pairs.add((x, y))
    # A label occurring in two different slots orders both ways; drop it.
    pairs = {(x, y) for (x, y) in pairs if (y, x) not in pairs}
    return pairs, labels


# ----------------------------------------------------------------------
# Content-model NFA (Thompson construction) for validation
# ----------------------------------------------------------------------


class _NFA:
    """Classic ε-NFA over element labels."""

    def __init__(self) -> None:
        self.transitions: list[dict[str, list[int]]] = []
        self.epsilon: list[list[int]] = []
        self.start = self.new_state()
        self.accept: int = -1

    def new_state(self) -> int:
        self.transitions.append({})
        self.epsilon.append([])
        return len(self.transitions) - 1

    def add(self, src: int, label: str, dst: int) -> None:
        self.transitions[src].setdefault(label, []).append(dst)

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon[src].append(dst)

    def closure(self, states: set[int]) -> set[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for nxt in self.epsilon[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def accepts(self, word: list[str]) -> bool:
        current = self.closure({self.start})
        for symbol in word:
            nxt: set[int] = set()
            for state in current:
                nxt.update(self.transitions[state].get(symbol, ()))
            if not nxt:
                return False
            current = self.closure(nxt)
        return self.accept in current


_NFA_CACHE: dict[ContentParticle, _NFA] = {}


def _content_nfa(particle: ContentParticle) -> _NFA:
    nfa = _NFA_CACHE.get(particle)
    if nfa is not None:
        return nfa
    nfa = _NFA()
    nfa.accept = _thompson(nfa, particle, nfa.start)
    _NFA_CACHE[particle] = nfa
    return nfa


def _thompson(nfa: _NFA, particle: ContentParticle, entry: int) -> int:
    """Wire *particle* starting at state *entry*; return its exit state."""
    if particle.kind in ("pcdata", "empty"):
        return entry

    def once(start: int) -> int:
        if particle.kind == "element":
            end = nfa.new_state()
            nfa.add(start, particle.label, end)
            return end
        if particle.kind == "seq":
            cursor = start
            for child in particle.children:
                cursor = _thompson(nfa, child, cursor)
            return cursor
        # choice
        join = nfa.new_state()
        for child in particle.children:
            fork = nfa.new_state()
            nfa.add_epsilon(start, fork)
            nfa.add_epsilon(_thompson(nfa, child, fork), join)
        return join

    occurrence = particle.occurrence
    if occurrence == "":
        return once(entry)
    if occurrence == "?":
        exit_state = once(entry)
        nfa.add_epsilon(entry, exit_state)
        return exit_state
    # * and +: loop back from the body's exit to its entry.
    body_entry = nfa.new_state()
    nfa.add_epsilon(entry, body_entry)
    body_exit = once(body_entry)
    nfa.add_epsilon(body_exit, body_entry)
    exit_state = nfa.new_state()
    nfa.add_epsilon(body_exit, exit_state)
    if occurrence == "*":
        nfa.add_epsilon(entry, exit_state)
    return exit_state

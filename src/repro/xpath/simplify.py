"""Boolean simplification of one filter's path.

The XPush machine eliminates work shared *between* filters; this pass
names redundancy *within* one filter, so that
:func:`repro.xpath.dedupe.canonical_key` gives filters that differ only
by it one key.  All rewrites are semantics-preserving (property-tested
against the reference evaluator):

- flatten nested conjunctions/disjunctions: ``a and (b and c)`` →
  ``a and b and c``;
- drop duplicate conjuncts/disjuncts: ``p and p`` → ``p`` (compared
  structurally — the common-predicate case the paper's Example 1.1
  highlights can occur within a single machine-generated filter too);
- eliminate double negation: ``not(not(q))`` → ``q``;
- collapse single-child connectives;
- recurse into predicate paths.

The pass never *adds* structure and is idempotent.
"""

from __future__ import annotations

from repro.xpath.ast import (
    And,
    BooleanExpr,
    Comparison,
    Exists,
    LocationPath,
    Not,
    Or,
    Step,
)


def simplify_path(path: LocationPath) -> LocationPath:
    steps = tuple(
        Step(
            step.axis,
            step.test,
            _dedupe(tuple(simplify_expr(p) for p in step.predicates)),
        )
        for step in path.steps
    )
    return LocationPath(steps, absolute=path.absolute)


def simplify_expr(expr: BooleanExpr) -> BooleanExpr:
    if isinstance(expr, Exists):
        return Exists(simplify_path(expr.path))
    if isinstance(expr, Comparison):
        return Comparison(simplify_path(expr.path), expr.op, expr.value)
    if isinstance(expr, Not):
        child = simplify_expr(expr.child)
        if isinstance(child, Not):
            return child.child  # not(not(q)) → q (already simplified)
        return Not(child)
    if isinstance(expr, (And, Or)):
        kind = type(expr)
        flattened: list[BooleanExpr] = []
        for child in expr.children:
            child = simplify_expr(child)
            if isinstance(child, kind):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        deduped = _dedupe(tuple(flattened))
        if len(deduped) == 1:
            return deduped[0]
        return kind(deduped)
    raise TypeError(f"not a boolean expression: {expr!r}")


def _dedupe(children: tuple[BooleanExpr, ...]) -> tuple[BooleanExpr, ...]:
    seen: set[BooleanExpr] = set()
    out: list[BooleanExpr] = []
    for child in children:
        if child not in seen:
            seen.add(child)
            out.append(child)
    return tuple(out)

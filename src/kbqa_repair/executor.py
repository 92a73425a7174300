"""Evaluate canonical queries over a knowledge base.

``execute`` is the production engine (index-driven, left-to-right joins).
``brute_force_execute`` enumerates every variable assignment over the KB's
terms and is the semantics-defining test oracle; keep it dumb.

Answers are plain frozensets of entity ids and/or typed literals.  The empty
set is a legal answer, distinct from any error.  Patterns over ids absent
from the schema simply match nothing; schema presence is a verifier concern,
not an execution error.
"""

from __future__ import annotations

import itertools

from .kb import KnowledgeBase
from .query import Aggregate, CanonicalQuery, Filter, Literal, Pattern, Term

_NUMERIC = ("integer", "float")


class SizeLimit(Exception):
    """Brute-force enumeration would exceed the configured bound."""


def _values_equal(a: object, b: object) -> bool:
    """Equality over bindings: entity ids by string, literals with numeric coercion."""
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.datatype in _NUMERIC and b.datatype in _NUMERIC:
            return float(a.value) == float(b.value)
        return a.datatype == b.datatype and a.value == b.value
    return a == b


def _compare(a: Literal, op: str, b: Literal) -> bool:
    """Filter comparison; cross-kind comparisons match nothing."""
    if a.datatype in _NUMERIC and b.datatype in _NUMERIC:
        left, right = float(a.value), float(b.value)
    elif a.datatype == b.datatype and a.datatype in ("string", "date"):
        left, right = a.value, b.value
    else:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _resolve(term: Term, binding: dict) -> object | None:
    """Ground a term against a binding; None means still free."""
    if term.kind == "var":
        return binding.get(term.value)
    if term.kind == "literal":
        return term.literal
    return term.value  # entity or class id


def _match_pattern(kb: KnowledgeBase, pattern: Pattern, binding: dict) -> list[dict]:
    s, p, o = pattern
    subject = _resolve(s, binding)

    if p.kind == "type_assert":
        class_id = o.value
        if subject is None:
            out = []
            for eid in kb.by_class.get(class_id, ()):
                extended = dict(binding)
                extended[s.value] = eid
                out.append(extended)
            return out
        if isinstance(subject, str) and class_id in kb.entity_classes(subject):
            return [binding]
        return []

    facts = kb.by_relation.get(p.value, ())
    if isinstance(subject, str):
        facts = tuple(f for f in kb.by_subject.get(subject, ()) if f.relation == p.value)
    else:
        target = _resolve(o, binding)
        if isinstance(target, str):
            facts = tuple(f for f in kb.by_object.get(target, ()) if f.relation == p.value)

    out = []
    for fact in facts:
        extended = binding
        fact_subject = fact.subject
        if subject is None:
            extended = dict(extended)
            extended[s.value] = fact_subject
        elif not _values_equal(subject, fact_subject):
            continue
        obj = _resolve(o, extended)
        if obj is None:
            if extended is binding:
                extended = dict(extended)
            extended[o.value] = fact.obj
        elif not _values_equal(obj, fact.obj):
            continue
        out.append(extended)
    return out


def execute_bindings(kb: KnowledgeBase, q: CanonicalQuery) -> list[dict]:
    """All satisfying variable assignments (pre-aggregation, pre-projection)."""
    bindings = [{}]
    for pattern in q.patterns:
        next_bindings = []
        for binding in bindings:
            next_bindings.extend(_match_pattern(kb, pattern, binding))
        bindings = next_bindings
        if not bindings:
            return []
    for f in q.filters:
        bindings = [b for b in bindings if _passes_filter(b, f)]
    return bindings


def _passes_filter(binding: dict, f: Filter) -> bool:
    value = binding.get(f.variable)
    return isinstance(value, Literal) and _compare(value, f.op, f.literal)


def _path_values(kb: KnowledgeBase, start: object, path: tuple[str, ...]) -> list[Literal]:
    frontier = {start} if isinstance(start, str) else set()
    for rid in path[:-1]:
        frontier = {
            f.obj
            for node in frontier
            for f in kb.by_subject.get(node, ())
            if f.relation == rid and not f.obj_is_literal
        }
    values = []
    for node in frontier:
        for f in kb.by_subject.get(node, ()):
            if f.relation == path[-1] and f.obj_is_literal and f.obj.datatype in _NUMERIC:
                values.append(f.obj)
    return values


def _aggregate(kb: KnowledgeBase, q: CanonicalQuery, projected: set) -> frozenset:
    agg = q.aggregate
    if agg.kind == "count":
        return frozenset({Literal(len(projected), "integer")})
    best = None
    attainers: list[object] = []
    for value in projected:
        candidates = _path_values(kb, value, agg.path)
        if not candidates:
            continue
        numbers = [float(c.value) for c in candidates]
        score = max(numbers) if agg.kind == "argmax" else min(numbers)
        if best is None or (agg.kind == "argmax" and score > best) or (
            agg.kind == "argmin" and score < best
        ):
            best = score
            attainers = [value]
        elif score == best:
            attainers.append(value)
    return frozenset(attainers)


def execute(kb: KnowledgeBase, q: CanonicalQuery) -> frozenset:
    """Answer set for q over kb; set semantics, aggregates applied last."""
    bindings = execute_bindings(kb, q)
    projected = {b[q.projection] for b in bindings}
    if q.aggregate is not None:
        return _aggregate(kb, q, projected)
    return frozenset(projected)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_execute(kb: KnowledgeBase, q: CanonicalQuery, limit: int = 5_000_000) -> frozenset:
    """Reference semantics by exhaustive assignment enumeration.

    The variable domain is every entity id plus every literal appearing in a
    fact.  Raises SizeLimit when the assignment space exceeds ``limit``.
    """
    domain: list[object] = sorted(kb.entities)
    seen_literals = set()
    for fact in kb.facts:
        if fact.obj_is_literal and fact.obj not in seen_literals:
            seen_literals.add(fact.obj)
            domain.append(fact.obj)

    variables = q.variables()
    if len(domain) ** len(variables) > limit:
        raise SizeLimit(
            f"{len(domain)}^{len(variables)} assignments exceed the bound of {limit}"
        )

    def ground(term: Term, assignment: dict) -> object:
        if term.kind == "var":
            return assignment[term.value]
        if term.kind == "literal":
            return term.literal
        return term.value

    def holds(assignment: dict) -> bool:
        for s, p, o in q.patterns:
            subject = ground(s, assignment)
            if p.kind == "type_assert":
                if not isinstance(subject, str):
                    return False
                ent = kb.entities.get(subject)
                if ent is None or o.value not in ent.classes:
                    return False
                continue
            obj = ground(o, assignment)
            if not _fact_holds(kb, subject, p.value, obj):
                return False
        for f in q.filters:
            value = assignment.get(f.variable)
            if not isinstance(value, Literal) or not _compare(value, f.op, f.literal):
                return False
        return True

    projected = set()
    satisfying = []
    for combo in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if holds(assignment):
            satisfying.append(assignment)
            projected.add(assignment[q.projection])

    if q.aggregate is None:
        return frozenset(projected)
    if q.aggregate.kind == "count":
        return frozenset({Literal(len(projected), "integer")})
    return _brute_force_extremum(kb, q.aggregate, projected)


def _fact_holds(kb: KnowledgeBase, subject: object, relation: str, obj: object) -> bool:
    for fact in kb.facts:
        if fact.relation != relation:
            continue
        if not _values_equal(subject, fact.subject):
            continue
        if _values_equal(obj, fact.obj):
            return True
    return False


def _brute_force_extremum(kb: KnowledgeBase, agg: Aggregate, projected: set) -> frozenset:
    scores = {}
    for value in projected:
        frontier = {value} if isinstance(value, str) else set()
        for rid in agg.path[:-1]:
            frontier = {
                f.obj
                for f in kb.facts
                if f.relation == rid and f.subject in frontier and not f.obj_is_literal
            }
        numbers = [
            float(f.obj.value)
            for f in kb.facts
            if f.relation == agg.path[-1]
            and f.subject in frontier
            and f.obj_is_literal
            and f.obj.datatype in _NUMERIC
        ]
        if numbers:
            scores[value] = max(numbers) if agg.kind == "argmax" else min(numbers)
    if not scores:
        return frozenset()
    best = max(scores.values()) if agg.kind == "argmax" else min(scores.values())
    return frozenset(v for v, s in scores.items() if s == best)

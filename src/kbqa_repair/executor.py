"""Evaluate canonical queries over a knowledge base.

``execute`` is the engine (index-driven, left-to-right joins).  The
brute-force oracle it is tested against lives in ``tests/oracles.py`` and
shares this module's literal comparison (``_compare``, ``_values_equal``).

Answers are plain frozensets of entity ids and/or typed literals.  The empty
set is a legal answer, distinct from any error.  Patterns over ids absent
from the schema simply match nothing; schema presence is a verifier concern,
not an execution error.
"""

from __future__ import annotations

from .kb import KnowledgeBase
from .query import CanonicalQuery, Filter, Literal, Pattern, Term

_NUMERIC = ("integer", "float")


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

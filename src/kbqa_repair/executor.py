"""Evaluate canonical queries over a knowledge base.

``execute`` is the engine (left-to-right joins; each pattern reads one index
in one pass).  The brute-force oracle it is tested against lives in
``tests/oracles.py`` and shares this module's literal comparison
(``_compare``, ``_values_equal``).

Answers are plain frozensets of entity ids and/or typed literals.  The empty
set is a legal answer, distinct from any error.  Patterns over ids absent
from the schema simply match nothing; schema presence is a verifier concern,
not an execution error.
"""

from __future__ import annotations

import operator

from .kb import KnowledgeBase
from .query import Aggregate, CanonicalQuery, Filter, Literal, Pattern, Term

_NUMERIC = ("integer", "float")
_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


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
        return _OPS[op](float(a.value), float(b.value))
    if a.datatype == b.datatype and a.datatype in ("string", "date"):
        return _OPS[op](a.value, b.value)
    return False


def _resolve(term: Term, binding: dict) -> object | None:
    """Ground a term against a binding; None means still free."""
    return binding.get(term.value) if term.kind == "var" else term.value


def _match_pattern(kb: KnowledgeBase, pattern: Pattern, binding: dict) -> list[dict]:
    s, p, o = pattern
    subject = _resolve(s, binding)

    if p.kind == "type_assert":
        if subject is not None:
            return [binding] if o.value in kb.entity_classes(subject) else []
        out = []
        for eid in kb.by_class.get(o.value, ()):
            extended = dict(binding)
            extended[s.value] = eid
            out.append(extended)
        return out

    rid = p.value
    target = _resolve(o, binding)
    if subject is not None:
        facts = kb.by_subject.get(subject, ())
    elif isinstance(target, str):
        facts = kb.by_object.get(target, ())
    else:
        facts = kb.by_relation.get(rid, ())
    out = []
    for fact in facts:
        if fact.relation != rid:
            continue
        extended = binding if subject is not None else {**binding, s.value: fact.subject}
        obj = _resolve(o, extended)  # after the subject, so `?x r ?x` holds
        if obj is None:
            extended = {**extended, o.value: fact.obj}
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


def _aggregate(kb: KnowledgeBase, agg: Aggregate, projected: set) -> frozenset:
    if agg.kind == "count":
        return frozenset({Literal(len(projected), "integer")})
    best_of = max if agg.kind == "argmax" else min
    scores = {}
    for value in projected:
        numbers = [float(c.value) for c in _path_values(kb, value, agg.path)]
        if numbers:
            scores[value] = best_of(numbers)
    best = best_of(scores.values(), default=None)
    return frozenset(value for value, score in scores.items() if score == best)


def execute(kb: KnowledgeBase, q: CanonicalQuery) -> frozenset:
    """Answer set for q over kb; set semantics, aggregates applied last."""
    projected = {b[q.projection] for b in execute_bindings(kb, q)}
    if q.aggregate is not None:
        return _aggregate(kb, q.aggregate, projected)
    return frozenset(projected)

"""Test oracles: reference implementations that exist only to check the
package against.

``brute_force_execute`` defines query semantics by enumerating every variable
assignment over the KB's terms; keep it dumb.  It shares the engine's literal
comparison (``_compare``, ``_values_equal``), so both engines agree on one
rule for comparing literals.  ``same_as`` compares two knowledge bases by
value.
"""

from __future__ import annotations

import itertools

from kbqa_repair.executor import _NUMERIC, _compare, _values_equal
from kbqa_repair.kb import KnowledgeBase
from kbqa_repair.query import Aggregate, CanonicalQuery, Literal, Term


class SizeLimit(Exception):
    """Brute-force enumeration would exceed the configured bound."""


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
    for combo in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if holds(assignment):
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


def same_as(a: KnowledgeBase, b: KnowledgeBase) -> bool:
    return (
        a.classes == b.classes
        and a.relations == b.relations
        and a.entities == b.entities
        and a.facts == b.facts
    )

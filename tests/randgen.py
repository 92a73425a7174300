"""Seeded random KB and query generators shared by the randomized tests.

Kept dumb on purpose: small domains, valid-by-construction facts, queries
with at most three patterns and at most three variables so the brute-force
oracle stays cheap.
"""

from __future__ import annotations

import random

from kbqa_repair.kb import Entity, Fact, KnowledgeBase, RelationDef, SchemaClass, build_kb
from kbqa_repair.query import (
    TYPE_ASSERT,
    Aggregate,
    CanonicalQuery,
    Filter,
    Literal,
    QuerySyntaxError,
    Term,
    cls,
    entity,
    rel,
    var,
)

LITERAL_RANGES = ("integer", "float", "string", "date")


def _random_literal(rng: random.Random, datatype: str) -> Literal:
    """A literal of the datatype from a small domain, so equal values recur."""
    if datatype == "integer":
        return Literal(rng.randint(0, 50), "integer")
    if datatype == "float":
        return Literal(round(rng.uniform(0, 50), 1), "float")
    if datatype == "string":
        return Literal(rng.choice(("alpha", "beta", "gamma", "delta")), "string")
    return Literal(f"20{rng.randint(20, 24)}-0{rng.randint(1, 3)}-15", "date")


def random_kb(rng: random.Random, max_entities: int = 30) -> KnowledgeBase:
    n_classes = rng.randint(2, 4)
    classes = [SchemaClass(f"dom.c{i}", f"class {i}") for i in range(n_classes)]
    class_ids = [c.id for c in classes]

    relations = []
    for i in range(rng.randint(2, 5)):
        domain = rng.choice(class_ids)
        if rng.random() < 0.25:
            range_ = rng.choice(LITERAL_RANGES)
        else:
            range_ = rng.choice(class_ids)
        relations.append(RelationDef(f"dom.c.r{i}", domain, range_))
    return _populate(rng, classes, relations, max_entities)


# The hub schema's ids and labels are made of these words, so most of its
# ids share trigrams and each postings list of retrieval is long.
_HUB_WORDS = ("film", "music", "book", "author", "genre", "award", "person", "place")


def random_hub_kb(rng: random.Random) -> KnowledgeBase:
    """10 classes and 500 relations drawn from a few words, with random_kb's
    data."""
    classes = [
        SchemaClass(f"{rng.choice(_HUB_WORDS)}.c{i}", " ".join(rng.sample(_HUB_WORDS, 2)))
        for i in range(10)
    ]
    class_ids = [c.id for c in classes]
    relations = []
    for i in range(500):
        domain = rng.choice(class_ids)
        range_ = rng.choice(LITERAL_RANGES) if rng.random() < 0.25 else rng.choice(class_ids)
        relations.append(RelationDef(f"{domain}.{rng.choice(_HUB_WORDS)}_r{i}", domain, range_))
    return _populate(rng, classes, relations, 30)


def _populate(
    rng: random.Random, classes: list[SchemaClass], relations: list[RelationDef], max_entities: int
) -> KnowledgeBase:
    """The KB of a schema with 3 to ``max_entities`` random entities and
    facts valid by construction."""
    class_ids = [c.id for c in classes]
    n_classes = len(classes)
    n_entities = rng.randint(3, max_entities)
    entities = []
    for i in range(n_entities):
        k = rng.randint(1, min(2, n_classes))
        entities.append(
            Entity(f"m.e{i}", f"entity {i}", frozenset(rng.sample(class_ids, k)))
        )
    by_class = {c: [e for e in entities if c in e.classes] for c in class_ids}

    facts = []
    seen = set()
    for _ in range(rng.randint(3, 3 * n_entities)):
        rd = rng.choice(relations)
        subjects = by_class[rd.domain]
        if not subjects:
            continue
        subject = rng.choice(subjects).id
        if rd.range_is_literal:
            obj = _random_literal(rng, rd.range)
        else:
            targets = by_class[rd.range]
            if not targets:
                continue
            obj = rng.choice(targets).id
        fact = Fact(subject, rd.id, obj)
        if fact.key() not in seen:
            seen.add(fact.key())
            facts.append(fact)
    return build_kb(classes, relations, entities, facts)


def _random_term(rng: random.Random, kb: KnowledgeBase, variables: list[str], allow_new_var: bool):
    roll = rng.random()
    if roll < 0.55 and variables:
        return var(rng.choice(variables))
    if roll < 0.75 and allow_new_var and len(variables) < 3:
        name = f"v{len(variables)}"
        variables.append(name)
        return var(name)
    return entity(rng.choice(sorted(kb.entities)))


def random_query(rng: random.Random, kb: KnowledgeBase, max_patterns: int = 3) -> CanonicalQuery:
    """A random query over the KB's vocabulary (plus occasional ghosts)."""
    relation_ids = sorted(kb.relations)
    class_ids = sorted(kb.classes)
    for _ in range(50):
        variables: list[str] = []
        patterns = []
        filters = []
        for _ in range(rng.randint(1, max_patterns)):
            if rng.random() < 0.15 and class_ids:
                subject = _random_term(rng, kb, variables, True)
                if subject.kind != "var":
                    continue
                class_id = rng.choice(class_ids) if rng.random() < 0.9 else "ghost.class"
                patterns.append((subject, TYPE_ASSERT, cls(class_id)))
                continue
            rid = rng.choice(relation_ids) if rng.random() < 0.9 else "ghost.relation"
            rd = kb.relations.get(rid)
            subject = _random_term(rng, kb, variables, True)
            if rd is not None and rd.range_is_literal:
                if rng.random() < 0.5:
                    value = Term("literal", _random_literal(rng, rd.range))
                    patterns.append((subject, rel(rid), value))
                else:
                    obj = var(f"v{len(variables)}") if len(variables) < 3 else var(variables[-1])
                    if obj.value not in variables:
                        variables.append(obj.value)
                    patterns.append((subject, rel(rid), obj))
                    if rng.random() < 0.6:
                        op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
                        # Mostly of the range's datatype; else any, which compares false.
                        datatype = rd.range if rng.random() < 0.8 else rng.choice(LITERAL_RANGES)
                        filters.append(Filter(obj.value, op, _random_literal(rng, datatype)))
            else:
                obj = _random_term(rng, kb, variables, True)
                patterns.append((subject, rel(rid), obj))
        if not variables:
            continue
        aggregate = None
        if rng.random() < 0.15:
            aggregate = Aggregate("count")
        elif rng.random() < 0.2 and relation_ids:
            kind = rng.choice(("argmax", "argmin"))
            # Mostly a path that ends in a number and, half the time, a hop
            # before it whose range is that relation's domain.
            numeric = [r for r in relation_ids if kb.relations[r].range in ("integer", "float")]
            path = (rng.choice(numeric if numeric and rng.random() < 0.8 else relation_ids),)
            hops = [r for r in relation_ids if kb.relations[r].range == kb.relations[path[0]].domain]
            if hops and rng.random() < 0.5:
                path = (rng.choice(hops),) + path
            if rng.random() < 0.5:  # rank every entity of the path's domain, so ties occur
                variables, filters = ["v0"], []
                patterns = [(var("v0"), TYPE_ASSERT, cls(kb.relations[path[0]].domain))]
            aggregate = Aggregate(kind, path)
        query = CanonicalQuery(
            rng.choice(variables), True, tuple(patterns), tuple(filters), aggregate
        )
        try:
            query.validate()
        except QuerySyntaxError:
            continue
        return query
    raise AssertionError("failed to generate a valid random query")

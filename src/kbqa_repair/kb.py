"""In-memory knowledge base: schema plus data, immutable after load.

The KB consists of classes, binary relations (domain/range typed), entities
and facts.  Loading validates every referential invariant; deletion returns a
fresh KB with cascades applied, so values are always safe to share across
worker threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .query import LITERAL_DATATYPES, CanonicalQuery, Literal, entity as entity_term, rel, var


class FormatError(Exception):
    """Malformed input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ReferentialError(Exception):
    """A schema or data element references an id that does not exist."""


class UnknownId(Exception):
    """An operation was given an id that is not in the KB."""


@dataclass(frozen=True)
class SchemaClass:
    id: str
    label: str = ""


@dataclass(frozen=True)
class RelationDef:
    id: str
    domain: str
    range: str  # class id or one of LITERAL_DATATYPES

    @property
    def range_is_literal(self) -> bool:
        return self.range in LITERAL_DATATYPES


@dataclass(frozen=True)
class Entity:
    id: str
    label: str = ""
    classes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Fact:
    subject: str
    relation: str
    obj: str | Literal  # entity id or typed literal

    @property
    def obj_is_literal(self) -> bool:
        return isinstance(self.obj, Literal)

    def key(self) -> tuple:
        obj = ("lit", self.obj.value, self.obj.datatype) if self.obj_is_literal else ("ent", self.obj)
        return (self.subject, self.relation, obj)


@dataclass(frozen=True)
class DeletionPlan:
    classes: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    entities: tuple[str, ...] = ()
    facts: tuple[Fact, ...] = ()
    seed: int | None = None


class KnowledgeBase:
    """Typed schema plus entity/fact data with lookup indexes.

    Read-only after construction; ``delete_elements`` produces a new value.
    """

    def __init__(
        self,
        classes: dict[str, SchemaClass],
        relations: dict[str, RelationDef],
        entities: dict[str, Entity],
        facts: tuple[Fact, ...],
    ):
        self.classes = classes
        self.relations = relations
        self.entities = entities
        self.facts = facts
        self.by_subject: dict[str, tuple[Fact, ...]] = {}
        self.by_object: dict[str, tuple[Fact, ...]] = {}
        self.by_relation: dict[str, tuple[Fact, ...]] = {}
        self.by_class: dict[str, tuple[str, ...]] = {}
        subj: dict[str, list[Fact]] = {}
        obj: dict[str, list[Fact]] = {}
        relidx: dict[str, list[Fact]] = {}
        for fact in facts:
            subj.setdefault(fact.subject, []).append(fact)
            relidx.setdefault(fact.relation, []).append(fact)
            if not isinstance(fact.obj, Literal):
                obj.setdefault(fact.obj, []).append(fact)
        self.by_subject = {k: tuple(v) for k, v in subj.items()}
        self.by_object = {k: tuple(v) for k, v in obj.items()}
        self.by_relation = {k: tuple(v) for k, v in relidx.items()}
        members: dict[str, list[str]] = {}
        for ent in entities.values():
            for cid in sorted(ent.classes):
                members.setdefault(cid, []).append(ent.id)
        self.by_class = {k: tuple(sorted(v)) for k, v in members.items()}

    # -- total lookups ------------------------------------------------------

    def has_class(self, cid: str) -> bool:
        return cid in self.classes

    def has_relation(self, rid: str) -> bool:
        return rid in self.relations

    def has_entity(self, eid: str) -> bool:
        return eid in self.entities

    def entity_classes(self, eid: str) -> frozenset[str]:
        ent = self.entities.get(eid)
        return ent.classes if ent is not None else frozenset()

    def label_of(self, eid: str) -> str:
        ent = self.entities.get(eid)
        return ent.label if ent is not None and ent.label else eid

    def validate(self) -> None:
        """Re-check every referential invariant; raises ReferentialError."""
        for rd in self.relations.values():
            if rd.domain not in self.classes:
                raise ReferentialError(f"relation {rd.id} has unknown domain class {rd.domain}")
            if not rd.range_is_literal and rd.range not in self.classes:
                raise ReferentialError(f"relation {rd.id} has unknown range class {rd.range}")
        for ent in self.entities.values():
            for cid in ent.classes:
                if cid not in self.classes:
                    raise ReferentialError(f"entity {ent.id} has unknown class {cid}")
        for fact in self.facts:
            subject = self.entities.get(fact.subject)
            if subject is None:
                raise ReferentialError(f"fact subject {fact.subject} is not a known entity")
            rd = self.relations.get(fact.relation)
            if rd is None:
                raise ReferentialError(f"fact uses unknown relation {fact.relation}")
            if rd.domain not in subject.classes:
                raise ReferentialError(
                    f"fact subject {fact.subject} lacks domain class {rd.domain} of {rd.id}"
                )
            obj = fact.obj
            if isinstance(obj, Literal):
                if not rd.range_is_literal:
                    raise ReferentialError(f"fact of {rd.id} has a literal object, range is {rd.range}")
                if obj.datatype != rd.range:
                    raise ReferentialError(
                        f"fact of {rd.id} has {obj.datatype} literal, range is {rd.range}"
                    )
            else:
                if rd.range_is_literal:
                    raise ReferentialError(f"fact of {rd.id} has an entity object, range is {rd.range}")
                target = self.entities.get(obj)
                if target is None:
                    raise ReferentialError(f"fact object {obj} is not a known entity")
                if rd.range not in target.classes:
                    raise ReferentialError(
                        f"fact object {obj} lacks range class {rd.range} of {rd.id}"
                    )

    def same_as(self, other: "KnowledgeBase") -> bool:
        return (
            self.classes == other.classes
            and self.relations == other.relations
            and self.entities == other.entities
            and self.facts == other.facts
        )


def build_kb(
    classes: list[SchemaClass],
    relations: list[RelationDef],
    entities: list[Entity],
    facts: list[Fact],
) -> KnowledgeBase:
    class_map: dict[str, SchemaClass] = {}
    for c in classes:
        if not c.id:
            raise FormatError("class with empty id")
        if c.id in class_map:
            raise FormatError(f"duplicate class id {c.id}")
        class_map[c.id] = c
    relation_map: dict[str, RelationDef] = {}
    for r in relations:
        if r.id in relation_map:
            raise FormatError(f"duplicate relation id {r.id}")
        relation_map[r.id] = r
    entity_map: dict[str, Entity] = {}
    for e in entities:
        if e.id in entity_map:
            raise FormatError(f"duplicate entity id {e.id}")
        entity_map[e.id] = e
    kb = KnowledgeBase(class_map, relation_map, entity_map, tuple(facts))
    kb.validate()
    return kb


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_schema(path: str) -> tuple[list[SchemaClass], list[RelationDef]]:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"invalid schema JSON: {err}", err.lineno) from err
    classes = [SchemaClass(c["id"], c.get("label", "")) for c in doc.get("classes", [])]
    relations = [RelationDef(r["id"], r["domain"], r["range"]) for r in doc.get("relations", [])]
    return classes, relations


def _parse_object(obj: dict, line: int) -> str | Literal:
    if "entity" in obj:
        return obj["entity"]
    if "literal" in obj:
        datatype = obj.get("type", "string")
        if datatype not in LITERAL_DATATYPES:
            raise FormatError(f"unknown literal type {datatype!r}", line)
        return Literal(obj["literal"], datatype)
    raise FormatError("fact object must be {entity: id} or {literal, type}", line)


def read_jsonl(path: str):
    """Yield (line number, record) for each non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise FormatError(f"invalid JSON: {err.msg}", lineno) from err
            yield lineno, record


def load_data(path: str) -> tuple[list[Entity], list[Fact]]:
    entities: list[Entity] = []
    facts: list[Fact] = []
    for lineno, record in read_jsonl(path):
        if "id" in record:
            entities.append(
                Entity(record["id"], record.get("label", ""), frozenset(record.get("classes", [])))
            )
        elif "s" in record:
            if "r" not in record or "o" not in record:
                raise FormatError("fact record needs s, r and o", lineno)
            facts.append(Fact(record["s"], record["r"], _parse_object(record["o"], lineno)))
        else:
            raise FormatError("record is neither an entity ({id,...}) nor a fact ({s,r,o})", lineno)
    return entities, facts


def load_kb(schema_path: str, data_path: str) -> KnowledgeBase:
    """Load and fully validate a KB from a schema file and a data file."""
    classes, relations = load_schema(schema_path)
    entities, facts = load_data(data_path)
    return build_kb(classes, relations, entities, facts)


def save_kb(kb: KnowledgeBase, schema_path: str, data_path: str) -> None:
    doc = {
        "classes": [{"id": c.id, "label": c.label} for c in kb.classes.values()],
        "relations": [
            {"id": r.id, "domain": r.domain, "range": r.range} for r in kb.relations.values()
        ],
    }
    with open(schema_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, ensure_ascii=False)
        handle.write("\n")
    with open(data_path, "w", encoding="utf-8") as handle:
        for ent in kb.entities.values():
            record = {"id": ent.id, "label": ent.label, "classes": sorted(ent.classes)}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        for fact in kb.facts:
            handle.write(json.dumps(_fact_to_json(fact), ensure_ascii=False) + "\n")


def _fact_to_json(fact: Fact) -> dict:
    if fact.obj_is_literal:
        obj = {"literal": fact.obj.value, "type": fact.obj.datatype}
    else:
        obj = {"entity": fact.obj}
    return {"s": fact.subject, "r": fact.relation, "o": obj}


def load_plan(path: str) -> DeletionPlan:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"invalid plan JSON: {err}", err.lineno) from err
    facts = tuple(
        Fact(f["s"], f["r"], _parse_object(f["o"], 0)) for f in doc.get("facts", [])
    )
    return DeletionPlan(
        classes=tuple(doc.get("classes", [])),
        relations=tuple(doc.get("relations", [])),
        entities=tuple(doc.get("entities", [])),
        facts=facts,
        seed=doc.get("seed"),
    )


def save_plan(plan: DeletionPlan, path: str) -> None:
    doc = plan_to_json(plan)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def plan_to_json(plan: DeletionPlan) -> dict:
    doc = {
        "classes": list(plan.classes),
        "relations": list(plan.relations),
        "entities": list(plan.entities),
        "facts": [_fact_to_json(f) for f in plan.facts],
    }
    if plan.seed is not None:
        doc["seed"] = plan.seed
    return doc


# ---------------------------------------------------------------------------
# Deletion
# ---------------------------------------------------------------------------

def validate_plan(kb: KnowledgeBase, plan: DeletionPlan) -> None:
    """Check that every plan id resolves against this (pre-deletion) KB."""
    for cid in plan.classes:
        if cid not in kb.classes:
            raise UnknownId(f"class {cid} is not in the KB")
    for rid in plan.relations:
        if rid not in kb.relations:
            raise UnknownId(f"relation {rid} is not in the KB")
    for eid in plan.entities:
        if eid not in kb.entities:
            raise UnknownId(f"entity {eid} is not in the KB")
    for fact in plan.facts:
        if fact not in kb.by_subject.get(fact.subject, ()):
            raise UnknownId(f"fact {fact.key()} is not in the KB")


def delete_elements(kb: KnowledgeBase, plan: DeletionPlan) -> KnowledgeBase:
    """Return a new KB without the planned elements, cascading as needed.

    Deleting a class removes relations whose domain/range use it and strips
    the class from entity class-sets; deleting a relation removes its facts;
    deleting an entity removes facts mentioning it.  Entities left without
    facts are kept (no cascade to entities).  Plan ids already absent are
    skipped, so re-applying a plan is a no-op; use ``validate_plan`` to
    reject plans naming ids the KB never had.
    """
    dead_classes = set(plan.classes)
    dead_relations = set(plan.relations)
    for rd in kb.relations.values():
        if rd.domain in dead_classes or rd.range in dead_classes:
            dead_relations.add(rd.id)
    dead_entities = set(plan.entities)
    dead_facts = set(plan.facts)

    classes = {cid: c for cid, c in kb.classes.items() if cid not in dead_classes}
    relations = {rid: r for rid, r in kb.relations.items() if rid not in dead_relations}
    entities = {}
    for eid, ent in kb.entities.items():
        if eid in dead_entities:
            continue
        kept = ent.classes - dead_classes
        entities[eid] = Entity(ent.id, ent.label, kept) if kept != ent.classes else ent
    facts = tuple(
        f
        for f in kb.facts
        if f.relation not in dead_relations
        and f.subject not in dead_entities
        and (isinstance(f.obj, Literal) or f.obj not in dead_entities)
        and f not in dead_facts
    )
    out = KnowledgeBase(classes, relations, entities, facts)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------

def paths_from_entity(kb: KnowledgeBase, eid: str, max_len: int = 2) -> list[CanonicalQuery]:
    """Chain queries rooted at an entity, each guaranteed non-empty on kb.

    Paths follow facts forward from the entity up to ``max_len`` hops and are
    returned in lexicographic order of their relation-id sequence.
    """
    if eid not in kb.entities:
        raise UnknownId(f"entity {eid} is not in the KB")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    sequences: set[tuple[str, ...]] = set()

    def walk(frontier: set[str], prefix: tuple[str, ...]) -> None:
        if len(prefix) >= max_len:
            return
        next_rels: dict[str, set[str]] = {}
        for node in frontier:
            for fact in kb.by_subject.get(node, ()):
                if fact.obj_is_literal:
                    targets = next_rels.setdefault(fact.relation, set())
                else:
                    next_rels.setdefault(fact.relation, set()).add(fact.obj)
        for rid, targets in next_rels.items():
            seq = prefix + (rid,)
            sequences.add(seq)
            if targets:
                walk(targets, seq)

    walk({eid}, ())

    queries = []
    for seq in sorted(sequences):
        patterns = []
        subject = entity_term(eid)
        for hop, rid in enumerate(seq):
            obj = var("x") if hop == len(seq) - 1 else var(f"x{hop}")
            patterns.append((subject, rel(rid), obj))
            subject = obj
        queries.append(CanonicalQuery("x", True, tuple(patterns)))
    return queries

"""In-memory knowledge base: schema plus data, immutable after load.

The KB consists of classes, binary relations (domain/range typed), entities
and facts.  Construction checks every referential invariant and builds the
indexes, so a KB value is sound; deletion returns a fresh KB with cascades
applied, so values are always safe to share across worker threads.

The constructor is the one place that sets a KB's fields.  It checks the
relations, then the entities' classes, then each fact in order, and appends
each fact to its index lists in that same pass; then it turns each key's
list into its tuple in place, so an index never holds a list and its tuple
at once.  ``delete_elements`` picks the surviving facts with one test per
fact and builds its result through the constructor, so a reduced KB is
checked and indexed by the same code as a loaded one.  ``load_data`` tests
each data line, and its fact object, with the type tests ``check`` makes,
written inline; it calls ``check`` only when a test fails, so ``check``
still builds every message.

Building a KB makes tens of thousands of records and containers that all
stay alive, so each pass of the cyclic garbage collector during the build
rescans them and frees nothing.  ``load_kb`` and ``delete_elements`` pause
the collector while they build and restore the caller's setting after,
whether the build succeeds or raises.  The collector is paused, not frozen:
``gc.freeze`` is process-wide and would pin unrelated objects too.

A loaded KB holds one object per distinct value.  The JSON decoder makes a
new string for every occurrence of an id or label, so a KB of 10^4 entities
and 4x10^4 facts would otherwise keep about four copies of each entity id,
one label string and one class frozenset per entity, and one ``Literal`` per
literal fact: more than half of its heap.  ``load_data`` maps each entity
id, label, fact subject, entity object and relation id to the first equal
string it read, and each class set to the first equal frozenset.  It keys
each literal object on its datatype and the ``repr`` of its value, and a
literal whose key it has seen reuses the first ``Literal`` built for that
key without building another.  The key is exact where ``Literal`` equality
is not: ``1`` and ``1.0``, ``-0.0`` and ``0.0`` stay two objects, and so do
``"1999"`` and ``1999`` or a date and a string of the same text, so every
literal keeps the value it was written with.  ``literal_from_json`` uses the
``LITERAL_DATATYPES`` constants; ``delete_elements`` strips each distinct
class set once.  The table lives for one ``load_data`` call and dies with
it, so it pins nothing after the load; ``sys.intern`` would keep every id in
a table of the whole process.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import re
from dataclasses import dataclass

from .query import LITERAL_DATATYPES, Literal, shorten


class FormatError(Exception):
    """Input the program cannot use: malformed input, an id that is not
    there, or an input that is not what the command needs.  The message
    starts with the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


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


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    label: str = ""
    classes: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
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

    Construction raises FormatError at the first element that names an
    unknown id or breaks a domain/range type: relations first, then entity
    classes, then facts.  Read-only after construction; ``delete_elements``
    produces a new value.
    """

    def __init__(
        self,
        classes: dict[str, SchemaClass],
        relations: dict[str, RelationDef],
        entities: dict[str, Entity],
        facts: tuple[Fact, ...],
    ):
        for rd in relations.values():
            if rd.domain not in classes:
                raise FormatError(f"relation {rd.id} has unknown domain class {rd.domain}")
            if not rd.range_is_literal and rd.range not in classes:
                raise FormatError(f"relation {rd.id} has unknown range class {rd.range}")
        by_class = {}
        for ent in entities.values():
            for cid in sorted(ent.classes):
                if cid not in classes:
                    raise FormatError(f"entity {ent.id} has unknown class {cid}")
                by_class.setdefault(cid, []).append(ent.id)
        # Each relation's typing, read once here rather than once per fact.
        relation_types = {
            rid: (rd.domain, rd.range, rd.range_is_literal) for rid, rd in relations.items()
        }
        by_subject, by_object, by_relation = {}, {}, {}
        for fact in facts:
            subject = entities.get(fact.subject)
            if subject is None:
                raise FormatError(f"fact subject {fact.subject} is not a known entity")
            rid = fact.relation
            types = relation_types.get(rid)
            if types is None:
                raise FormatError(f"fact uses unknown relation {rid}")
            domain, range_, range_is_literal = types
            if domain not in subject.classes:
                raise FormatError(f"fact subject {fact.subject} lacks domain class {domain} "
                                  f"of {rid}")
            target = fact.obj
            if isinstance(target, Literal):
                if not range_is_literal:
                    raise FormatError(f"fact of {rid} has a literal object, range is {range_}")
                if target.datatype != range_:
                    raise FormatError(f"fact of {rid} has {target.datatype} literal, "
                                      f"range is {range_}")
            else:
                if range_is_literal:
                    raise FormatError(f"fact of {rid} has an entity object, range is {range_}")
                target_entity = entities.get(target)
                if target_entity is None:
                    raise FormatError(f"fact object {target} is not a known entity")
                if range_ not in target_entity.classes:
                    raise FormatError(f"fact object {target} lacks range class {range_} of {rid}")
                by_object.setdefault(target, []).append(fact)
            by_subject.setdefault(fact.subject, []).append(fact)
            by_relation.setdefault(rid, []).append(fact)
        # Each key's list becomes its tuple in place, so no index is held twice.
        for members in by_class.values():
            members.sort()
        for index in (by_class, by_subject, by_object, by_relation):
            for key, items in index.items():
                index[key] = tuple(items)
        self.classes, self.relations, self.entities, self.facts = classes, relations, entities, facts
        self.by_class, self.by_subject, self.by_object = by_class, by_subject, by_object
        self.by_relation = by_relation

    # -- total lookups ------------------------------------------------------

    def entity_classes(self, eid: str) -> frozenset[str]:
        ent = self.entities.get(eid)
        return ent.classes if ent is not None else frozenset()

    def label_of(self, eid: str) -> str:
        ent = self.entities.get(eid)
        return ent.label if ent is not None and ent.label else eid


def _keyed(elements: list, what: str) -> dict:
    if not all(element.id for element in elements):
        raise FormatError(f"{what} with empty id")
    by_id = {}
    for element in elements:
        if element.id in by_id:
            raise FormatError(f"duplicate {what} id {element.id}")
        by_id[element.id] = element
    return by_id


def build_kb(
    classes: list[SchemaClass],
    relations: list[RelationDef],
    entities: list[Entity],
    facts: list[Fact],
) -> KnowledgeBase:
    return KnowledgeBase(_keyed(classes, "class"), _keyed(relations, "relation"),
                         _keyed(entities, "entity"), tuple(facts))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

# The shape of every record the program reads, by kind: each field's JSON
# type, ``field?`` for one that may be absent.  A type is str, int, bool, dict
# (an object), ``object`` (any JSON value), an exact string, ``[t, ...]`` for
# a list of t's, or a tuple of such alternatives; a kind given a type instead of
# fields is a document of that type.  A literal's value is left to Literal,
# which checks it against its datatype.  ``load_data`` tests the data kinds
# (data record to literal object) inline and calls ``check`` only to raise;
# a differential test in tests/test_kb.py ties those tests to this table.
ANSWER = ("NA", [str, dict])  # "NA", or entity ids and literal objects
SHAPES = {
    "schema": {"classes?": [dict], "relations?": [dict]},
    "class": {"id": str, "label?": str},
    "relation": {"id": str, "domain": str, "range": str},
    "data record": {},  # an entity if it has an id, a fact if it has an s
    "entity": {"id": str, "label?": str, "classes?": [str]},
    "fact": {"s": str, "r": str, "o": dict},
    "entity object": {"entity": str},
    "literal object": {"literal": object, "type?": str},
    "plan": {"classes?": [str], "relations?": [str], "entities?": [str], "facts?": [dict],
             "seed?": int},
    "dataset example": {"question": str, "linked_entities?": [dict], "gold_lf": ("NK", dict),
                        "gold_answer": ANSWER, "complete_kb_answer?": ANSWER, "label?": str,
                        "category?": str},
    "linked entity": {"mention": str, "id": str},
    "gold query": {"dialect?": ("sparql", "sexpr"), "text": str},
    "prediction": {"dialect?": ("sparql", "sexpr"), "lf": str, "answer": ANSWER, "error?": str},
    "mock fixture": [dict],
    "mock matcher": {"match": dict, "reply": str},
    "mock match": {"kind": ("exact", "substring"), "text": str},
    "config": {"max_classes?": int, "max_relations?": int, "max_paths?": int,
               "max_path_len?": int, "mediator_classes?": [str]},
    # A trace record of `run`, as `trace show` reads it; ``object`` may be null.
    "trace": {"question": str, "iterations": [dict], "scun": object, "outcome": dict,
              "llm": [dict]},
    "iteration": {"iteration": int, "lf": str, "verdicts": [dict], "answer": object},
    "verdict": {"verifier": str, "strength": str, "passed": bool},
    "outcome": {"lf": str, "answer": ANSWER, "confident": bool, "error?": str},
    "llm call": {"purpose": str},
}
_NAMES = {str: "a string", int: "an integer", bool: "true or false", dict: "an object",
          object: "any JSON value"}
_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _rule(shape, optional: bool = False) -> tuple:
    """(types, list element types or None, exact strings, description).  An
    absent field reads as (), so an optional field's types include tuple."""
    types, items, strings, wants = {tuple} if optional else set(), None, [], []
    for option in shape if type(shape) is tuple else (shape,):
        if type(option) is str:
            strings.append(option)
            wants.append(json.dumps(option))
        elif type(option) is list:
            types.add(list)
            items = frozenset(option)
            wants.append("a list of " + " and ".join(_NAMES[t].split()[-1] + "s" for t in option))
        else:
            types.update(_JSON_TYPES if option is object else (option,))
            wants.append(_NAMES[option])
    return frozenset(types), items, tuple(strings), " or ".join(wants)


# kind -> (the rule of the value itself, (field name, *its rule) per field)
_RULES = {
    kind: (_rule(dict), tuple((f.rstrip("?"), *_rule(s, f[-1] == "?")) for f, s in shape.items()))
    if type(shape) is dict else (_rule(shape), ())
    for kind, shape in SHAPES.items()
}


def _show(value) -> str:
    return shorten(json.dumps(value, ensure_ascii=False))


def check(record, kind: str, line: int | None = None):
    """``record``, if it has the shape SHAPES gives ``kind``; otherwise a
    FormatError naming the kind, the field and the JSON value found."""
    (types, items, _, want), fields = _RULES[kind]
    if type(record) not in types or items is not None and not items.issuperset(map(type, record)):
        raise FormatError(f"{kind} must be {want}, not {_show(record)}", line)
    for name, types, items, strings, want in fields:
        value = record.get(name, ())
        if type(value) in types and (items is None or items.issuperset(map(type, value))):
            continue
        if value not in strings:
            raise FormatError(f"{kind} has no {name}" if type(value) is tuple
                              else f"{kind} {name} must be {want}, not {_show(value)}", line)
    return record


# A byte that is not UTF-8, as a file opened with errors="surrogateescape"
# reads it: byte b is chr(0xdc00 + b).
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def read_json(path: str, what: str):
    """The JSON document in the file at ``path``, which ``what`` names."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    if not text.isascii() and (bad := _NOT_UTF8.search(text)) is not None:
        line = text.count("\n", 0, bad.start()) + 1
        raise FormatError(f"{what} {path} is not UTF-8: byte 0x{ord(bad[0]) - 0xdc00:02x} on line {line}")
    try:
        return json.loads(text)
    except RecursionError as err:
        raise FormatError(f"{what} {path} is not JSON: nested too deeply") from err
    except json.JSONDecodeError as err:
        raise FormatError(f"{what} {path} is not JSON: {err}") from err
    except ValueError as err:  # an integer past the interpreter's digit limit
        raise FormatError(f"{what} {path} is not JSON: number too long") from err


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str):
    """Yield (line number, record) for each non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and (bad := _NOT_UTF8.search(line)) is not None:
                raise FormatError(f"not UTF-8: byte 0x{ord(bad[0]) - 0xdc00:02x}", lineno)
            try:
                record, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = None
            except RecursionError as err:
                raise FormatError("invalid JSON: nested too deeply", lineno) from err
            except ValueError as err:  # an integer past the interpreter's digit limit
                raise FormatError("invalid JSON: number too long", lineno) from err
            if end != len(line):  # bad JSON, extra data or a BOM: json.loads says which
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise FormatError(f"invalid JSON: {err.msg}", lineno) from err
            yield lineno, record


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: the one writer of a
    whole file.  It writes UTF-8 with no newline translation, a lone
    surrogate as its escape (``\\ud800``), to ``<path>.tmp``, and then moves
    that over ``path``; if anything raises, the ``.tmp`` goes and ``path`` is
    as it was.  The move replaces ``path``: the file gets a new inode and
    default permissions, and a symlink at ``path`` is replaced, not followed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", errors="backslashreplace", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _jsonl(records) -> str:
    """Each record as one line of JSON, in order."""
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def write_jsonl(path: str, records) -> None:
    """Write ``records`` to ``path`` as JSON Lines, whole or not at all."""
    write_text(path, _jsonl(records))


@contextlib.contextmanager
def jsonl_writer(path: str):
    """Open ``path`` for JSON Lines, in place, and yield ``write(records)``,
    which writes each record as one line of JSON, in order, and flushes: the
    one streamed writer, for a file whose lines must be there before it
    ends.  A lone surrogate is written as its JSON escape, as ``write_text``
    writes it."""
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as handle:
        def write(records) -> None:
            handle.write(_jsonl(records))
            handle.flush()

        yield write


def write_json(path: str, doc) -> None:
    """Write ``doc`` to ``path`` as JSON indented by 2, then a newline, through
    ``write_text``."""
    write_text(path, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


def load_schema(path: str) -> tuple[list[SchemaClass], list[RelationDef]]:
    doc = check(read_json(path, "schema file"), "schema")
    classes = [check(c, "class") for c in doc.get("classes", ())]
    relations = [check(r, "relation") for r in doc.get("relations", ())]
    return ([SchemaClass(c["id"], c.get("label", "")) for c in classes],
            [RelationDef(r["id"], r["domain"], r["range"]) for r in relations])


# Each datatype name to its LITERAL_DATATYPES constant, so a literal read from
# JSON holds the module's string rather than one the decoder made for it.
_DATATYPE = {datatype: datatype for datatype in LITERAL_DATATYPES}


def literal_from_json(obj: dict, line: int | None = None) -> Literal:
    """The literal a literal object holds, in data, plans and answers alike."""
    datatype = obj.get("type", "string") if type(obj) is dict and "literal" in obj else None
    if type(datatype) is not str:
        check(obj, "literal object", line)
    try:
        return Literal(obj["literal"], _DATATYPE.get(datatype, datatype))
    except ValueError as err:  # a value or datatype Literal rejects
        raise FormatError(str(err), line) from err


def literal_to_json(literal: Literal) -> dict:
    """The literal object ``literal_from_json`` reads back as ``literal``."""
    return {"literal": literal.value, "type": literal.datatype}


def _parse_object(obj: dict, line: int | None = None) -> str | Literal:
    if "entity" in obj:
        target = obj["entity"]
        if type(target) is not str:
            check(obj, "entity object", line)
        return target
    if "literal" in obj:
        return literal_from_json(obj, line)
    raise FormatError("fact object must be {entity: id} or {literal, type}", line)


def _parse_fact(record, line: int | None = None) -> Fact:
    check(record, "fact", line)
    return Fact(record["s"], record["r"], _parse_object(record["o"], line))


_STRINGS = frozenset({str})


def load_data(path: str) -> tuple[list[Entity], list[Fact]]:
    """The entities and facts of a data file, in file order.  Each distinct
    id, label, class set and literal is one object (see the module docstring)."""
    entities: list[Entity] = []
    facts: list[Fact] = []
    # Each id and label str and class frozenset to the first equal one read,
    # and each literal's key to the first literal read with that key.
    first: dict = {}
    one = first.setdefault
    for lineno, record in read_jsonl(path):
        # Each test is check's, inline; check runs only to raise the error.
        if type(record) is not dict:
            check(record, "data record", lineno)
        if "id" in record:
            eid, label, classes = record["id"], record.get("label", ""), record.get("classes", [])
            if (type(eid) is not str or type(label) is not str or type(classes) is not list
                    or not _STRINGS.issuperset(map(type, classes))):
                check(record, "entity", lineno)
            classes = frozenset(classes)
            entities.append(Entity(one(eid, eid), one(label, label), one(classes, classes)))
        elif "s" in record:
            subject, relation, target = record["s"], record.get("r"), record.get("o")
            if type(subject) is not str or type(relation) is not str or type(target) is not dict:
                check(record, "fact", lineno)
            if "entity" in target or "literal" not in target:
                target = _parse_object(target, lineno)
                target = one(target, target)
            else:
                # Keyed on the datatype and the value's repr, which tell 1 from
                # 1.0, -0.0 from 0.0 and "1999" from 1999.  A key enters the
                # table only with the Literal built from it, so a repeat is valid.
                datatype = target.get("type", "string")
                key = (datatype, repr(target["literal"])) if type(datatype) is str else None
                if key not in first:
                    first[key] = literal_from_json(target, lineno)
                target = first[key]
            facts.append(Fact(one(subject, subject), one(relation, relation), target))
        else:
            raise FormatError("record is neither an entity ({id,...}) nor a fact ({s,r,o})", lineno)
    return entities, facts


@contextlib.contextmanager
def _no_gc():
    """Pause the cyclic collector for a KB build (see the module docstring);
    a context manager, or a decorator when called as ``@_no_gc()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_no_gc()
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
    write_json(schema_path, doc)
    entities = ({"id": e.id, "label": e.label, "classes": sorted(e.classes)}
                for e in kb.entities.values())
    write_jsonl(data_path, itertools.chain(entities, map(_fact_to_json, kb.facts)))


def _fact_to_json(fact: Fact) -> dict:
    obj = literal_to_json(fact.obj) if fact.obj_is_literal else {"entity": fact.obj}
    return {"s": fact.subject, "r": fact.relation, "o": obj}


def load_plan(path: str) -> DeletionPlan:
    doc = check(read_json(path, "plan file"), "plan")
    return DeletionPlan(
        classes=tuple(doc.get("classes", ())),
        relations=tuple(doc.get("relations", ())),
        entities=tuple(doc.get("entities", ())),
        facts=tuple(_parse_fact(f) for f in doc.get("facts", ())),
        seed=doc.get("seed"),
    )


def save_plan(plan: DeletionPlan, path: str) -> None:
    doc = {
        "classes": list(plan.classes),
        "relations": list(plan.relations),
        "entities": list(plan.entities),
        "facts": [_fact_to_json(f) for f in plan.facts],
    }
    if plan.seed is not None:
        doc["seed"] = plan.seed
    write_json(path, doc)


# ---------------------------------------------------------------------------
# Deletion
# ---------------------------------------------------------------------------

def validate_plan(kb: KnowledgeBase, plan: DeletionPlan) -> None:
    """Check that every plan id resolves against this (pre-deletion) KB."""
    for cid in plan.classes:
        if cid not in kb.classes:
            raise FormatError(f"class {cid} is not in the KB")
    for rid in plan.relations:
        if rid not in kb.relations:
            raise FormatError(f"relation {rid} is not in the KB")
    for eid in plan.entities:
        if eid not in kb.entities:
            raise FormatError(f"entity {eid} is not in the KB")
    for fact in plan.facts:
        if fact not in kb.by_subject.get(fact.subject, ()):
            raise FormatError(f"fact {fact.key()} is not in the KB")


@_no_gc()
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

    classes = {cid: c for cid, c in kb.classes.items() if cid not in dead_classes}
    relations = {rid: r for rid, r in kb.relations.items() if rid not in dead_relations}
    stripped: dict[frozenset[str], frozenset[str]] = {}  # each distinct class set, stripped once
    entities = {}
    for eid, ent in kb.entities.items():
        if eid in dead_entities:
            continue
        kept = stripped.get(ent.classes)
        if kept is None:
            kept = stripped[ent.classes] = ent.classes - dead_classes
        entities[eid] = Entity(ent.id, ent.label, kept) if kept != ent.classes else ent
    # One test per fact: a dead relation, subject or entity object, or equal to a
    # plan fact, which only a fact of a plan fact's subject can be.
    plan_subjects = {fact.subject for fact in plan.facts}
    facts = tuple(f for f in kb.facts if not (
        f.relation in dead_relations or f.subject in dead_entities
        or not isinstance(f.obj, Literal) and f.obj in dead_entities
        or f.subject in plan_subjects and f in plan.facts))
    return KnowledgeBase(classes, relations, entities, facts)


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------

def paths_from_entity(kb: KnowledgeBase, eid: str, max_len: int = 2) -> list[tuple[str, ...]]:
    """Relation-id sequences of the fact chains rooted at an entity, sorted.

    A sequence of 1 to ``max_len`` relation ids is returned when a chain of
    facts starts at ``eid`` and follows those relations in order, every
    object but the last an entity; its chain query is therefore non-empty
    on kb.
    """
    if eid not in kb.entities:
        raise FormatError(f"entity {eid} is not in the KB")

    sequences: set[tuple[str, ...]] = set()
    by_subject = kb.by_subject

    def walk(frontier: set[str], prefix: tuple[str, ...]) -> None:
        if len(prefix) >= max_len:
            return
        next_rels: dict[str, set[str]] = {}
        for node in frontier:
            for fact in by_subject.get(node, ()):
                targets = next_rels.setdefault(fact.relation, set())
                if not isinstance(fact.obj, Literal):
                    targets.add(fact.obj)
        for rid, targets in next_rels.items():
            seq = prefix + (rid,)
            sequences.add(seq)
            if targets:
                walk(targets, seq)

    walk({eid}, ())
    return sorted(sequences)

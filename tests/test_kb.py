import dataclasses
import gc
import json
import pickle
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from kbqa_repair.executor import execute
from kbqa_repair.kb import (
    DeletionPlan,
    Entity,
    Fact,
    FormatError,
    KnowledgeBase,
    RelationDef,
    SchemaClass,
    build_kb,
    delete_elements,
    load_data,
    load_kb,
    load_plan,
    paths_from_entity,
    read_jsonl,
    save_kb,
    save_plan,
    validate_plan,
)
from kbqa_repair.query import LITERAL_DATATYPES, Literal, render_sparql
from oracles import chain_query, reference_indexes, reference_load_data, reference_paths, same_as
from randgen import random_kb


def tiny_kb():
    return build_kb(
        classes=[SchemaClass("c.a", "A"), SchemaClass("c.b", "B")],
        relations=[RelationDef("c.a.to_b", "c.a", "c.b")],
        entities=[
            Entity("m.1", "one", frozenset({"c.a"})),
            Entity("m.2", "two", frozenset({"c.b"})),
        ],
        facts=[Fact("m.1", "c.a.to_b", "m.2")],
    )


def test_smallest_consistent_kb():
    kb = tiny_kb()
    assert len(kb.facts) == 1


def _kb_parts():
    """The parts of a sound KB with an entity-ranged and a literal-ranged relation."""
    return {
        "classes": [SchemaClass("c.a"), SchemaClass("c.b")],
        "relations": [RelationDef("c.a.to_b", "c.a", "c.b"), RelationDef("c.a.year", "c.a", "integer")],
        "entities": [
            Entity("m.1", "", frozenset({"c.a"})),
            Entity("m.2", "", frozenset({"c.b"})),
        ],
        "facts": [Fact("m.1", "c.a.to_b", "m.2"), Fact("m.1", "c.a.year", Literal(1999, "integer"))],
    }


# One element added to a sound KB, and the exact error it raises.
REFERENTIAL_ERRORS = {
    "relation-domain": (
        "relations", RelationDef("c.x.r", "c.x", "c.b"), "relation c.x.r has unknown domain class c.x"),
    "relation-range": (
        "relations", RelationDef("c.a.r", "c.a", "c.x"), "relation c.a.r has unknown range class c.x"),
    "entity-class": ("entities", Entity("m.3", "", frozenset({"c.x"})), "entity m.3 has unknown class c.x"),
    "fact-subject": ("facts", Fact("m.9", "c.a.to_b", "m.2"), "fact subject m.9 is not a known entity"),
    "fact-relation": ("facts", Fact("m.1", "ghost.rel", "m.2"), "fact uses unknown relation ghost.rel"),
    "fact-domain": (
        "facts", Fact("m.2", "c.a.to_b", "m.2"), "fact subject m.2 lacks domain class c.a of c.a.to_b"),
    "fact-literal-object": (
        "facts", Fact("m.1", "c.a.to_b", Literal(3, "integer")),
        "fact of c.a.to_b has a literal object, range is c.b"),
    "fact-literal-type": (
        "facts", Fact("m.1", "c.a.year", Literal("x", "string")),
        "fact of c.a.year has string literal, range is integer"),
    "fact-entity-object": (
        "facts", Fact("m.1", "c.a.year", "m.2"), "fact of c.a.year has an entity object, range is integer"),
    "fact-object": ("facts", Fact("m.1", "c.a.to_b", "m.9"), "fact object m.9 is not a known entity"),
    "fact-range": (
        "facts", Fact("m.1", "c.a.to_b", "m.1"), "fact object m.1 lacks range class c.b of c.a.to_b"),
}


@pytest.mark.parametrize("case", REFERENTIAL_ERRORS)
def test_fact_with_unknown_relation_is_referential_error(case):
    part, element, message = REFERENTIAL_ERRORS[case]
    parts = _kb_parts()
    parts[part].append(element)
    with pytest.raises(FormatError) as err:
        build_kb(**parts)
    assert str(err.value) == message


# Two of REFERENTIAL_ERRORS' elements added at once, the one checked first
# named first: relations, then entity classes, then facts in order.  The
# earlier fact's error is the last check a fact gets, the later one's the first.
FIRST_OF_TWO_ERRORS = {
    "relation": ("relation-range", "fact-relation"),
    "entity-class": ("entity-class", "fact-relation"),
    "earlier-fact": ("fact-range", "fact-subject"),
}


@pytest.mark.parametrize("case", FIRST_OF_TWO_ERRORS)
def test_an_earlier_error_is_reported_before_a_fact_error(case):
    parts = _kb_parts()
    for name in FIRST_OF_TWO_ERRORS[case]:
        part, element, _ = REFERENTIAL_ERRORS[name]
        parts[part].append(element)
    with pytest.raises(FormatError) as err:
        build_kb(**parts)
    assert str(err.value) == REFERENTIAL_ERRORS[FIRST_OF_TWO_ERRORS[case][0]][2]


def test_entity_unknown_classes_reported_in_sorted_order():
    parts = _kb_parts()
    parts["entities"].append(Entity("m.3", "", frozenset({"c.z", "c.y", "c.x"})))
    with pytest.raises(FormatError) as err:
        build_kb(**parts)
    assert str(err.value) == "entity m.3 has unknown class c.x"


def test_fact_domain_violation_rejected():
    with pytest.raises(FormatError, match=r"^fact subject m\.1 lacks domain class c\.a of c\.a\.to_b$"):
        build_kb(
            classes=[SchemaClass("c.a"), SchemaClass("c.b")],
            relations=[RelationDef("c.a.to_b", "c.a", "c.b")],
            entities=[
                Entity("m.1", "", frozenset({"c.b"})),  # lacks the domain class
                Entity("m.2", "", frozenset({"c.b"})),
            ],
            facts=[Fact("m.1", "c.a.to_b", "m.2")],
        )


def test_load_kb_fig1_fixture(fig1_kb3):
    assert "book.author.works_written" in fig1_kb3.relations
    assert fig1_kb3.entity_classes("m.0auth") == {"book.author"}
    assert len(fig1_kb3.facts) == 13


def test_load_data_format_error_carries_line(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"classes": [{"id": "c.a"}], "relations": []}))
    data = tmp_path / "data.jsonl"
    data.write_text('{"id": "m.1", "classes": ["c.a"]}\nnot json\n')
    with pytest.raises(FormatError) as err:
        load_kb(str(schema), str(data))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("value, datatype", [
    ([1], "integer"), ("many", "integer"), (True, "integer"), (1.5, "integer"),
    (False, "float"), ("1.5", "float"), (3, "string"), ("2024-1-5", "date"), (20240105, "date"),
])
def test_literal_value_must_fit_its_datatype(value, datatype):
    with pytest.raises(ValueError, match=f"{datatype} literal has value"):
        Literal(value, datatype)


@pytest.mark.parametrize("value, datatype", [
    (3, "integer"), (3, "float"), (2.5, "float"), ("", "string"), ("2024-01-05", "date"),
])
def test_literal_accepts_a_value_of_its_datatype(value, datatype):
    assert Literal(value, datatype).value == value


def test_entity_classes_must_be_a_list(tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_text('{"id": "m.y", "classes": "book.author"}\n')
    with pytest.raises(FormatError, match="line 1: .*entity classes must be a list"):
        load_data(str(data))


def test_plan_literal_of_the_wrong_type_is_format_error(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"facts": [
        {"s": "m.0c1", "r": "geo.city.population", "o": {"literal": "many", "type": "integer"}},
    ]}))
    with pytest.raises(FormatError, match="integer literal has value 'many'"):
        load_plan(str(plan))


def test_lookup_is_total(fig1_kb3):
    assert fig1_kb3.entity_classes("no.such.id") == frozenset()


def test_delete_relation_removes_its_facts(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(relations=("book.author.works_written",)))
    assert "book.author.works_written" not in kb2.relations
    assert all(f.relation != "book.author.works_written" for f in kb2.facts)


def test_delete_class_cascades_to_relations_and_entities(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(classes=("book.publisher",)))
    assert "book.publisher" not in kb2.classes
    assert "book.author.publisher" not in kb2.relations
    assert "book.publisher.books_published" not in kb2.relations
    assert "m.0pub" in kb2.entities  # no cascade to entities
    assert kb2.entity_classes("m.0pub") == frozenset()


def test_delete_entity_clears_indexes(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(entities=("m.0pub",)))
    assert kb2.by_subject.get("m.0pub", ()) == ()
    assert kb2.by_object.get("m.0pub", ()) == ()


def test_validate_plan_unknown_id_raises(fig1_kb3):
    with pytest.raises(FormatError, match=r"^relation ghost\.rel is not in the KB$"):
        validate_plan(fig1_kb3, DeletionPlan(relations=("ghost.rel",)))
    validate_plan(fig1_kb3, DeletionPlan(relations=("book.author.influenced",)))


def test_delete_is_idempotent(fig1_kb3):
    for plan in (
        load_plan(str(FIXTURES / "fig1/plan_kb2.json")),
        DeletionPlan(relations=("book.author.works_written",), entities=("m.0awd",)),
        DeletionPlan(classes=("book.publisher",)),
    ):
        once = delete_elements(fig1_kb3, plan)
        twice = delete_elements(once, plan)
        assert same_as(once, twice)


def test_paths_from_star_graph():
    kb = build_kb(
        classes=[SchemaClass("c.a"), SchemaClass("c.b")],
        relations=[RelationDef("c.a.r", "c.a", "c.b")],
        entities=[
            Entity("m.e", "", frozenset({"c.a"})),
            Entity("m.a", "", frozenset({"c.b"})),
            Entity("m.b", "", frozenset({"c.b"})),
        ],
        facts=[Fact("m.e", "c.a.r", "m.a"), Fact("m.e", "c.a.r", "m.b")],
    )
    assert paths_from_entity(kb, "m.e", max_len=1) == [("c.a.r",)]  # one relation, one path
    assert execute(kb, chain_query("m.e", ("c.a.r",))) == {"m.a", "m.b"}


def test_paths_from_isolated_entity(fig1_kb3):
    assert paths_from_entity(fig1_kb3, "m.0awd") == []


def test_paths_include_author_books_path(fig1_kb3):
    paths = paths_from_entity(fig1_kb3, "m.0auth", max_len=2)
    assert ("book.author.works_written",) in paths
    assert all(isinstance(rels, tuple) and 1 <= len(rels) <= 2 for rels in paths)
    assert paths == sorted(paths)  # deterministic order: lexicographic


def test_paths_execute_non_empty(fig1_kb3, fig1_kb1, pairs_kb):
    for kb in (fig1_kb3, fig1_kb1, pairs_kb):
        for eid in kb.entities:
            for rels in paths_from_entity(kb, eid, max_len=2):
                query = chain_query(eid, rels)
                assert execute(kb, query), render_sparql(query)


@given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(1, 3), data=st.data())
def test_paths_match_the_reference_before_and_after_deletion(seed, max_len, data):
    kb = random_kb(random.Random(seed))
    for this in (kb, delete_elements(kb, data.draw(_plans(kb)))):
        for eid in this.entities:
            paths = paths_from_entity(this, eid, max_len)
            assert paths == reference_paths(this, eid, max_len)
            for rels in paths:
                assert execute(this, chain_query(eid, rels)), (eid, rels)


def test_paths_unknown_entity(fig1_kb3):
    with pytest.raises(FormatError, match=r"^entity m\.nope is not in the KB$"):
        paths_from_entity(fig1_kb3, "m.nope")


def test_revalidation_after_any_deletion(fig1_kb3):
    for plan in (
        DeletionPlan(classes=("award.award",)),
        DeletionPlan(relations=("book.author.influenced",)),
        DeletionPlan(entities=("m.0b3",)),
        DeletionPlan(facts=(Fact("m.0auth", "book.author.awards_won", "m.0awd"),)),
    ):
        delete_elements(fig1_kb3, plan)  # construction checks every invariant


# ---------------------------------------------------------------------------
# plans against the key() oracle, on random KBs
# ---------------------------------------------------------------------------

def _twin(fact):
    """The KB fact with its object's kind or literal type changed.  An
    integer literal holds an int, so a float's twin is its integer part; a
    date's twin is a string of its text, and a string's an entity id."""
    if isinstance(fact.obj, Literal):
        value, datatype = fact.obj.value, fact.obj.datatype
        if datatype == "integer":
            return Fact(fact.subject, fact.relation, Literal(value, "float"))
        if datatype == "float":
            return Fact(fact.subject, fact.relation, Literal(int(value), "integer"))
        if datatype == "date":
            return Fact(fact.subject, fact.relation, Literal(value, "string"))
        return Fact(fact.subject, fact.relation, value)
    return Fact(fact.subject, fact.relation, Literal(fact.obj, "string"))


@st.composite
def _plans(draw, kb):
    """Ids drawn from the KB plus ghosts; facts drawn from the KB, made up,
    or a KB fact's twin that differs in its object's kind or type."""
    def some(ids, ghost):
        return tuple(draw(st.lists(st.sampled_from(sorted(ids) + [ghost]), max_size=2, unique=True)))

    entity_ids = sorted(kb.entities)
    objects = st.one_of(
        st.sampled_from(entity_ids + ["m.ghost"]),
        st.builds(Literal, st.integers(0, 50), st.sampled_from(["integer", "float"])),
        st.builds(Literal, st.integers(0, 50).map(float), st.just("float")),
    )
    made_up = st.builds(
        Fact, st.sampled_from(entity_ids + ["m.ghost"]), st.sampled_from(sorted(kb.relations)), objects
    )
    facts = made_up
    if kb.facts:
        facts = st.one_of(st.sampled_from(kb.facts), st.sampled_from(kb.facts).map(_twin), made_up)
    return DeletionPlan(
        classes=some(kb.classes, "dom.ghost"),
        relations=some(kb.relations, "dom.c.ghost"),
        entities=some(kb.entities, "m.ghost"),
        facts=tuple(draw(st.lists(facts, max_size=3))),
    )


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_plans_match_the_key_oracle(seed, data):
    kb = random_kb(random.Random(seed))
    plan = data.draw(_plans(kb))
    keys = {f.key() for f in kb.facts}
    known = (
        set(plan.classes) <= set(kb.classes)
        and set(plan.relations) <= set(kb.relations)
        and set(plan.entities) <= set(kb.entities)
        and all(f.key() in keys for f in plan.facts)
    )
    try:
        validate_plan(kb, plan)
        accepted = True
    except FormatError:
        accepted = False
    assert accepted == known

    out = delete_elements(kb, plan)
    dead_relations = set(plan.relations) | {
        r.id for r in kb.relations.values() if {r.domain, r.range} & set(plan.classes)
    }
    dead_keys = {f.key() for f in plan.facts}
    assert out.facts == tuple(
        f for f in kb.facts
        if f.relation not in dead_relations
        and f.subject not in plan.entities
        and f.obj not in plan.entities
        and f.key() not in dead_keys
    )


# ---------------------------------------------------------------------------
# what KB set-up must keep: JSON errors, the collector's state, the records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ('{"id": "m.1"}\n{not json\n', "line 2: invalid JSON: Expecting property name enclosed in double quotes"),
    ('{"a": 1} {"b": 2}\n', "line 1: invalid JSON: Extra data"),
    ('\ufeff{"a": 1}\n', "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('\n[1,\n', "line 2: invalid JSON: Expecting value"),
    # Written with surrogateescape, "\udcff" is the byte 0xff.
    ('{"a": 1}\n{"b": "\udcff"}\n', "line 2: not UTF-8: byte 0xff"),
    ('{"a": 1}\r{"b": 2}\r\n\n{"c": "\udce2\udc82"}\n', "line 4: not UTF-8: byte 0xe2"),
    ('{not json\n{"b": "\udcff"}\n', "line 1: invalid JSON: Expecting property name enclosed in double quotes"),
], ids=["bad-json", "extra-data", "bom", "truncated", "not-utf8", "not-utf8-after-cr-lines",
        "bad-json-before-not-utf8"])
def test_read_jsonl_error_keeps_the_json_message(tmp_path, text, message):
    path = tmp_path / "data.jsonl"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(FormatError) as err:
        list(read_jsonl(str(path)))
    assert str(err.value) == message


def test_read_jsonl_reads_records_and_skips_blank_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('\n  \n\t\n', encoding="utf-8")
    assert list(read_jsonl(str(path))) == []
    path.write_text(' {"a": [1, 2.5, "x"]} \n\n7\n"s"\n', encoding="utf-8")
    assert list(read_jsonl(str(path))) == [(1, {"a": [1, 2.5, "x"]}), (3, 7), (4, "s")]


def _kb_files(tmp_path, data_lines):
    tmp_path.mkdir()
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"classes": [{"id": "c.a"}], "relations": []}))
    data = tmp_path / "data.jsonl"
    data.write_text("".join(line + "\n" for line in data_lines))
    return str(schema), str(data)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_kb_builders_leave_the_collector_as_they_found_it(tmp_path, fig1_kb3, enabled):
    good = _kb_files(tmp_path / "good", ['{"id": "m.1", "classes": ["c.a"]}'])
    bad = _kb_files(tmp_path / "bad", ['{"id": "m.1", "classes": ["c.a"]}', "", "not json"])
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(load_kb(*good).entities) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(FormatError, match="^line 3: "):
            load_kb(*bad)
        assert gc.isenabled() is enabled
        delete_elements(fig1_kb3, DeletionPlan(entities=("m.0b3",)))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("record, other", [
    (Fact("m.1", "c.a.year", Literal(1999, "integer")), Fact("m.1", "c.a.year", Literal(1999, "float"))),
    (Entity("m.1", "one", frozenset({"c.a"})), Entity("m.1", "one", frozenset({"c.b"}))),
    (Literal("2024-01-05", "date"), Literal("2024-01-05", "string")),
], ids=["fact", "entity", "literal"])
def test_kb_records_are_frozen_values(record, other):
    twin = dataclasses.replace(record)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert record != other and len({record, twin, other}) == 2
    assert pickle.loads(pickle.dumps(record)) == record
    field = dataclasses.fields(record)[0].name
    changed = dataclasses.replace(other, **{field: getattr(record, field)})
    assert changed == other
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(other, field))
    # A name that is not a field is refused too; CPython 3.11's frozen slotted
    # dataclasses raise TypeError for it rather than FrozenInstanceError.
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        record.extra = 1


# ---------------------------------------------------------------------------
# a loaded KB holds one object per distinct id, label, class set, literal
# and datatype
# ---------------------------------------------------------------------------

FIXTURE_KBS = ["fig1/kb1", "fig1/kb2", "fig1/kb3", "a13/kb", "pairs"]


def _fixture_files(name):
    return str(FIXTURES / name / "schema.json"), str(FIXTURES / name / "data.jsonl")


def _random_kb_files(tmp_path, seed):
    """A random KB (with literals and shared class lists) saved to files."""
    schema, data = str(tmp_path / "schema.json"), str(tmp_path / "data.jsonl")
    save_kb(random_kb(random.Random(seed), max_entities=40), schema, data)
    return schema, data


# Pairs of literals that are equal as Literals but not the same value, each
# side twice, on two entities of one label and class set; in save_kb's layout.
EXACT_SCHEMA = {
    "classes": [{"id": "c.a", "label": "A"}],
    "relations": [{"id": f"c.a.{datatype}", "domain": "c.a", "range": datatype}
                  for datatype in LITERAL_DATATYPES],
}
EXACT_PAIRS = [(1, "float"), (1.0, "float"), (-0.0, "float"), (0.0, "float"),
               ("1999", "string"), (1999, "integer"), ("2024-01-05", "date"),
               ("2024-01-05", "string")]


def _exact_kb_files(tmp_path):
    """Paths to the schema and data files of the literal pairs."""
    lines = [{"id": eid, "label": "Same", "classes": ["c.a"]} for eid in ("m.1", "m.2")]
    lines += [{"s": eid, "r": f"c.a.{datatype}", "o": {"literal": value, "type": datatype}}
              for eid in ("m.1", "m.2") for value, datatype in EXACT_PAIRS]
    schema, data = tmp_path / "schema.json", tmp_path / "data.jsonl"
    schema.write_text(json.dumps(EXACT_SCHEMA, indent=2) + "\n", encoding="utf-8")
    data.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return str(schema), str(data)


def _exact(literal):
    """A literal's datatype and value, told apart where Literal equality is not."""
    return literal.datatype, repr(literal.value)


def _distinct(values, key=lambda value: value):
    """(distinct objects, distinct keys) among ``values``."""
    values = list(values)
    return len({id(v) for v in values}), len(set(map(key, values)))


def test_each_side_of_an_equal_literal_pair_keeps_its_own_object(tmp_path):
    schema, data = _exact_kb_files(tmp_path)
    kb = load_kb(schema, data)
    first = [fact.obj for fact in kb.by_subject["m.1"]]
    assert [(lit.value, lit.datatype) for lit in first] == EXACT_PAIRS
    assert [repr(lit.value) for lit in first] == [repr(value) for value, _ in EXACT_PAIRS]
    assert len({id(lit) for lit in first}) == len(EXACT_PAIRS)
    out = tmp_path / "saved"
    out.mkdir()
    save_kb(kb, str(out / "schema.json"), str(out / "data.jsonl"))
    assert (out / "schema.json").read_bytes() == (tmp_path / "schema.json").read_bytes()
    assert (out / "data.jsonl").read_bytes() == (tmp_path / "data.jsonl").read_bytes()


@pytest.mark.parametrize("name", FIXTURE_KBS + ["random-3", "random-8", "exact-pairs"])
def test_load_kb_holds_one_object_per_value(tmp_path, name):
    if name.startswith("random-"):
        kb = load_kb(*_random_kb_files(tmp_path, int(name.split("-")[1])))
    elif name == "exact-pairs":
        kb = load_kb(*_exact_kb_files(tmp_path))
    else:
        kb = load_kb(*_fixture_files(name))
    ids = [ent.id for ent in kb.entities.values()]
    for fact in kb.facts:
        ids += [fact.subject, fact.relation] + ([] if fact.obj_is_literal else [fact.obj])
    objects, values = _distinct(ids)
    assert objects == values
    objects, values = _distinct(ent.label for ent in kb.entities.values())
    assert objects == values
    objects, values = _distinct(ent.classes for ent in kb.entities.values())
    assert objects == values < len(kb.entities)
    literals = [fact.obj for fact in kb.facts if fact.obj_is_literal]
    objects, values = _distinct(literals, _exact)
    assert objects == values
    for literal in literals:
        assert any(literal.datatype is datatype for datatype in LITERAL_DATATYPES)

    # Strip the class most entities have: entities that had one class set
    # share one stripped set, and untouched entities stay the same objects.
    counts = Counter(cid for ent in kb.entities.values() for cid in ent.classes)
    dead = max(sorted(counts), key=counts.__getitem__)
    out = delete_elements(kb, DeletionPlan(classes=(dead,)))
    changed = [ent for ent in out.entities.values() if ent is not kb.entities[ent.id]]
    assert len(changed) == counts[dead] > 1
    assert all(dead not in ent.classes for ent in changed)
    objects, values = _distinct(ent.classes for ent in changed)
    assert objects == values == len({kb.entities[ent.id].classes for ent in changed})


def test_a_plan_naming_a_lone_surrogate_round_trips(tmp_path):
    """An id may hold a lone surrogate, as JSON's "\\ud800" decodes; save_plan
    writes it as that escape and load_plan reads back the same plan."""
    path = str(tmp_path / "plan.json")
    plan = DeletionPlan(entities=("m.\ud800",), facts=(Fact("m.\ud800", "c.a.to_b", "m.2"),))
    save_plan(plan, path)
    assert '"m.\\ud800"' in (tmp_path / "plan.json").read_text(encoding="utf-8")
    assert load_plan(path) == plan


def test_plan_literals_hold_the_datatype_constants(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"facts": [
        {"s": "m.1", "r": "c.a.year", "o": {"literal": 1999, "type": "integer"}},
        {"s": "m.1", "r": "c.a.name", "o": {"literal": "one"}},
    ]}))
    datatypes = [fact.obj.datatype for fact in load_plan(str(plan)).facts]
    assert datatypes == ["integer", "string"]
    assert datatypes[0] is LITERAL_DATATYPES[0] and datatypes[1] is LITERAL_DATATYPES[2]


# ---------------------------------------------------------------------------
# the index pass: what it builds, and in which order
# ---------------------------------------------------------------------------

def _assert_reference_indexes(kb):
    for name, reference in reference_indexes(kb).items():
        assert list(getattr(kb, name).items()) == list(reference.items()), name


INDEXES = ("by_class", "by_subject", "by_object", "by_relation")


def _indexes(kb):
    return {name: list(getattr(kb, name).items()) for name in INDEXES}


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_indexes_match_the_reference_before_and_after_deletion(seed, data):
    kb = random_kb(random.Random(seed))
    _assert_reference_indexes(kb)
    kb2 = delete_elements(kb, data.draw(_plans(kb)))
    _assert_reference_indexes(kb2)
    assert _indexes(kb2) == _indexes(KnowledgeBase(kb2.classes, kb2.relations, kb2.entities, kb2.facts))


# ---------------------------------------------------------------------------
# deletion builds the child through the constructor: its index keys in the
# child's order, and the parent left as it was
# ---------------------------------------------------------------------------

def _moving_kb():
    """Deleting the first fact moves subject m.1, object m.3 and relation
    c.a.r1 behind m.2, m.4 and c.a.r2, which first appear in the second."""
    return build_kb(
        classes=[SchemaClass("c.a"), SchemaClass("c.b")],
        relations=[RelationDef("c.a.r1", "c.a", "c.b"), RelationDef("c.a.r2", "c.a", "c.b")],
        entities=[Entity("m.1", "", frozenset({"c.a"})), Entity("m.2", "", frozenset({"c.a"})),
                  Entity("m.3", "", frozenset({"c.b"})), Entity("m.4", "", frozenset({"c.b"}))],
        facts=[Fact("m.1", "c.a.r1", "m.3"), Fact("m.2", "c.a.r2", "m.4"),
               Fact("m.1", "c.a.r1", "m.4"), Fact("m.2", "c.a.r1", "m.3")],
    )


def test_a_key_whose_first_fact_goes_moves_behind_later_keys():
    kb = _moving_kb()
    before = _indexes(kb)
    out = delete_elements(kb, DeletionPlan(facts=(Fact("m.1", "c.a.r1", "m.3"),)))
    assert out.facts == kb.facts[1:]
    assert list(out.by_subject) == ["m.2", "m.1"]
    assert list(out.by_object) == ["m.4", "m.3"]
    assert list(out.by_relation) == ["c.a.r2", "c.a.r1"]
    _assert_reference_indexes(out)
    assert _indexes(kb) == before  # the parent is unchanged


def test_deleting_an_entity_leaves_the_parent_indexes_as_they_were(fig1_kb3):
    before = _indexes(fig1_kb3)
    plan = DeletionPlan(entities=("m.0auth",), relations=("book.author.awards_won",))
    out = delete_elements(fig1_kb3, plan)
    assert "m.0auth" not in out.by_subject and "m.0auth" not in out.by_object
    _assert_reference_indexes(out)
    assert _indexes(fig1_kb3) == before


def test_an_empty_plan_gives_a_new_equal_kb_with_equal_indexes(fig1_kb3):
    out = delete_elements(fig1_kb3, DeletionPlan())
    assert out is not fig1_kb3 and same_as(out, fig1_kb3)
    assert _indexes(out) == _indexes(fig1_kb3)


def test_a_fact_named_twice_is_deleted_once():
    kb = _moving_kb()
    fact = Fact("m.2", "c.a.r1", "m.3")
    once = delete_elements(kb, DeletionPlan(facts=(fact,)))
    twice = delete_elements(kb, DeletionPlan(facts=(fact, fact)))
    assert twice.facts == once.facts == kb.facts[:3]
    assert _indexes(twice) == _indexes(once)
    _assert_reference_indexes(twice)


# ---------------------------------------------------------------------------
# load_data's inline tests against the SHAPES route
# ---------------------------------------------------------------------------

DATA_LINES = [line for name in FIXTURE_KBS
              for line in (FIXTURES / name / "data.jsonl").read_text(encoding="utf-8").splitlines()
              if line.strip()]
# A value of each JSON type, a literal value of each datatype among them.
JSON_VALUES = (None, True, False, 0, 7, -0.0, 2.5, "", "m.x", "2024-01-05",
               [], ["c.a"], [1], [None], {}, {"entity": "m.1"}, {"literal": 1})


def _outcome(load, path):
    try:
        return repr(load(path))
    except FormatError as err:
        return f"FormatError: {err}"


@settings(max_examples=300)
@given(data=st.data())
def test_load_data_agrees_with_the_shapes_route(data):
    original = data.draw(st.sampled_from(DATA_LINES), label="line")
    line = [json.loads(original)]
    record = line[0]
    # The line, each of its fields, each element of its classes, each field of its object.
    slots = [(line, 0)] + [(record, key) for key in record]
    slots += [(record["o"], key) for key in record.get("o", {})]
    slots += [(record["classes"], i) for i in range(len(record.get("classes", ())))]
    parent, key = data.draw(st.sampled_from(slots), label="slot")
    value = data.draw(st.sampled_from(JSON_VALUES), label="value")
    if type(parent) is dict and data.draw(st.booleans(), label="remove"):
        del parent[key]
    else:
        parent[key] = value
    # The valid line first, so a repeat of its ids or literal meets the load's table.
    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/data.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original + "\n" + json.dumps(line[0]) + "\n")
        assert _outcome(load_data, path) == _outcome(reference_load_data, path)


@pytest.mark.parametrize("name", FIXTURE_KBS)
def test_facts_before_entities_load_to_the_same_kb(tmp_path, name):
    schema, data = _fixture_files(name)
    lines = (FIXTURES / name / "data.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    facts_first = tmp_path / "facts_first.jsonl"
    reordered = sorted(lines, key=lambda line: "s" not in json.loads(line))  # stable: facts first
    facts_first.write_text("".join(reordered), encoding="utf-8")
    assert facts_first.read_text(encoding="utf-8") != "".join(lines)
    written = []
    for path in (data, str(facts_first)):
        kb = load_kb(schema, path)
        _assert_reference_indexes(kb)
        out = tmp_path / f"saved_{len(written)}"
        out.mkdir()
        save_kb(kb, str(out / "schema.json"), str(out / "data.jsonl"))
        written.append(((out / "schema.json").read_bytes(), (out / "data.jsonl").read_bytes()))
    assert written[0] == written[1]

import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from kbqa_repair.executor import execute
from kbqa_repair.kb import (
    DeletionPlan,
    Entity,
    Fact,
    FormatError,
    RelationDef,
    ReferentialError,
    SchemaClass,
    UnknownId,
    build_kb,
    delete_elements,
    load_kb,
    load_plan,
    paths_from_entity,
    validate_plan,
)
from kbqa_repair.query import Literal, render_sparql
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
    kb.validate()


def test_fact_with_unknown_relation_is_referential_error():
    with pytest.raises(ReferentialError) as err:
        build_kb(
            classes=[SchemaClass("c.a"), SchemaClass("c.b")],
            relations=[],
            entities=[
                Entity("m.1", "", frozenset({"c.a"})),
                Entity("m.2", "", frozenset({"c.b"})),
            ],
            facts=[Fact("m.1", "ghost.rel", "m.2")],
        )
    assert "ghost.rel" in str(err.value)


def test_fact_domain_violation_rejected():
    with pytest.raises(ReferentialError):
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
    assert fig1_kb3.has_relation("book.author.works_written")
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


def test_lookup_is_total(fig1_kb3):
    assert fig1_kb3.entity_classes("no.such.id") == frozenset()


def test_delete_relation_removes_its_facts(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(relations=("book.author.works_written",)))
    assert not kb2.has_relation("book.author.works_written")
    assert all(f.relation != "book.author.works_written" for f in kb2.facts)
    kb2.validate()


def test_delete_class_cascades_to_relations_and_entities(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(classes=("book.publisher",)))
    assert not kb2.has_class("book.publisher")
    assert not kb2.has_relation("book.author.publisher")
    assert not kb2.has_relation("book.publisher.books_published")
    assert kb2.has_entity("m.0pub")  # no cascade to entities
    assert kb2.entity_classes("m.0pub") == frozenset()
    kb2.validate()


def test_delete_entity_clears_indexes(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(entities=("m.0pub",)))
    assert kb2.by_subject.get("m.0pub", ()) == ()
    assert kb2.by_object.get("m.0pub", ()) == ()
    kb2.validate()


def test_validate_plan_unknown_id_raises(fig1_kb3):
    with pytest.raises(UnknownId):
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
        assert once.same_as(twice)


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
    paths = paths_from_entity(kb, "m.e", max_len=1)
    assert len(paths) == 1  # one relation, one path query
    assert execute(kb, paths[0]) == {"m.a", "m.b"}


def test_paths_from_isolated_entity(fig1_kb3):
    assert paths_from_entity(fig1_kb3, "m.0awd") == []


def test_paths_include_author_books_path(fig1_kb3):
    paths = paths_from_entity(fig1_kb3, "m.0auth", max_len=2)
    rendered = [render_sparql(p) for p in paths]
    assert any("ns:m.0auth ns:book.author.works_written ?x" in r for r in rendered)
    # deterministic order: lexicographic by relation-id sequence
    sequences = [tuple(p.value for _, p, _ in path.patterns) for path in paths]
    assert sequences == sorted(sequences)


def test_paths_execute_non_empty(fig1_kb3, fig1_kb1, pairs_kb):
    for kb in (fig1_kb3, fig1_kb1, pairs_kb):
        for eid in kb.entities:
            for path in paths_from_entity(kb, eid, max_len=2):
                assert execute(kb, path), render_sparql(path)


def test_paths_unknown_entity(fig1_kb3):
    with pytest.raises(UnknownId):
        paths_from_entity(fig1_kb3, "m.nope")


def test_revalidation_after_any_deletion(fig1_kb3):
    for plan in (
        DeletionPlan(classes=("award.award",)),
        DeletionPlan(relations=("book.author.influenced",)),
        DeletionPlan(entities=("m.0b3",)),
        DeletionPlan(facts=(Fact("m.0auth", "book.author.awards_won", "m.0awd"),)),
    ):
        delete_elements(fig1_kb3, plan).validate()


# ---------------------------------------------------------------------------
# plans against the key() oracle, on random KBs
# ---------------------------------------------------------------------------

def _twin(fact):
    """The KB fact with its object's kind or literal type changed."""
    if isinstance(fact.obj, Literal):
        other = "float" if fact.obj.datatype == "integer" else "integer"
        return Fact(fact.subject, fact.relation, Literal(fact.obj.value, other))
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
        st.builds(Literal, st.integers(0, 50).map(float), st.sampled_from(["integer", "float"])),
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
    except UnknownId:
        accepted = False
    assert accepted == known

    out = delete_elements(kb, plan)
    out.validate()
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

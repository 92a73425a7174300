import json

import pytest

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
from kbqa_repair.query import render_sparql


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

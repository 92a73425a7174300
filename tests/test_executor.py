import random

import pytest

from kbqa_repair.executor import _compare, execute
from kbqa_repair.kb import DeletionPlan, Entity, Fact, RelationDef, SchemaClass, build_kb, delete_elements
from kbqa_repair.query import Literal, parse_sexpr, parse_sparql
from oracles import SizeLimit, brute_force_execute, pruned_execute
from randgen import random_kb, random_query


def test_one_hop_on_fig1(fig1_kb3):
    q = parse_sparql("SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }")
    assert execute(fig1_kb3, q) == {"m.0b1", "m.0b2"}


def test_type_constrained_one_hop_non_empty(fig1_kb3):
    q = parse_sparql(
        "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x . "
        "?x ns:type.object.type ns:book.written_work }"
    )
    assert execute(fig1_kb3, q) == {"m.0b1", "m.0b2"}


def test_empty_kb_gives_empty_answer(fig1_kb3):
    empty = delete_elements(
        fig1_kb3, DeletionPlan(entities=tuple(sorted(fig1_kb3.entities)))
    )
    q = parse_sparql("SELECT ?x WHERE { ?x ns:book.author.works_written ?y }")
    assert execute(empty, q) == frozenset()


def test_schema_absent_reference_matches_nothing(fig1_kb3):
    q = parse_sparql("SELECT ?x WHERE { ?x ns:ghost.relation ?y }")
    assert execute(fig1_kb3, q) == frozenset()
    q2 = parse_sparql("SELECT ?x WHERE { ?x ns:type.object.type ns:ghost.class }")
    assert execute(fig1_kb3, q2) == frozenset()


def test_two_variable_chain(fig1_kb3):
    q = parse_sparql(
        "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.publisher ?x0 . "
        "?x0 ns:book.publisher.books_published ?x }"
    )
    expected = {"m.0b1", "m.0b2", "m.0b3"}
    assert execute(fig1_kb3, q) == expected
    assert brute_force_execute(fig1_kb3, q) == expected


def test_filters(pairs_kb):
    over = parse_sparql("SELECT ?x WHERE { ?x ns:geo.city.population ?p . FILTER(?p > 700) }")
    assert execute(pairs_kb, over) == {"m.0c1", "m.0c2"}
    eq = parse_sparql("SELECT ?x WHERE { ?x ns:geo.city.population ?p . FILTER(?p = 550) }")
    assert execute(pairs_kb, eq) == {"m.0c3"}
    cross_kind = parse_sparql(
        'SELECT ?x WHERE { ?x ns:geo.city.population ?p . FILTER(?p < "2024-01-01"^^xsd:date) }'
    )
    assert execute(pairs_kb, cross_kind) == frozenset()


# Each case: left, right, then the expected result of =, !=, <, <=, >, >=.
COMPARISONS = {
    "integer<integer": (Literal(2, "integer"), Literal(3, "integer"),
                        (False, True, True, True, False, False)),
    "integer>float": (Literal(3, "integer"), Literal(2.5, "float"),
                      (False, True, False, False, True, True)),
    "float<integer": (Literal(2.5, "float"), Literal(3, "integer"),
                      (False, True, True, True, False, False)),
    "string<string": (Literal("abc", "string"), Literal("abd", "string"),
                      (False, True, True, True, False, False)),
    "date>date": (Literal("2024-05-01", "date"), Literal("2023-12-31", "date"),
                  (False, True, False, False, True, True)),
    "integer=integer": (Literal(4, "integer"), Literal(4, "integer"),
                        (True, False, False, True, False, True)),
    "float=integer": (Literal(2.0, "float"), Literal(2, "integer"),
                      (True, False, False, True, False, True)),
    "string=string": (Literal("abc", "string"), Literal("abc", "string"),
                      (True, False, False, True, False, True)),
    "date=date": (Literal("2024-01-01", "date"), Literal("2024-01-01", "date"),
                  (True, False, False, True, False, True)),
    # across kinds every operator is False, != included
    "string~date": (Literal("2024-01-01", "string"), Literal("2024-01-01", "date"), (False,) * 6),
    "date~string": (Literal("2024-01-01", "date"), Literal("2023-01-01", "string"), (False,) * 6),
    "integer~string": (Literal(1, "integer"), Literal("1", "string"), (False,) * 6),
    "date~integer": (Literal("2024-01-01", "date"), Literal(2024, "integer"), (False,) * 6),
}


@pytest.mark.parametrize("left, right, expected", COMPARISONS.values(), ids=COMPARISONS)
def test_compare_table(left, right, expected):
    got = tuple(_compare(left, op, right) for op in ("=", "!=", "<", "<=", ">", ">="))
    assert got == expected


def test_literal_subject_reads_no_relation_index():
    """A variable bound to a literal matches nothing as a subject, and finding
    that out reads no relation's facts."""

    class NoRead(dict):
        def get(self, key, default=None):
            pytest.fail(f"by_relation read for {key}")

    kb = build_kb(
        classes=[SchemaClass("c.a")],
        relations=[RelationDef("c.a.r1", "c.a", "integer"), RelationDef("c.a.r2", "c.a", "c.a")],
        entities=[Entity("m.e", "e", frozenset({"c.a"})), Entity("m.f", "f", frozenset({"c.a"}))],
        facts=[Fact("m.e", "c.a.r1", Literal(1, "integer")), Fact("m.e", "c.a.r1", Literal(2, "integer")),
               Fact("m.e", "c.a.r2", "m.f"), Fact("m.f", "c.a.r2", "m.e")],
    )
    q = parse_sparql("SELECT ?z WHERE { ns:m.e ns:c.a.r1 ?y . ?y ns:c.a.r2 ?z }")
    assert pruned_execute(kb, q) == frozenset()
    kb.by_relation = NoRead(kb.by_relation)
    assert execute(kb, q) == frozenset()


def test_numeric_coercion_in_filters(pairs_kb):
    q = parse_sparql("SELECT ?x WHERE { ?x ns:geo.river.length ?l . FILTER(?l <= 300) }")
    assert execute(pairs_kb, q) == {"m.0r2"}


def test_count_and_empty_count(pairs_kb):
    q = parse_sparql("SELECT COUNT(DISTINCT ?x) WHERE { ?x ns:geo.city.country ns:m.0k1 }")
    assert execute(pairs_kb, q) == {Literal(2, "integer")}
    empty = parse_sparql("SELECT COUNT(?x) WHERE { ?x ns:geo.city.country ns:m.0r1 }")
    assert execute(pairs_kb, empty) == {Literal(0, "integer")}
    assert brute_force_execute(pairs_kb, empty) == {Literal(0, "integer")}


def test_argmax_argmin_with_ties(pairs_kb):
    q = parse_sexpr("(ARGMAX (JOIN geo.city.country m.0k1) geo.city.population)")
    assert execute(pairs_kb, q) == {"m.0c1"}
    q2 = parse_sexpr("(ARGMIN (JOIN geo.city.country m.0k1) geo.city.population)")
    assert execute(pairs_kb, q2) == {"m.0c2"}
    # tie: both rivers flow through countries with one capital each
    q3 = parse_sexpr("(ARGMAX (AND geo.river (JOIN geo.river.countries m.0k1)) geo.river.length)")
    assert execute(pairs_kb, q3) == {"m.0r1"}
    assert brute_force_execute(pairs_kb, q3) == {"m.0r1"}
    # a path of three relations ranks each city by its country's capital, so
    # the two cities of m.0k1 tie
    q4 = parse_sexpr("(ARGMAX geo.city geo.city.country geo.country.capital geo.city.population)")
    assert execute(pairs_kb, q4) == {"m.0c1", "m.0c2"}
    assert brute_force_execute(pairs_kb, q4) == {"m.0c1", "m.0c2"}


def test_brute_force_size_limit(pairs_kb):
    q = parse_sparql("SELECT ?x WHERE { ?x ns:geo.city.country ?y . ?y ns:geo.country.cities ?z }")
    with pytest.raises(SizeLimit):
        brute_force_execute(pairs_kb, q, limit=10)


def test_randomized_equivalence_small():
    rng = random.Random(20240501)
    for _ in range(60):
        kb = random_kb(rng, max_entities=12)
        q = random_query(rng, kb)
        assert execute(kb, q) == brute_force_execute(kb, q)


def test_pruned_oracle_matches_full_enumeration():
    """The first 40 of criterion 3's cases, drawn the same way: the pruned
    oracle that criterion 3 checks the executor against agrees with full
    enumeration."""
    rng = random.Random(987654321)
    for _ in range(40):
        kb = random_kb(rng, max_entities=30)
        q = random_query(rng, kb, max_patterns=3)
        assert pruned_execute(kb, q) == brute_force_execute(kb, q)


def test_monotonic_under_deletion():
    rng = random.Random(99)
    shrunk = 0
    for _ in range(40):
        kb = random_kb(rng, max_entities=15)
        q = random_query(rng, kb)
        if q.aggregate is not None or q.filters:
            continue
        targets = sorted(kb.entities)
        plan = DeletionPlan(entities=tuple(rng.sample(targets, min(2, len(targets)))))
        kb2 = delete_elements(kb, plan)
        before, after = execute(kb, q), execute(kb2, q)
        assert after <= before
        if after < before:
            shrunk += 1
    assert shrunk >= 1  # deletions actually exercised the property

#!/usr/bin/env python3
"""Regenerate the hand-built test fixtures under tests/fixtures/.

Two golden suites:
  fig1/ -- one question ("which books did j r hart write?") over three toy
           KBs: complete (kb3), facts deleted (kb2), relation deleted (kb1),
           plus one scripted mock fixture that drives all three runs, and
           one (mock_repeat.json) whose repair rounds repeat two queries.
  a13/  -- the music-recording genre question whose repair trace goes
           type-conflict -> back-translation disagreement -> all-pass.

golden_runs/ snapshots what `run` writes for both suites; tests/test_cli.py
reruns them and compares bytes.

Run from the repo root: python tools/make_fixtures.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from kbqa_repair.cli import main as cli_main  # noqa: E402
from kbqa_repair.kb import (  # noqa: E402
    DeletionPlan,
    Entity,
    Fact,
    RelationDef,
    SchemaClass,
    build_kb,
    delete_elements,
    save_kb,
    save_plan,
    jsonl_writer,
    write_json,
)
from kbqa_repair.pipeline import build_pun_prompt  # noqa: E402
from kbqa_repair.query import Literal, parse_sparql  # noqa: E402
from kbqa_repair.retrieval import RetrievalContext  # noqa: E402
from oracles import render_sexpr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def jsonl(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with jsonl_writer(str(path)) as write:
        write(records)


def write_mock(path: Path, matchers: list[tuple[str, str]]) -> None:
    doc = [{"match": {"kind": "substring", "text": key}, "reply": reply} for key, reply in matchers]
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(str(path), doc)


# ---------------------------------------------------------------------------
# fig1: author/book toy graph
# ---------------------------------------------------------------------------

FIG1_QUESTION = "which books did j r hart write?"

LF_WWA = (
    "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.written_work.author ?x . "
    "?x ns:type.object.type ns:book.written_work }"
)
LF_AWARD_A = (
    "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x . "
    "?x ns:type.object.type ns:award.award }"
)
LF_WW = (
    "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x . "
    "?x ns:type.object.type ns:book.written_work }"
)
LF_PUB = (
    "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.publisher ?x0 . "
    "?x0 ns:book.publisher.books_published ?x . ?x ns:type.object.type ns:book.written_work }"
)
LF_BPB = (
    "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.publisher.books_published ?x . "
    "?x ns:type.object.type ns:book.written_work }"
)
LF_AWARD_B = (
    "SELECT DISTINCT ?y WHERE { ns:m.0auth ns:book.author.awards_won ?y . "
    "?y ns:type.object.type ns:award.award }"
)
LF_INF = "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.influenced ?x }"

NAT_AWARD = (
    "SELECT DISTINCT ?award WHERE { ns:m.0auth ns:book.author.awards_won ?award . "
    "?award ns:type.object.type ns:award.award }"
)
NAT_WW = (
    "SELECT DISTINCT ?book WHERE { ns:m.0auth ns:book.author.works_written ?book . "
    "?book ns:type.object.type ns:book.written_work }"
)
NAT_PUB = (
    "SELECT DISTINCT ?book WHERE { ns:m.0auth ns:book.author.publisher ?publisher . "
    "?publisher ns:book.publisher.books_published ?book . "
    "?book ns:type.object.type ns:book.written_work }"
)
NAT_AWARD_B = (
    "SELECT DISTINCT ?prize WHERE { ns:m.0auth ns:book.author.awards_won ?prize . "
    "?prize ns:type.object.type ns:award.award }"
)
NAT_INF = (
    "SELECT DISTINCT ?influenced_author WHERE "
    "{ ns:m.0auth ns:book.author.influenced ?influenced_author }"
)

QB_AWARD = "which awards has j r hart won?"
QB_PUB = "which books were published by the publisher of j r hart?"
QB_AWARD_B = "what awards did j r hart win?"
QB_INF = "which authors were influenced by j r hart?"


def build_fig1() -> None:
    out = FIXTURES / "fig1"
    classes = [
        SchemaClass("award.award", "award"),
        SchemaClass("book.author", "author"),
        SchemaClass("book.publisher", "publisher"),
        SchemaClass("book.written_work", "written work"),
    ]
    relations = [
        RelationDef("book.author.awards_won", "book.author", "award.award"),
        RelationDef("book.author.influenced", "book.author", "book.author"),
        RelationDef("book.author.publisher", "book.author", "book.publisher"),
        RelationDef("book.author.works_written", "book.author", "book.written_work"),
        RelationDef("book.publisher.books_published", "book.publisher", "book.written_work"),
        RelationDef("book.written_work.author", "book.written_work", "book.author"),
    ]
    entities = [
        Entity("m.0auth", "j r hart", frozenset({"book.author"})),
        Entity("m.0auth2", "p q quill", frozenset({"book.author"})),
        Entity("m.0b1", "the silent river", frozenset({"book.written_work"})),
        Entity("m.0b2", "north of nowhere", frozenset({"book.written_work"})),
        Entity("m.0b3", "harbor lights", frozenset({"book.written_work"})),
        Entity("m.0pub", "lantern press", frozenset({"book.publisher"})),
        Entity("m.0awd", "golden quill award", frozenset({"award.award"})),
    ]
    facts = [
        Fact("m.0auth", "book.author.works_written", "m.0b1"),
        Fact("m.0auth", "book.author.works_written", "m.0b2"),
        Fact("m.0auth2", "book.author.works_written", "m.0b3"),
        Fact("m.0b1", "book.written_work.author", "m.0auth"),
        Fact("m.0b2", "book.written_work.author", "m.0auth"),
        Fact("m.0b3", "book.written_work.author", "m.0auth2"),
        Fact("m.0auth", "book.author.publisher", "m.0pub"),
        Fact("m.0auth2", "book.author.publisher", "m.0pub"),
        Fact("m.0pub", "book.publisher.books_published", "m.0b1"),
        Fact("m.0pub", "book.publisher.books_published", "m.0b2"),
        Fact("m.0pub", "book.publisher.books_published", "m.0b3"),
        Fact("m.0auth", "book.author.awards_won", "m.0awd"),
        Fact("m.0auth", "book.author.influenced", "m.0auth2"),
    ]
    kb3 = build_kb(classes, relations, entities, facts)
    (out / "kb3").mkdir(parents=True, exist_ok=True)
    save_kb(kb3, str(out / "kb3" / "schema.json"), str(out / "kb3" / "data.jsonl"))

    # kb2: the author's writing facts (both directions) are gone.
    plan_kb2 = DeletionPlan(
        facts=(
            Fact("m.0auth", "book.author.works_written", "m.0b1"),
            Fact("m.0auth", "book.author.works_written", "m.0b2"),
            Fact("m.0b1", "book.written_work.author", "m.0auth"),
            Fact("m.0b2", "book.written_work.author", "m.0auth"),
        )
    )
    kb2 = delete_elements(kb3, plan_kb2)
    (out / "kb2").mkdir(parents=True, exist_ok=True)
    save_kb(kb2, str(out / "kb2" / "schema.json"), str(out / "kb2" / "data.jsonl"))
    save_plan(plan_kb2, str(out / "plan_kb2.json"))

    # kb1: the writing relations are gone from the schema entirely.
    plan_kb1 = DeletionPlan(
        relations=("book.author.works_written", "book.written_work.author")
    )
    kb1 = delete_elements(kb3, plan_kb1)
    (out / "kb1").mkdir(parents=True, exist_ok=True)
    save_kb(kb1, str(out / "kb1" / "schema.json"), str(out / "kb1" / "data.jsonl"))
    save_plan(plan_kb1, str(out / "plan_kb1.json"))

    linked = [{"mention": "j r hart", "id": "m.0auth"}]
    complete = ["m.0b1", "m.0b2"]
    jsonl(
        out / "dataset_kb3.jsonl",
        [
            {
                "question": FIG1_QUESTION,
                "linked_entities": linked,
                "gold_lf": {"dialect": "sparql", "text": LF_WW},
                "gold_answer": ["m.0b1", "m.0b2"],
                "complete_kb_answer": complete,
                "label": "answerable",
                "category": "n/a",
            }
        ],
    )
    jsonl(
        out / "dataset_kb2.jsonl",
        [
            {
                "question": FIG1_QUESTION,
                "linked_entities": linked,
                "gold_lf": {"dialect": "sparql", "text": LF_WW},
                "gold_answer": "NA",
                "complete_kb_answer": complete,
                "label": "data-unans",
                "category": "missing-fact",
            }
        ],
    )
    jsonl(
        out / "dataset_kb1.jsonl",
        [
            {
                "question": FIG1_QUESTION,
                "linked_entities": linked,
                "gold_lf": "NK",
                "gold_answer": "NA",
                "complete_kb_answer": complete,
                "label": "schema-unans",
                "category": "missing-relation",
            }
        ],
    )

    different = "Hence, they are different."
    matchers = [
        # v3 naturalization
        ("relation names\nSELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x", NAT_AWARD),
        ("relation names\nSELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x", NAT_WW),
        ("relation names\nSELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.publisher ?x0", NAT_PUB),
        ("relation names\nSELECT DISTINCT ?y WHERE { ns:m.0auth ns:book.author.awards_won ?y", NAT_AWARD_B),
        ("relation names\nSELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.influenced ?x", NAT_INF),
        # v3 back-translation
        ("as natural as possible. SELECT DISTINCT ?award WHERE", QB_AWARD),
        (
            "as natural as possible. SELECT DISTINCT ?book WHERE { ns:m.0auth ns:book.author.works_written",
            FIG1_QUESTION,
        ),
        (
            "as natural as possible. SELECT DISTINCT ?book WHERE { ns:m.0auth ns:book.author.publisher",
            QB_PUB,
        ),
        ("as natural as possible. SELECT DISTINCT ?prize WHERE", QB_AWARD_B),
        ("as natural as possible. SELECT DISTINCT ?influenced_author WHERE", QB_INF),
        # v3 equivalence
        (
            f"Question we answer: {QB_AWARD}",
            "The question we answer returns awards the author won. The question originally asked "
            f"returns books the author wrote. The reasoning steps are different. {different}",
        ),
        (
            f"Question we answer: {QB_PUB}",
            "The question we answer returns books put out by the author's publisher. The question "
            f"originally asked returns books the author wrote. The reasoning steps are different. {different}",
        ),
        (
            f"Question we answer: {QB_AWARD_B}",
            "The question we answer returns awards. The question originally asked returns books. "
            f"The reasoning steps are different. {different}",
        ),
        (
            f"Question we answer: {QB_INF}",
            "The question we answer returns authors influenced by j r hart. The question originally "
            f"asked returns books written by j r hart. The reasoning steps are different. {different}",
        ),
        # repair rounds
        ("['book.written_work.author']", LF_AWARD_A),
        ("['book.publisher.books_published']", LF_PUB),
        (f'You have answered the question "{QB_AWARD}"', LF_WW),
        (f'You have answered the question "{QB_PUB}"', LF_AWARD_B),
        (f'You have answered the question "{QB_AWARD_B}"', LF_INF),
        ("gives an empty answer when executed", LF_PUB),
        # initial generation, most specific KB first
        ("ns:m.0auth ns:book.author.works_written ?x", LF_WWA),
        ("book.author.works_written (type:book.author R type:book.written_work)", LF_WWA),
        ("Candidate entities:  j r hart m.0auth", LF_BPB),
    ]
    write_mock(out / "mock.json", matchers)


def build_fig1_repeat() -> None:
    """A mock for the kb3 question whose repair rounds alternate between two
    queries, so every round after the second regenerates a query the loop
    already checked."""
    different = "Hence, they are different."
    matchers = [
        ("relation names\nSELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x", NAT_AWARD),
        ("relation names\nSELECT DISTINCT ?y WHERE { ns:m.0auth ns:book.author.awards_won ?y", NAT_AWARD_B),
        ("as natural as possible. SELECT DISTINCT ?award WHERE", QB_AWARD),
        ("as natural as possible. SELECT DISTINCT ?prize WHERE", QB_AWARD_B),
        (f"Question we answer: {QB_AWARD}", f"The reasoning steps are different. {different}"),
        (f"Question we answer: {QB_AWARD_B}", f"The reasoning steps are different. {different}"),
        (f'You have answered the question "{QB_AWARD}"', LF_AWARD_B),
        (f'You have answered the question "{QB_AWARD_B}"', LF_AWARD_A),
        ("orig_nl_qn = ", "1"),
        ("ns:m.0auth ns:book.author.works_written ?x", LF_AWARD_A),
    ]
    write_mock(FIXTURES / "fig1" / "mock_repeat.json", matchers)


# ---------------------------------------------------------------------------
# a13: music-recording genre trace
# ---------------------------------------------------------------------------

A13_QUESTION = (
    "what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?"
)
A13_MENTION = "who m i (feat. 일리닛, new champ, myk)"

A13_LF1 = (
    "SELECT DISTINCT ?x WHERE { ns:m.0123lk0s ns:music.genre.recordings ?x . "
    "?x ns:type.object.type ns:music.genre }"
)
A13_LF2 = (
    "SELECT DISTINCT ?y WHERE { ns:m.0123lk0s ns:music.recording.artist ?x . "
    "?x ns:music.artist.genre ?y . ?y ns:type.object.type ns:music.genre }"
)
A13_LF3 = (
    "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
    "?x ns:type.object.type ns:music.genre }"
)
A13_NAT2 = (
    "SELECT DISTINCT ?genre WHERE { ns:m.0123lk0s ns:music.recording.artist ?artist . "
    "?artist ns:music.artist.genre ?genre . ?genre ns:type.object.type ns:music.genre }"
)
A13_NAT3 = (
    "SELECT DISTINCT ?genre WHERE { ?genre ns:music.genre.recordings ns:m.0123lk0s . "
    "?genre ns:type.object.type ns:music.genre }"
)
A13_QB2 = (
    "what is the musical genre associated with the artist of the recording "
    "who m i (feat. 일리닛, new champ, myk)?"
)


def build_a13() -> None:
    out = FIXTURES / "a13"
    classes = [
        SchemaClass("music.artist", "musical artist"),
        SchemaClass("music.genre", "musical genre"),
        SchemaClass("music.recording", "musical recording"),
    ]
    relations = [
        RelationDef("music.artist.genre", "music.artist", "music.genre"),
        RelationDef("music.genre.recordings", "music.genre", "music.recording"),
        RelationDef("music.recording.artist", "music.recording", "music.artist"),
    ]
    entities = [
        Entity("m.0123lk0s", A13_MENTION, frozenset({"music.recording"})),
        Entity("m.0artst", "new champ", frozenset({"music.artist"})),
        Entity("m.0kgenre", "korean hip hop", frozenset({"music.genre"})),
        Entity("m.0hgenre", "hip hop", frozenset({"music.genre"})),
    ]
    facts = [
        Fact("m.0kgenre", "music.genre.recordings", "m.0123lk0s"),
        Fact("m.0123lk0s", "music.recording.artist", "m.0artst"),
        Fact("m.0artst", "music.artist.genre", "m.0hgenre"),
    ]
    kb = build_kb(classes, relations, entities, facts)
    (out / "kb").mkdir(parents=True, exist_ok=True)
    save_kb(kb, str(out / "kb" / "schema.json"), str(out / "kb" / "data.jsonl"))

    jsonl(
        out / "dataset.jsonl",
        [
            {
                "question": A13_QUESTION,
                "linked_entities": [{"mention": A13_MENTION, "id": "m.0123lk0s"}],
                "gold_lf": {"dialect": "sparql", "text": A13_LF3},
                "gold_answer": ["m.0kgenre"],
                "complete_kb_answer": ["m.0kgenre"],
                "label": "answerable",
                "category": "n/a",
            }
        ],
    )

    matchers = [
        ("relation names\nSELECT DISTINCT ?y WHERE { ns:m.0123lk0s ns:music.recording.artist", A13_NAT2),
        ("relation names\nSELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s", A13_NAT3),
        (
            "as natural as possible. SELECT DISTINCT ?genre WHERE { ns:m.0123lk0s ns:music.recording.artist",
            A13_QB2,
        ),
        (
            "as natural as possible. SELECT DISTINCT ?genre WHERE { ?genre ns:music.genre.recordings",
            A13_QUESTION,
        ),
        (
            f"Question we answer: {A13_QB2}",
            "The question originally asked genre of the song. However, the question we answer "
            "returns genre associated with artist of the song. Hence, they are different.",
        ),
        ("['music.genre.recordings']", A13_LF2),
        ('You have answered the question "what is the musical genre associated with the artist', A13_LF3),
        ("Candidate entities:  who m i (feat.", A13_LF1),
    ]
    write_mock(out / "mock.json", matchers)


# ---------------------------------------------------------------------------
# pairs: dialect-agreement corpus over a small geography KB
# ---------------------------------------------------------------------------

PAIR_SPARQLS = [
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k2 }",
    "SELECT DISTINCT ?x WHERE { ns:m.0k1 ns:geo.country.cities ?x }",
    "SELECT DISTINCT ?x WHERE { ns:m.0c1 ns:geo.city.country ?x }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 . ?x ns:type.object.type ns:geo.city }",
    "SELECT DISTINCT ?x WHERE { ?x ns:type.object.type ns:geo.city }",
    "SELECT DISTINCT ?x WHERE { ?x ns:type.object.type ns:geo.country }",
    "SELECT DISTINCT ?x WHERE { ?x ns:type.object.type ns:geo.river }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.river.countries ns:m.0k1 . ?x ns:type.object.type ns:geo.river }",
    "SELECT DISTINCT ?x WHERE { ns:m.0r1 ns:geo.river.countries ?x }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ?x0 . ?x0 ns:geo.country.capital ns:m.0c1 }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.country.capital ?x0 . ?x0 ns:geo.city.country ns:m.0k1 }",
    "SELECT DISTINCT ?x WHERE { ns:m.0k2 ns:geo.country.capital ?x . ?x ns:type.object.type ns:geo.city }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.population ?x0 . FILTER(?x0 > 1000) }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.population ?x0 . FILTER(?x0 < 600) }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.population ?x0 . FILTER(?x0 >= 800) }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.river.length ?x0 . FILTER(?x0 <= 250.5) }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.population ?x0 . ?x ns:type.object.type ns:geo.city . FILTER(?x0 > 700) }",
    "SELECT COUNT(DISTINCT ?x) WHERE { ?x ns:geo.city.country ns:m.0k1 }",
    "SELECT COUNT(DISTINCT ?x) WHERE { ?x ns:type.object.type ns:geo.river }",
    "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 . ?x ns:geo.city.population ?x0 . FILTER(?x0 > 500) }",
    "SELECT COUNT(DISTINCT ?x) WHERE { ns:m.0k2 ns:geo.country.cities ?x }",
]


def build_pairs() -> None:
    out = FIXTURES / "pairs"
    classes = [
        SchemaClass("geo.city", "city"),
        SchemaClass("geo.country", "country"),
        SchemaClass("geo.river", "river"),
    ]
    relations = [
        RelationDef("geo.city.country", "geo.city", "geo.country"),
        RelationDef("geo.city.population", "geo.city", "integer"),
        RelationDef("geo.country.capital", "geo.country", "geo.city"),
        RelationDef("geo.country.cities", "geo.country", "geo.city"),
        RelationDef("geo.river.countries", "geo.river", "geo.country"),
        RelationDef("geo.river.length", "geo.river", "float"),
    ]
    entities = [
        Entity("m.0c1", "port arden", frozenset({"geo.city"})),
        Entity("m.0c2", "eastmere", frozenset({"geo.city"})),
        Entity("m.0c3", "veldt junction", frozenset({"geo.city"})),
        Entity("m.0k1", "ardenia", frozenset({"geo.country"})),
        Entity("m.0k2", "borelia", frozenset({"geo.country"})),
        Entity("m.0r1", "the grey run", frozenset({"geo.river"})),
        Entity("m.0r2", "silverwater", frozenset({"geo.river"})),
    ]
    facts = [
        Fact("m.0c1", "geo.city.country", "m.0k1"),
        Fact("m.0c2", "geo.city.country", "m.0k1"),
        Fact("m.0c3", "geo.city.country", "m.0k2"),
        Fact("m.0k1", "geo.country.cities", "m.0c1"),
        Fact("m.0k1", "geo.country.cities", "m.0c2"),
        Fact("m.0k2", "geo.country.cities", "m.0c3"),
        Fact("m.0k1", "geo.country.capital", "m.0c1"),
        Fact("m.0k2", "geo.country.capital", "m.0c3"),
        Fact("m.0c1", "geo.city.population", Literal(1200, "integer")),
        Fact("m.0c2", "geo.city.population", Literal(800, "integer")),
        Fact("m.0c3", "geo.city.population", Literal(550, "integer")),
        Fact("m.0r1", "geo.river.countries", "m.0k1"),
        Fact("m.0r2", "geo.river.countries", "m.0k2"),
        Fact("m.0r1", "geo.river.length", Literal(410.2, "float")),
        Fact("m.0r2", "geo.river.length", Literal(250.5, "float")),
    ]
    kb = build_kb(classes, relations, entities, facts)
    out.mkdir(parents=True, exist_ok=True)
    save_kb(kb, str(out / "schema.json"), str(out / "data.jsonl"))

    pairs = [
        {"sparql": text, "sexpr": render_sexpr(parse_sparql(text))} for text in PAIR_SPARQLS
    ]
    write_json(str(out / "paired_dialects.json"), pairs)


# ---------------------------------------------------------------------------
# golden generation prompt (newspaper vocabulary)
# ---------------------------------------------------------------------------

def build_golden_prompt() -> None:
    classes = [
        SchemaClass("book.newspaper", "newspaper"),
        SchemaClass("book.newspaper_issue", "newspaper issue"),
        SchemaClass("education.educational_institution", "educational institution"),
        SchemaClass("education.school_newspaper", "school newspaper"),
        SchemaClass("location.area", "area"),
    ]
    relations = [
        RelationDef("book.newspaper.circulation_areas", "book.newspaper", "location.area"),
        RelationDef("book.newspaper_issue.newspaper", "book.newspaper_issue", "book.newspaper"),
        RelationDef("education.school_newspaper.school", "education.school_newspaper",
                    "education.educational_institution"),
        RelationDef("periodicals.newspapers", "location.area", "book.newspaper"),
    ]
    entities = [
        Entity("m.0hpsvmv", "the onion", frozenset({"book.newspaper"})),
        Entity("m.0area", "springfield", frozenset({"location.area"})),
        Entity("m.0paper2", "the daily bugle", frozenset({"book.newspaper"})),
    ]
    facts = [
        Fact("m.0hpsvmv", "book.newspaper.circulation_areas", "m.0area"),
        Fact("m.0area", "periodicals.newspapers", "m.0paper2"),
    ]
    kb = build_kb(classes, relations, entities, facts)
    ctx = RetrievalContext(
        classes=("education.school_newspaper", "book.newspaper"),
        relations=("education.school_newspaper.school", "book.newspaper_issue.newspaper"),
        paths=(
            "SELECT DISTINCT ?x WHERE { ns:m.0hpsvmv ns:book.newspaper.circulation_areas ?x0 . "
            "?x0 ns:periodicals.newspapers ?x . ?x ns:type.object.type ns:book.newspaper }",
        ),
        linked_entities=(("the onion", "m.0hpsvmv"),),
    )
    prompt = build_pun_prompt(
        kb, "which school newspaper deals with the same subject as the onion?", ctx
    )
    (FIXTURES / "golden_pun_prompt.txt").write_bytes(prompt.encode("utf-8"))


# ---------------------------------------------------------------------------
# golden runs: outcomes and traces of `run` on the fig1 and a13 suites
# ---------------------------------------------------------------------------

FIG1, A13 = FIXTURES / "fig1", FIXTURES / "a13"
FIG1_RUN = ("--mock", FIG1 / "mock.json", "--n-iter", "3")
GOLDEN_RUNS = {
    "fig1_kb1": ("--kb", FIG1 / "kb1", "--dataset", FIG1 / "dataset_kb1.jsonl", *FIG1_RUN),
    "fig1_kb2": ("--kb", FIG1 / "kb2", "--dataset", FIG1 / "dataset_kb2.jsonl", *FIG1_RUN),
    "fig1_kb3": ("--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl", *FIG1_RUN),
    "a13": ("--kb", A13 / "kb", "--dataset", A13 / "dataset.jsonl", "--mock", A13 / "mock.json"),
}


def build_golden_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in GOLDEN_RUNS.items():
            if cli_main(["run", *map(str, flags), "--out", tmp]) != 0:
                raise SystemExit(f"golden run {name} failed")
            out = FIXTURES / "golden_runs" / name
            out.mkdir(parents=True, exist_ok=True)
            for filename in ("outcomes.jsonl", "traces.jsonl"):
                shutil.copyfile(Path(tmp) / filename, out / filename)


if __name__ == "__main__":
    build_fig1()
    build_fig1_repeat()
    build_a13()
    build_pairs()
    build_golden_prompt()
    build_golden_runs()
    print(f"fixtures written under {FIXTURES}")

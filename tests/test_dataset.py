import json

import pytest

from conftest import FIXTURES
from kbqa_repair.dataset import (
    DatasetSplit,
    QAExample,
    inject_unanswerability,
    load_split,
    make_random_plan,
    record_to_example,
    sample_fewshots,
    save_split,
)
from kbqa_repair.executor import execute
from kbqa_repair.kb import DeletionPlan, Fact, FormatError
from kbqa_repair.query import LogicalForm
from kbqa_repair.verifiers import v2b_schema_presence


def example(kb, text, linked, **kw):
    lf = LogicalForm.from_text("sparql", text)
    answer = execute(kb, lf.canonical)
    defaults = dict(
        question=kw.pop("question", "q?"),
        linked_entities=tuple(linked),
        gold_lf=lf,
        gold_answer=answer,
        complete_kb_answer=answer,
    )
    defaults.update(kw)
    return QAExample(**defaults)


def test_split_roundtrip(tmp_path, fig1_kb3):
    path = tmp_path / "split.jsonl"
    split = load_split(str(FIXTURES / "fig1/dataset_kb2.jsonl"), name="dev")
    save_split(split, str(path))
    again = load_split(str(path), name="dev")
    assert again == split
    save_split(again, str(tmp_path / "second.jsonl"))
    assert (tmp_path / "second.jsonl").read_bytes() == path.read_bytes()


def test_load_rejects_inconsistent_record(tmp_path):
    record = {
        "question": "q?",
        "linked_entities": [],
        "gold_lf": {"dialect": "sparql", "text": "SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"},
        "gold_answer": "NA",
        "complete_kb_answer": [],
        "label": "schema-unans",  # schema-unans requires NK
        "category": "missing-relation",
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(FormatError) as err:
        load_split(str(path))
    assert "line 1" in str(err.value)


def test_gold_answer_literal_of_the_wrong_type_names_its_line(tmp_path):
    record = {
        "question": "q?",
        "gold_lf": {"dialect": "sparql", "text": "SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"},
        "gold_answer": [{"literal": [1], "type": "integer"}],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n")
    with pytest.raises(FormatError, match="line 2: .*integer literal has value"):
        load_split(str(path))


def test_mixed_fixture_counts(tmp_path, fig1_kb3):
    lines = []
    for name in ("dataset_kb3", "dataset_kb2", "dataset_kb1"):
        lines.extend((FIXTURES / f"fig1/{name}.jsonl").read_text().splitlines())
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines * 2) + "\n")
    split = load_split(str(path))
    labels = [e.label for e in split.examples]
    assert labels.count("answerable") == 2
    assert labels.count("data-unans") == 2
    assert labels.count("schema-unans") == 2


def test_injection_deletes_only_relation_of_gold(fig1_kb3):
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = DeletionPlan(relations=("book.author.works_written",))
    kb2, out = inject_unanswerability(fig1_kb3, src, plan)
    relabeled = out.examples[0]
    assert relabeled.label == "schema-unans"
    assert relabeled.category == "missing-relation"
    assert relabeled.gold_lf.is_nk
    assert relabeled.gold_answer is None
    assert relabeled.complete_kb_answer == {"m.0b1", "m.0b2"}
    original = src.examples[0].gold_lf
    assert not v2b_schema_presence(original, kb2).passed


def test_injection_missing_fact_keeps_lf(fig1_kb3):
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = DeletionPlan(facts=(Fact("m.0auth", "book.author.awards_won", "m.0awd"),))
    kb2, out = inject_unanswerability(fig1_kb3, src, plan)
    relabeled = out.examples[0]
    assert relabeled.label == "data-unans"
    assert relabeled.category == "missing-fact"
    assert not relabeled.gold_lf.is_nk
    assert relabeled.gold_answer is None
    assert execute(kb2, relabeled.gold_lf.canonical) == frozenset()
    # the preserved gold query must stay syntactically and schema-wise clean
    from kbqa_repair.verifiers import (
        v1_syntax,
        v2a_type_compatibility,
        v2c_literal_casting,
    )

    assert v1_syntax(relabeled.gold_lf).passed
    assert v2a_type_compatibility(relabeled.gold_lf, kb2).passed
    assert v2b_schema_presence(relabeled.gold_lf, kb2).passed
    assert v2c_literal_casting(relabeled.gold_lf, kb2).passed


def test_injection_missing_entity_category(fig1_kb3):
    # two-hop gold through the publisher; deleting the publisher entity breaks the path
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.publisher ?p . "
                "?p ns:book.publisher.books_published ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = DeletionPlan(entities=("m.0pub",))
    _, out = inject_unanswerability(fig1_kb3, src, plan)
    assert out.examples[0].label == "data-unans"
    assert out.examples[0].category == "missing-entity"


def test_injection_literal_binding_is_not_a_lost_entity(pairs_kb):
    # the gold binds a literal; only a traversed fact is deleted
    src = DatasetSplit(
        "t",
        (
            example(
                pairs_kb,
                "SELECT ?x WHERE { ns:m.0c3 ns:geo.city.country ?k . "
                "ns:m.0c3 ns:geo.city.population ?x }",
                [("veldt junction", "m.0c3")],
            ),
        ),
    )
    plan = DeletionPlan(facts=(Fact("m.0c3", "geo.city.country", "m.0k2"),))
    _, out = inject_unanswerability(pairs_kb, src, plan)
    assert out.examples[0].label == "data-unans"
    assert out.examples[0].category == "missing-fact"


def test_injection_missing_topic_entity(fig1_kb3):
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = DeletionPlan(entities=("m.0auth",))
    _, out = inject_unanswerability(fig1_kb3, src, plan)
    assert out.examples[0].label == "schema-unans"
    assert out.examples[0].category == "missing-topic-entity"


def test_injection_untouched_example_keeps_label(fig1_kb3):
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = DeletionPlan(entities=("m.0awd",))
    _, out = inject_unanswerability(fig1_kb3, src, plan)
    relabeled = out.examples[0]
    assert relabeled.label == "answerable"
    assert relabeled.gold_answer == {"m.0b1", "m.0b2"}
    assert relabeled.complete_kb_answer == {"m.0b1", "m.0b2"}


def test_injection_requires_answerable_source(fig1_kb3):
    lf = LogicalForm.from_text("sparql", "SELECT ?x WHERE { ns:m.0awd ns:book.author.works_written ?x }")
    src = DatasetSplit(
        "t",
        (
            QAExample(
                question="q?",
                linked_entities=(),
                gold_lf=lf,
                gold_answer=frozenset({"m.0b1"}),
                complete_kb_answer=frozenset({"m.0b1"}),
            ),
        ),
    )
    with pytest.raises(FormatError, match=r"^source example 'q\?' already executes empty on the input KB$"):
        inject_unanswerability(fig1_kb3, src, DeletionPlan())


def test_injection_deterministic(fig1_kb3, tmp_path):
    src = DatasetSplit(
        "t",
        (
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }",
                [("j r hart", "m.0auth")],
            ),
            example(
                fig1_kb3,
                "SELECT ?x WHERE { ns:m.0auth ns:book.author.awards_won ?x }",
                [("j r hart", "m.0auth")],
            ),
        ),
    )
    plan = make_random_plan(fig1_kb3, seed=5, n_relations=1, n_entities=1, n_facts=2)
    assert plan == make_random_plan(fig1_kb3, seed=5, n_relations=1, n_entities=1, n_facts=2)
    _, a = inject_unanswerability(fig1_kb3, src, plan)
    _, b = inject_unanswerability(fig1_kb3, src, plan)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_split(a, str(pa))
    save_split(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_sample_fewshots_exact_and_reproducible():
    answerable = [
        QAExample(f"a{i}?", (), LogicalForm.from_text("sparql", "SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"),
                  frozenset({"m.01"}), frozenset({"m.01"}))
        for i in range(10)
    ]
    unans = [
        QAExample(f"u{i}?", (), LogicalForm.nk(), None, frozenset({"m.01"}),
                  label="schema-unans", category="missing-relation")
        for i in range(10)
    ]
    split = DatasetSplit("dev", tuple(answerable + unans))
    tiny = DatasetSplit("dev", (answerable[0], unans[0]))
    both = sample_fewshots(tiny, 1, 1, seed=0)
    assert set(both.examples) == set(tiny.examples)
    a = sample_fewshots(split, 3, 3, seed=42)
    b = sample_fewshots(split, 3, 3, seed=42)
    assert a == b
    with pytest.raises(FormatError, match=r"^need 2 answerable examples, split has 1$"):
        sample_fewshots(tiny, 2, 1, seed=0)


def test_record_parse_error_message(tmp_path):
    with pytest.raises(FormatError):
        record_to_example({"question": "q"}, line=3)

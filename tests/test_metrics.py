import json
import random

import pytest

from conftest import FIXTURES
from kbqa_repair.dataset import QAExample
from kbqa_repair.executor import execute
from kbqa_repair.metrics import (
    EvaluationRecord,
    aggregate,
    em_s,
    evaluate,
    f1_answers,
    render_table,
    save_report,
)
from kbqa_repair.query import LogicalForm


def lf(text, dialect="sparql"):
    return LogicalForm.from_text(dialect, text)


# ---------------------------------------------------------------------------
# em_s
# ---------------------------------------------------------------------------

def test_em_s_identical_queries(pairs_kb):
    text = "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }"
    assert em_s(lf(text), lf(text), pairs_kb) == 1


def test_em_s_structure_differs_sets_agree(pairs_kb):
    # same relation/entity sets, different shape, same answer: 1 by design
    a = lf("SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }")
    b = lf(
        "SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ?c . ?c ns:geo.city.country ns:m.0k1 . "
        "?x ns:geo.city.country ns:m.0k1 }"
    )
    # b is contrived: extra unsatisfiable-ish pattern; make sure sets match first
    from kbqa_repair.query import extract_entities, extract_relations

    assert set(extract_relations(a.canonical)) == set(extract_relations(b.canonical))
    assert set(extract_entities(a.canonical)) == set(extract_entities(b.canonical))
    expected = 1 if execute(pairs_kb, a.canonical) == execute(pairs_kb, b.canonical) else 0
    assert em_s(a, b, pairs_kb) == expected


def test_em_s_nk_conventions(pairs_kb):
    assert em_s(LogicalForm.nk(), LogicalForm.nk(), pairs_kb) == 1
    assert em_s(LogicalForm.nk(), lf("SELECT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }"), pairs_kb) == 0


def test_em_s_unparseable_pred_scores_zero(pairs_kb):
    broken = lf("SELECT gibberish")
    assert not broken.parsed
    assert em_s(broken, lf("SELECT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }"), pairs_kb) == 0


def test_em_s_cross_dialect(pairs_kb):
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    assert len(pairs) >= 20
    for pair in pairs:
        assert em_s(lf(pair["sparql"]), lf(pair["sexpr"], "sexpr"), pairs_kb) == 1


def test_em_s_reflexive_symmetric(pairs_kb):
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    forms = [lf(p["sparql"]) for p in pairs]
    for a in forms:
        assert em_s(a, a, pairs_kb) == 1
    for a in forms[:8]:
        for b in forms[:8]:
            assert em_s(a, b, pairs_kb) == em_s(b, a, pairs_kb)


def test_em_s_agrees_with_strict_structural_equality(pairs_kb):
    # wherever strict structural equality holds, em_s must score 1
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    forms = [lf(p["sparql"]) for p in pairs]
    for a in forms:
        for b in forms:
            if a.canonical == b.canonical:
                assert em_s(a, b, pairs_kb) == 1


def test_em_s_one_implies_equal_answers(pairs_kb):
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    forms = [lf(p["sparql"]) for p in pairs]
    for a in forms:
        for b in forms:
            if em_s(a, b, pairs_kb) == 1:
                assert execute(pairs_kb, a.canonical) == execute(pairs_kb, b.canonical)


# ---------------------------------------------------------------------------
# f1
# ---------------------------------------------------------------------------

def test_f1_half_overlap():
    assert f1_answers(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(0.5)


def test_f1_na_conventions():
    assert f1_answers(None, None) == 1.0
    assert f1_answers(None, frozenset({"a"})) == 0.0
    assert f1_answers(frozenset({"a"}), None) == 0.0
    assert f1_answers(None, None, frozenset({"a"}), lenient=True) == 1.0


def test_f1_lenient_credits_complete_kb_answer():
    complete = frozenset({"a", "b"})
    assert f1_answers(complete, None, complete, lenient=False) == 0.0
    assert f1_answers(complete, None, complete, lenient=True) == 1.0
    # partial overlap with the complete answer earns only regular credit
    assert f1_answers(frozenset({"a"}), None, complete, lenient=True) == 0.0


def test_f1_lenient_requires_exact_match():
    complete = frozenset({"a", "b"})
    gold = frozenset({"c"})
    assert f1_answers(frozenset({"a"}), gold, complete, lenient=True) == 0.0
    assert f1_answers(frozenset({"c"}), gold, complete, lenient=True) == 1.0


def test_f1_lenient_dominates_randomized():
    rng = random.Random(1234)
    universe = [f"m.{i}" for i in range(8)]

    def maybe_set():
        if rng.random() < 0.2:
            return None
        return frozenset(rng.sample(universe, rng.randint(0, 5)))

    for _ in range(1500):
        pred, gold = maybe_set(), maybe_set()
        complete = frozenset(rng.sample(universe, rng.randint(1, 5)))
        regular = f1_answers(pred, gold, complete, lenient=False)
        lenient = f1_answers(pred, gold, complete, lenient=True)
        assert lenient >= regular


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _records():
    return [
        EvaluationRecord(0, "answerable", "n/a", 1, 1.0, 1.0),
        EvaluationRecord(1, "answerable", "n/a", 0, 0.5, 0.5),
        EvaluationRecord(2, "schema-unans", "missing-relation", 1, 1.0, 1.0),
        EvaluationRecord(3, "data-unans", "missing-fact", 0, 0.0, 1.0),
    ]


def test_aggregate_hand_computed_means():
    report = aggregate(_records())
    overall = report.slices["overall"]
    assert overall.count == 4
    assert overall.em_s == pytest.approx(0.5)
    assert overall.f1_r == pytest.approx((1.0 + 0.5 + 1.0 + 0.0) / 4)
    assert overall.f1_l == pytest.approx((1.0 + 0.5 + 1.0 + 1.0) / 4)
    assert report.slices["answerable"].count == 2
    assert report.slices["unanswerable"].count == 2
    assert report.slices["schema-unans"].f1_r == pytest.approx(1.0)
    assert report.slices["missing-fact"].f1_l == pytest.approx(1.0)


def test_aggregate_empty_slice_is_na():
    report = aggregate([r for r in _records() if r.label == "answerable"])
    assert report.slices["unanswerable"].count == 0
    assert report.slices["unanswerable"].f1_r is None
    table = render_table(report)
    assert "n/a" in table


def test_aggregate_deterministic():
    assert aggregate(_records()) == aggregate(_records())


REPORT_BYTES = """\
{
  "slices": {
    "answerable": {
      "count": 1,
      "em_s": 1.0,
      "f1_l": 1.0,
      "f1_r": 1.0
    },
    "data-unans": {
      "count": 1,
      "em_s": 0.0,
      "f1_l": 1.0,
      "f1_r": 0.25
    },
    "missing-class": {
      "count": 0,
      "em_s": null,
      "f1_l": null,
      "f1_r": null
    },
    "missing-entity": {
      "count": 0,
      "em_s": null,
      "f1_l": null,
      "f1_r": null
    },
    "missing-fact": {
      "count": 1,
      "em_s": 0.0,
      "f1_l": 1.0,
      "f1_r": 0.25
    },
    "missing-relation": {
      "count": 0,
      "em_s": null,
      "f1_l": null,
      "f1_r": null
    },
    "missing-topic-entity": {
      "count": 0,
      "em_s": null,
      "f1_l": null,
      "f1_r": null
    },
    "overall": {
      "count": 2,
      "em_s": 0.5,
      "f1_l": 1.0,
      "f1_r": 0.625
    },
    "schema-unans": {
      "count": 0,
      "em_s": null,
      "f1_l": null,
      "f1_r": null
    },
    "unanswerable": {
      "count": 1,
      "em_s": 0.0,
      "f1_l": 1.0,
      "f1_r": 0.25
    }
  },
  "total": 2
}
"""


def test_save_report_writes_sorted_indented_json_with_null_for_an_empty_slice(tmp_path):
    report = aggregate([
        EvaluationRecord(0, "answerable", "n/a", 1, 1.0, 1.0),
        EvaluationRecord(1, "data-unans", "missing-fact", 0, 0.25, 1.0),
    ])
    save_report(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == REPORT_BYTES.encode()


def test_slice_counts_sum():
    report = aggregate(_records())
    s = report.slices
    assert s["answerable"].count + s["unanswerable"].count == s["overall"].count
    assert s["schema-unans"].count + s["data-unans"].count == s["unanswerable"].count


def test_evaluate_alignment(pairs_kb):
    gold = QAExample(
        "which cities are in ardenia?",
        (("ardenia", "m.0k1"),),
        lf("SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }"),
        frozenset({"m.0c1", "m.0c2"}),
        frozenset({"m.0c1", "m.0c2"}),
    )
    pred = (lf("SELECT DISTINCT ?x WHERE { ?x ns:geo.city.country ns:m.0k1 }"),
            frozenset({"m.0c1", "m.0c2"}))
    records = evaluate([pred], [gold], pairs_kb)
    assert records[0].em_s == 1 and records[0].f1_r == 1.0
    with pytest.raises(ValueError):
        evaluate([pred, pred], [gold], pairs_kb)

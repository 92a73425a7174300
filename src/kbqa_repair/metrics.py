"""Scoring: approximate logical-form equivalence, answer F1, aggregation.

The logical-form check (em_s) treats two queries as matching when their
relation sets, entity sets and executed answers all agree; it is necessary
but not sufficient for true equivalence, and it is dialect-agnostic.  Answer
F1 comes in a regular and a lenient variant: the lenient one also credits a
prediction that exactly reproduces the complete (pre-deletion) KB's answer,
when that answer is non-empty.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

from .dataset import CATEGORIES, LABELS, QAExample
from .executor import execute
from .kb import KnowledgeBase
from .query import LogicalForm, extract_entities, extract_relations


@dataclass(frozen=True)
class EvaluationRecord:
    index: int
    label: str
    category: str
    em_s: int
    f1_r: float
    f1_l: float


@dataclass(frozen=True)
class SliceStats:
    count: int
    em_s: float | None
    f1_r: float | None
    f1_l: float | None


@dataclass(frozen=True)
class Report:
    slices: dict  # slice name -> SliceStats
    total: int


# Both sides of answerability, each unanswerable label and each category but
# "n/a"; LABELS lists "answerable" first and CATEGORIES lists "n/a" last.
SLICE_ORDER = ("overall", "answerable", "unanswerable", *LABELS[1:], *CATEGORIES[:-1])


def em_s(pred: LogicalForm, gold: LogicalForm, kb: KnowledgeBase) -> int:
    """1 iff relation sets, entity sets and executed answers all match.

    Both-NK pairs match; an unparseable prediction scores 0 (recorded, never
    raised).  Empty answers on both sides count as equal.
    """
    if pred.is_nk and gold.is_nk:
        return 1
    if pred.is_nk or gold.is_nk:
        return 0
    if not pred.parsed or not gold.parsed:
        return 0
    p, g = pred.canonical, gold.canonical
    if set(extract_relations(p)) != set(extract_relations(g)):
        return 0
    if set(extract_entities(p)) != set(extract_entities(g)):
        return 0
    return 1 if execute(kb, p) == execute(kb, g) else 0


def f1_answers(
    pred: frozenset | None,
    gold: frozenset | None,
    complete_kb_answer: frozenset | None = None,
    lenient: bool = False,
) -> float:
    """Set F1 between answers; None means NA.

    Both NA scores 1; exactly one NA scores 0.  With ``lenient`` the score is
    1 whenever the prediction equals a non-empty complete-KB answer exactly,
    regardless of the gold answer.  An empty one means "unknown": injection
    refuses a gold query that executes empty, so it is never a real answer.
    """
    if lenient and complete_kb_answer and pred == complete_kb_answer:
        return 1.0
    if pred is None and gold is None:
        return 1.0
    if pred is None or gold is None:
        return 0.0
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    overlap = len(pred & gold)
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate(
    predictions: list[tuple[LogicalForm, frozenset | None]],
    examples: list[QAExample],
    kb: KnowledgeBase,
    failed: frozenset[int] = frozenset(),
) -> list[EvaluationRecord]:
    """Score aligned (prediction, example) pairs against the evaluation KB.

    The predictions at the indices in ``failed`` are those of questions that
    failed; each is a miss, scoring 0 on every metric, whatever it holds.
    """
    if len(predictions) != len(examples):
        raise ValueError(
            f"{len(predictions)} predictions but {len(examples)} gold examples"
        )
    records = []
    for index, ((lf, answer), example) in enumerate(zip(predictions, examples)):
        if index in failed:
            scores = (0, 0.0, 0.0)
        else:
            scores = (em_s(lf, example.gold_lf, kb),
                      f1_answers(answer, example.gold_answer, example.complete_kb_answer, False),
                      f1_answers(answer, example.gold_answer, example.complete_kb_answer, True))
        records.append(EvaluationRecord(index, example.label, example.category, *scores))
    return records


def aggregate(records: list[EvaluationRecord]) -> Report:
    """Slice means by answerability label and fine category."""
    members = {name: [] for name in SLICE_ORDER}
    for r in records:
        names = ["overall", "answerable"] if r.label == "answerable" else ["overall", "unanswerable", r.label]
        if r.category != "n/a":
            names.append(r.category)
        for name in names:
            members[name].append(r)
    slices = {}
    for name, rows in members.items():
        if not rows:
            slices[name] = SliceStats(0, None, None, None)
            continue
        n = len(rows)
        slices[name] = SliceStats(
            count=n,
            em_s=sum(r.em_s for r in rows) / n,
            f1_r=sum(r.f1_r for r in rows) / n,
            f1_l=sum(r.f1_l for r in rows) / n,
        )
    return Report(slices=slices, total=len(records))


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100 * value:5.1f}"


def render_table(report: Report) -> str:
    """Aligned text table, percentages, n/a for empty slices."""
    header = f"{'slice':<22}{'n':>5}  {'F1(R)':>6}  {'F1(L)':>6}  {'EM-s':>6}"
    lines = [header, "-" * len(header)]
    for name, stats in report.slices.items():
        lines.append(
            f"{name:<22}{stats.count:>5}  {_pct(stats.f1_r):>6}  {_pct(stats.f1_l):>6}  {_pct(stats.em_s):>6}"
        )
    return "\n".join(lines)


def save_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(asdict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_records_csv(records: list[EvaluationRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "label", "category", "em_s", "f1_r", "f1_l"])
        for r in records:
            writer.writerow([r.index, r.label, r.category, r.em_s, f"{r.f1_r:.6f}", f"{r.f1_l:.6f}"])

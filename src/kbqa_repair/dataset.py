"""QA dataset ingestion, few-shot sampling, and unanswerability injection.

The injector pairs KB deletion with question relabeling: questions whose gold
query references deleted schema become schema-level unanswerable (gold query
replaced with NK); questions whose gold query survives but executes empty
become data-level unanswerable (gold answer NA).  Every example also records
the answer the complete, pre-deletion KB would have returned, which the
lenient F1 variant credits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .executor import execute, execute_bindings
from .kb import DeletionPlan, FormatError, KnowledgeBase, delete_elements, read_jsonl, validate_plan
from .kb import check, literal_from_json, literal_to_json, write_jsonl
from .query import (
    Literal,
    LogicalForm,
    extract_classes,
    extract_entities,
    extract_relations,
)

LABELS = ("answerable", "schema-unans", "data-unans")
CATEGORIES = (
    "missing-class",
    "missing-relation",
    "missing-topic-entity",
    "missing-entity",
    "missing-fact",
    "n/a",
)


@dataclass(frozen=True)
class QAExample:
    question: str
    linked_entities: tuple[tuple[str, str], ...]  # (mention, entity id)
    gold_lf: LogicalForm  # may be the NK sentinel
    gold_answer: frozenset | None  # None means NA
    complete_kb_answer: frozenset | None
    label: str = "answerable"
    category: str = "n/a"

    def question_entities(self) -> frozenset[str]:
        return frozenset(eid for _, eid in self.linked_entities)


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    examples: tuple[QAExample, ...]


# ---------------------------------------------------------------------------
# Wire shape (JSON Lines)
# ---------------------------------------------------------------------------

def answer_to_json(answer: frozenset | None):
    if answer is None:
        return "NA"
    entities = sorted(v for v in answer if isinstance(v, str))
    literals = sorted(
        (v for v in answer if isinstance(v, Literal)), key=lambda l: (l.datatype, str(l.value))
    )
    return entities + [literal_to_json(l) for l in literals]


def answer_from_json(doc, line: int | None = None) -> frozenset | None:
    """The answer in ``doc``, which SHAPES has checked to be "NA" or a list."""
    if doc == "NA":
        return None
    return frozenset(v if isinstance(v, str) else literal_from_json(v, line) for v in doc)


def example_to_record(example: QAExample) -> dict:
    gold_lf = "NK" if example.gold_lf.is_nk else {
        "dialect": example.gold_lf.dialect,
        "text": example.gold_lf.surface,
    }
    return {
        "question": example.question,
        "linked_entities": [{"mention": m, "id": eid} for m, eid in example.linked_entities],
        "gold_lf": gold_lf,
        "gold_answer": answer_to_json(example.gold_answer),
        "complete_kb_answer": answer_to_json(example.complete_kb_answer),
        "label": example.label,
        "category": example.category,
    }


def record_to_example(record, line: int | None = None) -> QAExample:
    check(record, "dataset example", line)
    gold = record["gold_lf"]  # "NK", which from_text reads as the sentinel, or a gold query
    gold = {"text": "NK"} if gold == "NK" else check(gold, "gold query", line)
    gold_lf = LogicalForm.from_text(gold.get("dialect", "sparql"), gold["text"])
    linked = [check(item, "linked entity", line) for item in record.get("linked_entities", ())]
    gold_answer = answer_from_json(record["gold_answer"], line)
    complete_kb_answer = answer_from_json(record.get("complete_kb_answer", []), line)
    label, category = record.get("label", "answerable"), record.get("category", "n/a")
    if label not in LABELS:
        raise FormatError(f"unknown label {label!r}", line)
    if category not in CATEGORIES:
        raise FormatError(f"unknown category {category!r}", line)
    if label == "schema-unans" and not gold_lf.is_nk:
        raise FormatError("schema-unans example must have gold_lf = NK", line)
    if label == "data-unans" and gold_lf.is_nk:
        raise FormatError("data-unans example must keep a concrete gold_lf", line)
    if label == "data-unans" and gold_answer is not None:
        raise FormatError("data-unans example must have gold_answer = NA", line)
    return QAExample(record["question"], tuple((item["mention"], item["id"]) for item in linked),
                     gold_lf, gold_answer, complete_kb_answer, label, category)


def load_split(path: str, name: str = "test") -> DatasetSplit:
    examples = tuple(record_to_example(record, lineno) for lineno, record in read_jsonl(path))
    return DatasetSplit(name, examples)


def save_split(split: DatasetSplit, path: str) -> None:
    write_jsonl(path, map(example_to_record, split.examples))


# ---------------------------------------------------------------------------
# Unanswerability injection
# ---------------------------------------------------------------------------

def inject_unanswerability(
    kb: KnowledgeBase, split: DatasetSplit, plan: DeletionPlan
) -> tuple[KnowledgeBase, DatasetSplit]:
    """Delete per plan and relabel each example against the shrunken KB.

    Requires an answerable source: every gold query must execute non-empty on
    the input KB.  Deterministic given (kb, split, plan).
    """
    validate_plan(kb, plan)
    complete = []  # each gold query's answer on the input KB
    for example in split.examples:
        if example.gold_lf.is_nk or not example.gold_lf.parsed:
            raise FormatError(f"source example {example.question!r} has no executable gold query")
        answer = execute(kb, example.gold_lf.canonical)
        if not answer:
            raise FormatError(
                f"source example {example.question!r} already executes empty on the input KB"
            )
        complete.append(answer)

    kb2 = delete_elements(kb, plan)
    relabeled = [_relabel(kb, kb2, example, answer) for example, answer in zip(split.examples, complete)]
    return kb2, DatasetSplit(split.name, tuple(relabeled))


def _relabel(
    kb: KnowledgeBase, kb2: KnowledgeBase, example: QAExample, complete: frozenset
) -> QAExample:
    q = example.gold_lf.canonical

    mentioned = {eid for _, eid in example.linked_entities}.union(extract_entities(q))
    schema_checks = (
        ("missing-class", extract_classes(q), kb2.classes),
        ("missing-relation", extract_relations(q), kb2.relations),
        ("missing-topic-entity", mentioned, kb2.entities),
    )
    for category, ids, present in schema_checks:
        if not all(i in present for i in ids):
            return replace(
                example,
                gold_lf=LogicalForm.nk(),
                gold_answer=None,
                complete_kb_answer=complete,
                label="schema-unans",
                category=category,
            )

    answer = execute(kb2, q)
    if answer:
        return replace(example, gold_answer=answer, complete_kb_answer=complete)
    category = _data_level_category(kb, kb2, example)
    return replace(
        example,
        gold_answer=None,
        complete_kb_answer=complete,
        label="data-unans",
        category=category,
    )


def _data_level_category(kb: KnowledgeBase, kb2: KnowledgeBase, example: QAExample) -> str:
    """missing-entity when a deleted entity appears in some original binding;
    missing-fact when only traversed facts were deleted."""
    q = example.gold_lf.canonical
    for assignment in execute_bindings(kb, q):
        if any(v in kb.entities and v not in kb2.entities for v in assignment.values()):
            return "missing-entity"
    return "missing-fact"


def make_random_plan(
    kb: KnowledgeBase,
    seed: int,
    n_classes: int = 0,
    n_relations: int = 1,
    n_entities: int = 1,
    n_facts: int = 1,
) -> DeletionPlan:
    """Seed-reproducible random deletion plan over existing elements."""
    rng = random.Random(seed)

    def pick(pool: list, n: int) -> list:
        n = min(n, len(pool))
        return rng.sample(pool, n) if n else []

    return DeletionPlan(
        classes=tuple(pick(sorted(kb.classes), n_classes)),
        relations=tuple(pick(sorted(kb.relations), n_relations)),
        entities=tuple(pick(sorted(kb.entities), n_entities)),
        facts=tuple(pick(sorted(kb.facts, key=lambda f: f.key()), n_facts)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Few-shot sampling
# ---------------------------------------------------------------------------

def sample_fewshots(split: DatasetSplit, n_ans: int, n_unans: int, seed: int) -> DatasetSplit:
    """Stratified uniform sample, reproducible from the seed."""
    answerable = [e for e in split.examples if e.label == "answerable"]
    unanswerable = [e for e in split.examples if e.label != "answerable"]
    if len(answerable) < n_ans:
        raise FormatError(f"need {n_ans} answerable examples, split has {len(answerable)}")
    if len(unanswerable) < n_unans:
        raise FormatError(f"need {n_unans} unanswerable examples, split has {len(unanswerable)}")
    rng = random.Random(seed)
    chosen = rng.sample(answerable, n_ans) + rng.sample(unanswerable, n_unans)
    return DatasetSplit("fewshot", tuple(chosen))

"""Seeded inputs for the benchmark.

One shape and one seed give one directory of files, byte for byte:

- ``kb/schema.json`` and ``kb/data.jsonl``: the source KB;
- ``source.jsonl``: the all-answerable source split;
- ``plan.json``: the deletion plan that injects unanswerability;
- ``script.json``: what the scripted gateways reply (see ``policy.py``);
- ``expected.jsonl``: the outcome each question's script must lead to.

The generator checks its own gold queries with the library before writing:
each must pass V1, V2a, V2b, V2c and V4a on the source KB and execute
non-empty.  Scenarios are assigned from the labels that
``inject_unanswerability`` actually gives, so a deletion that spills onto a
second question cannot leave that question with a script that no longer
fits.

Usage: python3 perfbench/gen.py --shape repair --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from kbqa_repair.dataset import DatasetSplit, QAExample, inject_unanswerability, save_split
from kbqa_repair.executor import execute_bindings
from kbqa_repair.kb import (
    DeletionPlan,
    Entity,
    Fact,
    KnowledgeBase,
    RelationDef,
    SchemaClass,
    build_kb,
    save_kb,
    save_plan,
)
from kbqa_repair.query import Literal, LogicalForm
from kbqa_repair.verifiers import (
    VerifierSuite,
    v1_syntax,
    v2a_type_compatibility,
    v2b_schema_presence,
    v2c_literal_casting,
    v4_answer_consistency,
)

LITERAL_TYPES = ("integer", "float", "string", "date")
ABSENT_INTEGER = 987654  # generated integers stay below 1000, so this never matches

# Scenarios for answerable questions other than "first-time", handed out
# round-robin so every shape reaches every verifier and consensus branch.
REPAIR_SCENARIOS = (
    "repair-V1",
    "repair-V2a",
    "repair-V2b",
    "repair-V2c",
    "repair-V4a",
    "repair-V3",
    "repair-V4b",
    "never-nonempty",
    "never-empty",
    "never-noconsensus",
)

# What each scenario's script must end in: (confident, consensus branch, final lf).
OUTCOMES = {
    "first-time": (True, None, "gold"),
    **{name: (True, None, "gold") for name in REPAIR_SCENARIOS if name.startswith("repair-")},
    "never-nonempty": (False, "non-empty-consensus", "wrong"),
    "never-empty": (False, "empty-answer", "empty"),
    "never-noconsensus": (False, "no-consensus", "NK"),
    "nk": (False, "no-consensus", "NK"),
    "hallucinate": (False, "no-consensus", "NK"),
    "keep-empty": (False, "empty-answer", "gold"),
}


@dataclass(frozen=True)
class Shape:
    classes: int
    relations: int
    entities: int
    facts: int
    zipf: float  # exponent of relation popularity; 0 is uniform
    hubs: int
    hub_degree: int  # extra out-edges per hub entity
    hub_classes: int  # classes per hub, so hubs reach many relations
    questions: int
    hub_question_frac: float
    root_max_degree: int  # out-degree bound for non-hub roots, so their cost is alike
    two_hop_frac: float
    type_assert_frac: float  # of two-hop gold queries
    entity_last_frac: float  # of multi-pattern gold queries
    entity_last_cost: tuple[int, int]  # band of first-pattern facts x root out-degree
    delete_relations: int
    delete_topic_entities: int
    delete_answer_entities: int
    delete_answer_facts: int
    repair_frac: float  # share of answerable questions not scripted "first-time"
    flaky_frac: float  # share of questions whose generation call fails once over HTTP


SHAPES = {
    # A small schema keeps retrieval, which scores every class and relation,
    # below the loop layers (verifiers, query, prompts, pipeline): at 20
    # classes and 60 relations retrieval took 75% of question time.
    "repair": Shape(
        classes=6, relations=16, entities=10_000, facts=40_000, zipf=0.0,
        hubs=0, hub_degree=0, hub_classes=0, questions=200, hub_question_frac=0.0, root_max_degree=16,
        two_hop_frac=0.5, type_assert_frac=0.3, entity_last_frac=0.0, entity_last_cost=(0, 0),
        delete_relations=0, delete_topic_entities=12,
        delete_answer_entities=8, delete_answer_facts=8, repair_frac=0.9, flaky_frac=0.02,
    ),
    # The ROADMAP probe's size with Zipf relation use and hub entities: KB
    # load, deletion, retrieval and join order dominate.
    "hub": Shape(
        classes=200, relations=800, entities=100_000, facts=400_000, zipf=1.0,
        hubs=8, hub_degree=1000, hub_classes=30, questions=120, hub_question_frac=0.25,
        root_max_degree=16,
        two_hop_frac=0.8, type_assert_frac=0.3, entity_last_frac=0.5,
        entity_last_cost=(10_000, 40_000),
        delete_relations=3, delete_topic_entities=3,
        delete_answer_entities=2, delete_answer_facts=3, repair_frac=0.1, flaky_frac=0.0,
    ),
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(2)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _literal(rng: random.Random, datatype: str, vocabulary: list[str]) -> Literal:
    if datatype == "integer":
        return Literal(rng.randrange(1000), "integer")
    if datatype == "float":
        return Literal(round(rng.uniform(0, 1000), 2), "float")
    if datatype == "string":
        return Literal(rng.choice(vocabulary), "string")
    return Literal(f"{rng.randint(1900, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}", "date")


# ---------------------------------------------------------------------------
# The KB
# ---------------------------------------------------------------------------

def make_kb(shape: Shape, rng: random.Random) -> tuple[KnowledgeBase, dict]:
    """Schema, entities and facts; returns the KB and the relation words."""
    taken: set[str] = set()
    class_words = _words(rng, shape.classes, taken)
    classes = [SchemaClass(w, w) for w in class_words]
    class_ids = [c.id for c in classes]
    rel_vocab = _words(rng, max(8, shape.relations // 2), taken)

    relations: list[RelationDef] = []
    words_of: dict[str, tuple[str, str]] = {}
    rel_ids: set[str] = set()
    for i in range(shape.relations):
        domain = class_ids[i % shape.classes]
        if i < shape.classes:
            range_ = "integer"  # every class owns one integer relation (V2c, V4b scripts)
        elif rng.random() < 0.15:
            range_ = rng.choice(LITERAL_TYPES)
        else:
            range_ = rng.choice(class_ids)
        while True:
            w1, w2 = rng.sample(rel_vocab, 2)
            rid = f"{domain}.{w1}_{w2}"
            if rid not in rel_ids:
                break
        rel_ids.add(rid)
        words_of[rid] = (w1, w2)
        relations.append(RelationDef(rid, domain, range_))

    label_vocab = _words(rng, 400, taken)
    entities = []
    members: dict[str, list[str]] = {cid: [] for cid in class_ids}
    for i in range(shape.entities):
        eid = f"m.0{i:05x}"
        own = {class_ids[i % shape.classes]}
        if i < shape.hubs:
            own.update(rng.sample(class_ids, shape.hub_classes))
        for cid in sorted(own):
            members[cid].append(eid)
        label = rng.choice(label_vocab)
        entities.append(Entity(eid, label, frozenset(own)))

    order = list(relations)
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** shape.zipf for rank in range(len(order))]
    facts: list[Fact] = []
    seen: set[tuple] = set()

    def add(rd: RelationDef, subject: str) -> None:
        if rd.range_is_literal:
            obj = _literal(rng, rd.range, label_vocab)
        else:
            obj = rng.choice(members[rd.range])
        fact = Fact(subject, rd.id, obj)
        if fact.key() not in seen:
            seen.add(fact.key())
            facts.append(fact)

    for rd in rng.choices(order, weights=weights, k=shape.facts):
        add(rd, rng.choice(members[rd.domain]))
    for hub in entities[: shape.hubs]:
        reachable = [rd for rd in relations if rd.domain in hub.classes]
        for _ in range(shape.hub_degree):
            add(rng.choice(reachable), hub.id)
    return build_kb(classes, relations, entities, facts), words_of


# ---------------------------------------------------------------------------
# Questions and their scripted queries
# ---------------------------------------------------------------------------

def _sparql(patterns: list[str]) -> str:
    return "SELECT DISTINCT ?x WHERE { " + " . ".join(patterns) + " }"


def _phrase(words_of: dict, rid: str) -> str:
    return " ".join(words_of[rid])


def _first_strong_failure(kb: KnowledgeBase, text: str, roots: frozenset) -> tuple[str | None, frozenset]:
    """The first strong verifier that rejects the query, and its answer."""
    lf = LogicalForm.from_text("sparql", text)
    if not v1_syntax(lf).passed:
        return "V1", frozenset()
    for vid, check in (
        ("V2a", v2a_type_compatibility),
        ("V2b", v2b_schema_presence),
        ("V2c", v2c_literal_casting),
    ):
        if not check(lf, kb).passed:
            return vid, frozenset()
    v4a, _, _, answer = v4_answer_consistency(lf, kb, roots, VerifierSuite())
    return (None if v4a.passed else "V4a"), answer


@dataclass
class Question:
    text: str
    mention: str
    root: str
    gold: str
    answer: frozenset
    relations: tuple[str, ...]
    variants: dict  # corruption kind -> query text; filled by _variants
    wrong_back: dict  # wrong query text -> what it back-translates to


def _forms(shape: Shape, rng: random.Random) -> list[tuple[int, bool, bool]]:
    """(hops, type assertion, entity-last) per question slot, in exact
    proportions, so every seed gives the same mix of query shapes.  Hub
    questions take the first slots."""
    two = round(shape.questions * shape.two_hop_frac)
    typed = round(two * shape.type_assert_frac)
    last = set(rng.sample(range(two), round(two * shape.entity_last_frac)))
    forms = [(1, False, False)] * (shape.questions - two)
    forms += [(2, j < typed, j in last) for j in range(two)]
    rng.shuffle(forms)
    # Entity-last forms go to the later, non-hub slots: the cost band below
    # is set for ordinary roots.
    return sorted(forms, key=lambda form: form[2])


def _make_question(
    shape: Shape, rng: random.Random, kb: KnowledgeBase, words_of: dict, root: str, form: tuple,
    entity_edges: dict,
) -> Question | None:
    hops, typed, entity_last = form
    if root not in entity_edges:
        entity_edges[root] = [f for f in kb.by_subject.get(root, ()) if not f.obj_is_literal]
    out = entity_edges[root]
    if not out:
        return None
    f1 = rng.choice(out)
    r1, label = f1.relation, kb.label_of(root)
    if hops == 1:
        patterns = [f"ns:{root} ns:{r1} ?x"]
        text = f"what is the {_phrase(words_of, r1)} of {label}?"
        rels: tuple[str, ...] = (r1,)
    else:
        range1 = kb.relations[r1].range
        seconds = [
            f.relation for f in kb.by_subject.get(f1.obj, ())
            if kb.relations[f.relation].domain == range1
            and not (typed and kb.relations[f.relation].range_is_literal)
        ]
        if not seconds:
            return None
        r2 = rng.choice(seconds)
        rels = (r1, r2)
        patterns = [f"ns:{root} ns:{r1} ?x0", f"?x0 ns:{r2} ?x"]
        lead = "what is the"
        if typed:
            range2 = kb.relations[r2].range
            patterns.append(f"?x ns:type.object.type ns:{range2}")
            lead = f"which {kb.classes[range2].label} is the"
        text = f"{lead} {_phrase(words_of, r2)} of the {_phrase(words_of, r1)} of {label}?"
        if entity_last:
            # A band, not just a cap: each entity-last query costs about the
            # same, so the tail it makes does not swing from seed to seed.
            low, high = shape.entity_last_cost
            cost = len(kb.by_relation.get(r2, ())) * len(kb.by_subject.get(root, ()))
            if not low <= cost <= high:
                return None
            patterns.reverse()
    gold = _sparql(patterns)
    failure, answer = _first_strong_failure(kb, gold, frozenset({root}))
    if failure is not None or not answer:
        return None
    return Question(text, label, root, gold, answer, rels, {}, {})


def _variants(kb: KnowledgeBase, q: Question, rng: random.Random) -> dict:
    """Corrupted queries, each kept only if its intended verifier fires
    first on ``kb``, the KB the pipeline runs against."""
    root, r1 = q.root, q.relations[0]
    body = q.gold[q.gold.index("{ ") + 2 : q.gold.rindex(" }")]
    classes = kb.entity_classes(root)
    integer_rel = next(
        (rid for rid, rd in sorted(kb.relations.items()) if rd.domain in classes and rd.range == "integer"),
        None,
    )
    first_obj = next(f.obj for f in kb.by_subject[root] if f.relation == r1)
    foreign = sorted(rid for rid, rd in kb.relations.items() if rd.domain not in classes)
    wrongs = sorted({f.relation for f in kb.by_subject[root]} - set(q.relations))
    rng.shuffle(wrongs)
    candidates = {
        "syntax": (q.gold[: q.gold.rindex("}")].rstrip(), "V1"),
        "type": (q.gold.replace(f"ns:{r1} ", f"ns:{rng.choice(foreign)} ", 1), "V2a"),
        "halluc": (q.gold.replace(f"ns:{r1} ", f"ns:{r1}_of ", 1), "V2b"),
        "selfans": (_sparql([f"?x ns:{r1} ns:{first_obj}"]), "V4a"),
    }
    if integer_rel is not None:
        candidates["cast"] = (_sparql([body, f'ns:{root} ns:{integer_rel} "7"']), "V2c")
        candidates["empty"] = (_sparql([body, f"ns:{root} ns:{integer_rel} {ABSENT_INTEGER}"]), None)
    variants = {}
    roots = frozenset({root})
    for kind, (text, expected) in candidates.items():
        failure, answer = _first_strong_failure(kb, text, roots)
        if failure == expected and (kind != "empty" or not answer):
            variants[kind] = text
    # Valid queries that answer something else: another relation from the
    # root, the first hop alone of a two-hop gold, or one hop further.
    wrong = [((rid,), [f"ns:{root} ns:{rid} ?x"]) for rid in wrongs]
    if len(q.relations) == 2:
        wrong.insert(0, ((r1,), [f"ns:{root} ns:{r1} ?x"]))
    else:
        range1 = kb.relations[r1].range
        further = sorted(
            {f.relation for f in kb.by_subject.get(first_obj, ()) if kb.relations[f.relation].domain == range1}
        )
        wrong += [((r1, rid), [f"ns:{root} ns:{r1} ?x0", f"?x0 ns:{rid} ?x"]) for rid in further]
    answers = []
    for rels, patterns in wrong:
        text = _sparql(patterns)
        failure, answer = _first_strong_failure(kb, text, roots)
        if failure is None and answer and answer != q.answer and answer not in answers:
            answers.append(answer)
            variants["wrong" if "wrong" not in variants else "wrong2"] = text
            q.wrong_back[text] = f"which value does {' then '.join(rels)} give for {q.mention}?"
            if "wrong2" in variants:
                break
    return variants


NEEDS = {
    "first-time": (),
    "repair-V1": ("syntax",),
    "repair-V2a": ("type",),
    "repair-V2b": ("halluc",),
    "repair-V2c": ("cast",),
    "repair-V4a": ("selfans",),
    "repair-V3": ("wrong",),
    "repair-V4b": ("empty",),
    "never-nonempty": ("wrong",),
    "never-empty": ("empty",),
    "never-noconsensus": ("wrong", "halluc", "wrong2", "syntax", "type"),
}


def _replies(scenario: str, q: Question) -> list[str]:
    v = q.variants
    if scenario == "first-time":
        return [q.gold]
    if scenario.startswith("repair-"):
        return [v[NEEDS[scenario][0]], q.gold]
    if scenario == "never-nonempty":
        return [v["wrong"]]
    if scenario == "never-empty":
        return [v["empty"]]
    if scenario == "never-noconsensus":
        return [v[kind] for kind in NEEDS[scenario]]
    if scenario == "nk":
        return ["NK"]
    if scenario == "hallucinate":
        return [q.gold, "NK"]  # the gold now names deleted schema: V2b
    if scenario == "keep-empty":
        return [q.gold]
    raise ValueError(scenario)


# ---------------------------------------------------------------------------
# Deletion plan
# ---------------------------------------------------------------------------

def _plan(shape: Shape, rng: random.Random, kb: KnowledgeBase, questions: list[Question]) -> DeletionPlan:
    """Deletion targets that each reach exactly one question.

    A deleted relation is used by no other question.  A deleted entity, or
    the subject of deleted facts, appears in no other question's bindings.
    So the plan makes exactly ``delete_relations + delete_topic_entities``
    questions schema-level unanswerable and ``delete_answer_entities +
    delete_answer_facts`` data-level unanswerable, for every seed.
    """
    order = list(range(len(questions)))
    rng.shuffle(order)
    use: dict[str, int] = {}
    seen_in: dict[str, int] = {}
    for q in questions:
        for rid in q.relations:
            use[rid] = use.get(rid, 0) + 1
        bindings = execute_bindings(kb, LogicalForm.from_text("sparql", q.gold).canonical)
        for eid in {v for b in bindings for v in b.values() if isinstance(v, str)} | {q.root}:
            seen_in[eid] = seen_in.get(eid, 0) + 1
    relations, entities, facts = [], [], []
    busy: set[int] = set()

    def take(count: int, pick) -> None:
        for i in order:
            if count == 0:
                return
            if i not in busy and pick(questions[i]):
                busy.add(i)
                count -= 1

    def drop_relation(q: Question) -> bool:
        rid = q.relations[-1]
        if use[rid] > 1 or len(kb.by_relation[rid]) > 2000:
            return False
        relations.append(rid)
        return True

    def drop_root(q: Question) -> bool:
        if seen_in[q.root] > 1:
            return False
        entities.append(q.root)
        return True

    def drop_answer_entity(q: Question) -> bool:
        if len(q.answer) != 1 or len(q.relations) != 1:
            return False
        (eid,) = q.answer
        if not isinstance(eid, str) or seen_in[eid] > 1 or seen_in[q.root] > 1:
            return False
        entities.append(eid)
        return True

    def drop_answer_facts(q: Question) -> bool:
        if len(q.relations) != 1 or seen_in[q.root] > 1:
            return False
        facts.extend(f for f in kb.by_subject[q.root] if f.relation == q.relations[0])
        return True

    take(shape.delete_relations, drop_relation)
    take(shape.delete_topic_entities, drop_root)
    take(shape.delete_answer_entities, drop_answer_entity)
    take(shape.delete_answer_facts, drop_answer_facts)
    return DeletionPlan((), tuple(relations), tuple(entities), tuple(facts))


# ---------------------------------------------------------------------------
# Everything together
# ---------------------------------------------------------------------------

def generate(shape_name: str, seed: int, out: Path) -> dict:
    """Write one workload's input files to ``out``; returns a summary."""
    shape = SHAPES[shape_name]
    rng = random.Random(f"{shape_name}:{seed}")
    kb, words_of = make_kb(shape, rng)

    non_hubs = [
        eid for eid in sorted(kb.entities)[shape.hubs :]
        if 0 < len(kb.by_subject.get(eid, ())) <= shape.root_max_degree
    ]
    hubs = sorted(kb.entities)[: shape.hubs]
    questions: list[Question] = []
    seen_text: set[str] = set()
    roots_used: set[str] = set()
    n_hub = round(shape.questions * shape.hub_question_frac)
    entity_edges: dict[str, list] = {}
    for k, form in enumerate(_forms(shape, rng)):
        for _ in range(1000):
            root = hubs[k % len(hubs)] if k < n_hub else rng.choice(non_hubs)
            if k >= n_hub and root in roots_used:
                continue
            q = _make_question(shape, rng, kb, words_of, root, form, entity_edges)
            if q is not None and q.text not in seen_text:
                break
        else:
            raise RuntimeError(f"no root supports question form {form}")
        seen_text.add(q.text)
        roots_used.add(root)
        questions.append(q)
    order = list(range(len(questions)))
    rng.shuffle(order)  # interleave hub and non-hub questions
    questions = [questions[i] for i in order]

    plan = _plan(shape, rng, kb, questions)
    source = DatasetSplit(
        "test",
        tuple(
            QAExample(q.text, ((q.mention, q.root),), LogicalForm.from_text("sparql", q.gold), q.answer, q.answer)
            for q in questions
        ),
    )
    kb2, injected = inject_unanswerability(kb, source, plan)
    for q, example in zip(questions, injected.examples):
        if example.label == "answerable":
            q.answer = example.gold_answer
            q.variants = _variants(kb2, q, rng)

    scenarios = _assign_scenarios(shape, questions, injected)
    script, expected = _script(rng, shape, questions, scenarios)

    (out / "kb").mkdir(parents=True, exist_ok=True)
    save_kb(kb, str(out / "kb" / "schema.json"), str(out / "kb" / "data.jsonl"))
    save_split(source, str(out / "source.jsonl"))
    save_plan(replace(plan, seed=seed), str(out / "plan.json"))
    with open(out / "script.json", "w", encoding="utf-8") as handle:
        json.dump(script, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(out / "expected.jsonl", "w", encoding="utf-8") as handle:
        for record in expected:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    labels = Counter(example.label for example in injected.examples)
    return {"facts": len(kb.facts), "entities": len(kb.entities), "labels": labels, "scenarios": Counter(scenarios)}


def _assign_scenarios(shape: Shape, questions: list[Question], injected: DatasetSplit) -> list[str]:
    scenarios = []
    unanswerable = 0
    for example in injected.examples:
        if example.label == "schema-unans":
            scenarios.append("nk" if unanswerable % 2 == 0 else "hallucinate")
            unanswerable += 1
        elif example.label == "data-unans":
            scenarios.append("keep-empty")
        else:
            scenarios.append("first-time")
    answerable = [i for i, name in enumerate(scenarios) if name == "first-time"]
    quota = round(len(answerable) * shape.repair_frac)
    free = list(answerable)
    for k in range(quota):
        wanted = REPAIR_SCENARIOS[k % len(REPAIR_SCENARIOS)]
        for i in free:
            if all(kind in questions[i].variants for kind in NEEDS[wanted]):
                scenarios[i] = wanted
                free.remove(i)
                break
    return scenarios


def _script(rng, shape, questions, scenarios) -> tuple[dict, list[dict]]:
    """Replies per question, back-translations per query, and expectations.

    A gold query back-translates to its question verbatim (V3 passes without
    the equivalence call) or, for every third question, to a paraphrase the
    equivalence reply accepts.  Wrong-relation queries back-translate to a
    question about that relation, which the equivalence reply rejects.
    Empty-answer variants get an accepted paraphrase, so V3 passes and V4b
    is the check that fails.
    """
    back: dict[str, str] = {}
    equivalent: dict[str, str] = {}
    replies: dict[str, list[str]] = {}
    expected = []
    for i, q in enumerate(questions):
        if i % 3 == 2:
            back[q.gold] = f"tell me the answer to: {q.text}"
            equivalent[back[q.gold]] = q.text
        else:
            back[q.gold] = q.text
    for q, scenario in zip(questions, scenarios):
        for text, phrase in q.wrong_back.items():
            back.setdefault(text, phrase)
        if "empty" in q.variants:
            back[q.variants["empty"]] = f"could you say: {q.text}"
            equivalent[back[q.variants["empty"]]] = q.text
        replies[q.text] = _replies(scenario, q)
        confident, branch, final = OUTCOMES[scenario]
        lf = {"gold": q.gold, "wrong": q.variants.get("wrong"), "empty": q.variants.get("empty"), "NK": "NK"}[final]
        answer_is_na = final == "NK" or branch == "empty-answer"
        expected.append(
            {"scenario": scenario, "confident": confident, "branch": branch, "lf": lf, "answer": "NA" if answer_is_na else "lf"}
        )
    # One flaky question in each block of 1/flaky_frac, so every chunk of
    # that many questions waits out the same number of retries.
    flaky = []
    if shape.flaky_frac:
        block = round(1 / shape.flaky_frac)
        flaky = sorted(
            questions[rng.randrange(start, min(start + block, len(questions)))].text
            for start in range(0, len(questions), block)
        )
    script = {
        "replies": replies,
        "back_translations": back,
        "equivalent": equivalent,
        "flaky": {text: (503 if k % 2 == 0 else 429) for k, text in enumerate(flaky)},
    }
    return script, expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = generate(args.shape, args.seed, Path(args.out))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints one
pass/fail line per criterion (hook in conftest.py).
"""

import itertools
import json
import random
import time

from conftest import FIXTURES
from kbqa_repair.cli import main as cli_main
from kbqa_repair.dataset import DatasetSplit, QAExample, load_split, make_random_plan, inject_unanswerability, save_split
from kbqa_repair.executor import execute
from kbqa_repair.gateway import Matcher, MockGateway
from kbqa_repair.kb import Entity, Fact, RelationDef, SchemaClass, build_kb, load_kb
from kbqa_repair.metrics import em_s, f1_answers
from kbqa_repair.pipeline import Candidate, FunConfig, run_dataset, run_question, scun
from kbqa_repair.query import LogicalForm, extract_entities, extract_relations
from kbqa_repair.retrieval import retrieve_lexical
from kbqa_repair.verifiers import v2a_type_compatibility, v2b_schema_presence
from oracles import pruned_execute
from randgen import random_kb, random_query

FIG1 = FIXTURES / "fig1"
A13 = FIXTURES / "a13"


class budget:
    """Assert the criterion body stayed under its runtime budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s budget"


def _fig1_run(name: str):
    kb = load_kb(str(FIG1 / name / "schema.json"), str(FIG1 / name / "data.jsonl"))
    example = load_split(str(FIG1 / f"dataset_{name}.jsonl")).examples[0]
    gateway = MockGateway.from_file(str(FIG1 / "mock.json"))
    return run_question(gateway, kb, [retrieve_lexical], example, FunConfig(n=3))


def test_criterion_1_fig1_golden_suite():
    """Three toy KBs, one scripted mock, three narrated outcomes."""
    with budget(5.0):
        # complete KB: confident exit at iteration 3 with a non-empty answer
        kb3 = _fig1_run("kb3")
        assert kb3.confident
        assert kb3.answer == {"m.0b1", "m.0b2"}
        assert len(kb3.trace["iterations"]) == 3
        assert kb3.trace["iterations"][2]["all_pass"]

        # facts deleted: the single empty-answer candidate is selected, answer NA
        kb2 = _fig1_run("kb2")
        assert not kb2.confident
        assert not kb2.lf.is_nk and kb2.answer is None
        assert kb2.trace["scun"]["branch"] == "empty-answer"
        admitted = [it for it in kb2.trace["iterations"] if it["admitted"]]
        assert len(admitted) == 3
        empty_iters = [it["iteration"] for it in admitted if it["answer"] == []]
        assert kb2.trace["scun"]["selected_iteration"] == empty_iters[0]
        assert "works_written" in kb2.lf.surface

        # relation deleted: three distinct non-empty answers, no consensus at
        # t = floor(3/2) = 1, output (NK, NA)
        kb1 = _fig1_run("kb1")
        assert not kb1.confident
        assert kb1.lf.is_nk and kb1.answer is None
        admitted = [it for it in kb1.trace["iterations"] if it["admitted"]]
        answers = [tuple(it["answer"]) for it in admitted]
        assert len(answers) == 3 and len(set(answers)) == 3
        assert all(answers)
        assert kb1.trace["scun"] == {
            "pool": 3, "top_supporters": 1, "threshold": 1, "branch": "no-consensus",
        }

        # byte-identical trace on re-run
        for name, first in (("kb3", kb3), ("kb2", kb2), ("kb1", kb1)):
            again = _fig1_run(name)
            assert json.dumps(again.trace, sort_keys=True) == json.dumps(first.trace, sort_keys=True)


A13_FEEDBACK_1 = (
    "The generated sparql has a semantic issue warning:  "
    "The types of relations don't match for entity in the query. "
    "The assigned relation types by ['music.genre.recordings'] are ['music.genre']. "
    "These types are not associated with this entity in the KB. "
    "Please generate again a different executable sparql using the same context and constraints. "
    "DO NOT APOLOGIZE - just return the best you can try."
)

A13_FEEDBACK_2 = (
    "The question that you answer is NOT same as what you've been asked for! "
    'You have answered the question "what is the musical genre associated with the artist of '
    'the recording who m i (feat. 일리닛, new champ, myk)?" but you were asked to answer '
    '"what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?". '
    "Please generate again a different executable sparql using the relations, classes and "
    "entities provided earlier. DO NOT APOLOGIZE - just return the best you can try."
)


def test_criterion_2_a13_golden_trace():
    """Type-conflict, then back-translation disagreement, then all-pass."""
    with budget(2.0):
        kb = load_kb(str(A13 / "kb" / "schema.json"), str(A13 / "kb" / "data.jsonl"))
        example = load_split(str(A13 / "dataset.jsonl")).examples[0]
        gateway = MockGateway.from_file(str(A13 / "mock.json"))
        outcome = run_question(gateway, kb, [retrieve_lexical], example, FunConfig())

        assert outcome.confident
        assert outcome.answer == {"m.0kgenre"}
        iterations = outcome.trace["iterations"]
        assert len(iterations) == 3

        first_fail = [v for v in iterations[0]["verdicts"] if not v["passed"]]
        assert [v["verifier"] for v in first_fail] == ["V2a"]
        assert first_fail[0]["feedback"] == A13_FEEDBACK_1

        second_fail = [v for v in iterations[1]["verdicts"] if not v["passed"]]
        assert [v["verifier"] for v in second_fail] == ["V3"]
        assert second_fail[0]["feedback"] == A13_FEEDBACK_2
        assert iterations[1]["admitted"]

        assert iterations[2]["all_pass"]
        assert all(v["passed"] for v in iterations[2]["verdicts"])


def test_criterion_3_executor_oracle_equivalence():
    """execute == the oracle on >= 500 randomized instances.  The oracle is
    pruned_execute; tests/test_executor.py checks it against full
    enumeration on the first of these cases."""
    with budget(60.0):
        rng = random.Random(987654321)
        mismatches = 0
        for _ in range(500):
            kb = random_kb(rng, max_entities=30)
            q = random_query(rng, kb, max_patterns=3)
            if execute(kb, q) != pruned_execute(kb, q):
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_verifier_properties():
    """V2b catches every injected hallucination; V2a decides every typed case."""
    rng = random.Random(24601)
    # V2b: 100% failure on logical forms referencing deleted ids
    checked = 0
    while checked < 200:
        kb = random_kb(rng, max_entities=12)
        q = random_query(rng, kb)
        relations = sorted(set(extract_relations(q)) & frozenset(kb.relations))
        entities = sorted(set(extract_entities(q)) & frozenset(kb.entities))
        if not relations and not entities:
            continue
        from kbqa_repair.kb import DeletionPlan, delete_elements

        if relations and (not entities or rng.random() < 0.5):
            plan = DeletionPlan(relations=(rng.choice(relations),))
        else:
            plan = DeletionPlan(entities=(rng.choice(entities),))
        kb2 = delete_elements(kb, plan)
        form = LogicalForm("sparql", "synthetic", q)
        assert not v2b_schema_presence(form, kb2).passed
        checked += 1

    # V2a: every constructed case decided correctly
    cases = 0
    for kb in (
        load_kb(str(FIG1 / "kb3/schema.json"), str(FIG1 / "kb3/data.jsonl")),
        load_kb(str(A13 / "kb/schema.json"), str(A13 / "kb/data.jsonl")),
        load_kb(str(FIXTURES / "pairs/schema.json"), str(FIXTURES / "pairs/data.jsonl")),
    ):
        chainable = [r for r in kb.relations.values() if not r.range_is_literal]
        for r1, r2 in itertools.product(chainable, kb.relations.values()):
            form = LogicalForm.from_text(
                "sparql",
                f"SELECT ?y WHERE {{ ?x ns:{r1.id} ?y . ?y ns:{r2.id} ?z }}",
            )
            compatible = r1.range == r2.domain
            verdict = v2a_type_compatibility(form, kb)
            assert verdict.passed == compatible, (r1.id, r2.id)
            cases += 1
        for ent, rd in itertools.product(kb.entities.values(), kb.relations.values()):
            form = LogicalForm.from_text("sparql", f"SELECT ?x WHERE {{ ns:{ent.id} ns:{rd.id} ?x }}")
            compatible = rd.domain in ent.classes
            assert v2a_type_compatibility(form, kb).passed == compatible, (ent.id, rd.id)
            cases += 1
    assert cases >= 50


def _pool_candidate(i: int, answer: set) -> Candidate:
    lf = LogicalForm.from_text("sparql", f"SELECT ?x WHERE {{ ?x ns:rel.r{i} ns:m.01 }}")
    return Candidate(lf, frozenset(answer), f"paraphrase {i}?", i)


def test_criterion_5_scun_threshold_suite():
    """Consensus iff supporters strictly exceed half the pool; branch rules."""
    with budget(1.0):
        gateway_factory = lambda: MockGateway([Matcher("substring", "orig_nl_qn", "1")])
        for pool_size in range(2, 7):
            t = pool_size // 2
            for supporters in (t, t + 1):
                if supporters < 1 or supporters > pool_size:
                    continue
                pool = [_pool_candidate(i, {"m.popular"}) for i in range(1, supporters + 1)]
                pool += [
                    _pool_candidate(supporters + j, {f"m.other{j}"})
                    for j in range(1, pool_size - supporters + 1)
                ]
                lf, answer, info = scun(gateway_factory(), "q?", pool)
                if supporters > t:
                    assert answer == {"m.popular"}, (pool_size, supporters)
                else:
                    assert lf.is_nk and answer is None, (pool_size, supporters)

        # all-distinct non-empty answers: no consensus
        pool = [_pool_candidate(i, {f"m.{i}"}) for i in range(1, 4)]
        lf, answer, info = scun(gateway_factory(), "q?", pool)
        assert lf.is_nk and answer is None and info["branch"] == "no-consensus"

        # exactly one empty-answer candidate: selected, answer NA
        empty = _pool_candidate(2, set())
        pool = [_pool_candidate(1, {"m.a"}), empty, _pool_candidate(3, {"m.c"})]
        lf, answer, info = scun(gateway_factory(), "q?", pool)
        assert lf == empty.lf and answer is None and info["branch"] == "empty-answer"


def test_criterion_6_metrics_invariants(pairs_kb):
    """Lenient F1 dominates regular; em_s is reflexive/symmetric and
    answer-sound; cross-dialect pairs score em_s = 1."""
    rng = random.Random(55555)
    universe = [f"m.{i}" for i in range(9)]

    def maybe_answer():
        if rng.random() < 0.15:
            return None
        return frozenset(rng.sample(universe, rng.randint(0, 6)))

    for _ in range(1000):
        pred, gold = maybe_answer(), maybe_answer()
        complete = frozenset(rng.sample(universe, rng.randint(1, 6)))
        assert f1_answers(pred, gold, complete, True) >= f1_answers(pred, gold, complete, False)

    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    forms = [LogicalForm.from_text("sparql", p["sparql"]) for p in pairs]
    corpus = list(itertools.combinations(forms, 2))[:100]
    assert len(corpus) >= 100
    for form in forms:
        assert em_s(form, form, pairs_kb) == 1
    for a, b in corpus:
        left, right = em_s(a, b, pairs_kb), em_s(b, a, pairs_kb)
        assert left == right
        if left == 1:
            assert execute(pairs_kb, a.canonical) == execute(pairs_kb, b.canonical)

    assert len(pairs) >= 20
    for pair in pairs:
        pred = LogicalForm.from_text("sparql", pair["sparql"])
        gold = LogicalForm.from_text("sexpr", pair["sexpr"])
        assert em_s(pred, gold, pairs_kb) == 1


def _synthetic_answerable_split(kb, rng, count=50):
    examples = []
    seen = set()
    facts = sorted(kb.facts, key=lambda f: f.key())
    rng.shuffle(facts)
    for fact in facts:
        if fact.obj_is_literal or (fact.subject, fact.relation) in seen:
            continue
        seen.add((fact.subject, fact.relation))
        text = f"SELECT DISTINCT ?x WHERE {{ ns:{fact.subject} ns:{fact.relation} ?x }}"
        lf = LogicalForm.from_text("sparql", text)
        answer = execute(kb, lf.canonical)
        examples.append(
            QAExample(
                question=f"what does {fact.subject} reach via {fact.relation}?",
                linked_entities=((kb.label_of(fact.subject), fact.subject),),
                gold_lf=lf,
                gold_answer=answer,
                complete_kb_answer=answer,
            )
        )
        if len(examples) == count:
            break
    assert len(examples) == count
    return DatasetSplit("synthetic", tuple(examples))


def test_criterion_7_injection_soundness(tmp_path):
    """Relabeled examples behave exactly as their labels promise."""
    with budget(30.0):
        rng = random.Random(31337)

        def rooted_pairs(candidate):
            return len({(f.subject, f.relation) for f in candidate.facts if not f.obj_is_literal})

        kb = random_kb(rng, max_entities=30)
        while rooted_pairs(kb) < 50:
            kb = random_kb(rng, max_entities=30)
        split = _synthetic_answerable_split(kb, rng, count=50)
        plan = make_random_plan(kb, seed=2024, n_relations=1, n_entities=2, n_facts=4)
        kb2, relabeled = inject_unanswerability(kb, split, plan)

        flipped = 0
        for before, after in zip(split.examples, relabeled.examples):
            original = before.gold_lf
            assert after.complete_kb_answer == execute(kb, original.canonical)
            if after.label == "schema-unans":
                assert after.gold_lf.is_nk and after.gold_answer is None
                assert not v2b_schema_presence(original, kb2).passed
                flipped += 1
            elif after.label == "data-unans":
                assert not after.gold_lf.is_nk and after.gold_answer is None
                assert execute(kb2, after.gold_lf.canonical) == frozenset()
                assert execute(kb, after.gold_lf.canonical)
                flipped += 1
            else:
                assert after.gold_answer == execute(kb2, after.gold_lf.canonical)
                assert after.gold_answer
        assert flipped >= 1  # the plan actually bit

        # same seed, byte-identical re-injection
        plan_again = make_random_plan(kb, seed=2024, n_relations=1, n_entities=2, n_facts=4)
        _, relabeled_again = inject_unanswerability(kb, split, plan_again)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_split(relabeled, str(a))
        save_split(relabeled_again, str(b))
        assert a.read_bytes() == b.read_bytes()


def _answerable_mode_setup():
    classes = [SchemaClass("org.person", "person"), SchemaClass("org.team", "team")]
    relations = [RelationDef("org.team.leader", "org.team", "org.person")]
    entities, facts, examples, matchers = [], [], [], []
    for i in range(50):
        team, person = f"m.t{i:02d}", f"m.p{i:02d}"
        entities.append(Entity(team, f"team t{i:02d}", frozenset({"org.team"})))
        entities.append(Entity(person, f"lead p{i:02d}", frozenset({"org.person"})))
        if i % 3 != 2:
            facts.append(Fact(team, "org.team.leader", person))
        question = f"who leads team t{i:02d}?"
        examples.append(
            QAExample(
                question=question,
                linked_entities=((f"team t{i:02d}", team),),
                gold_lf=LogicalForm.from_text(
                    "sparql", f"SELECT DISTINCT ?x WHERE {{ ns:{team} ns:org.team.leader ?x }}"
                ) if i % 3 != 2 else LogicalForm.nk(),
                gold_answer=frozenset({person}) if i % 3 != 2 else None,
                complete_kb_answer=frozenset({person}),
                label="answerable" if i % 3 != 2 else "schema-unans",
                category="n/a" if i % 3 != 2 else "missing-fact",
            )
        )
        lf_text = f"SELECT DISTINCT ?x WHERE {{ ns:{team} ns:org.team.leader ?x }}"
        if i % 3 == 1:
            matchers.append((f"Question: {question}", "NK"))
        else:
            matchers.append((f"Question: {question}", lf_text))
            naturalized = lf_text.replace("?x", "?leader")
            matchers.append((f"relation names\n{lf_text}", naturalized))
            matchers.append((f"as natural as possible. {naturalized}", question))
    matchers.append(("word NK not defined", "NK"))
    matchers.append(("gives an empty answer when executed", "NK"))
    kb = build_kb(classes, relations, entities, facts)
    gateway = MockGateway([Matcher("substring", key, reply) for key, reply in matchers])
    return kb, DatasetSplit("mode", tuple(e for e in examples)), gateway


def test_criterion_8_answerable_mode_contract():
    """With the empty-answer check strong, no outcome pairs a concrete
    logical form with NA."""
    kb, split, gateway = _answerable_mode_setup()
    cfg = FunConfig(n=2, answerable_mode=True)
    outcomes = run_dataset(gateway, kb, [retrieve_lexical], split, cfg)
    assert len(outcomes) == 50
    assert all(o.error is None for o in outcomes)
    violations = [o for o in outcomes if not o.lf.is_nk and o.answer is None]
    assert violations == []
    confident = [o for o in outcomes if o.confident]
    assert len(confident) == 17  # i % 3 == 0 up to 50
    assert all(o.answer for o in confident)
    assert sum(1 for o in outcomes if o.lf.is_nk and o.answer is None) == 33


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    """Two cmd_run invocations on the same manifest produce identical files."""
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "run", "--kb", str(FIG1 / "kb2"), "--dataset", str(FIG1 / "dataset_kb2.jsonl"),
            "--mock", str(FIG1 / "mock.json"), "--n-iter", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert cli_main([
            "eval", "--kb", str(FIG1 / "kb2"), "--pred", str(out / "outcomes.jsonl"),
            "--gold", str(FIG1 / "dataset_kb2.jsonl"), "--out", str(out / "report.json"),
        ]) == 0
        outs.append(out)
    for filename in ("outcomes.jsonl", "traces.jsonl", "manifest.json", "report.json"):
        first = (outs[0] / filename).read_bytes()
        second = (outs[1] / filename).read_bytes()
        assert first == second, filename

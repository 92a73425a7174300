import json

import pytest

from conftest import FIXTURES
from kbqa_repair.dataset import QAExample, answer_to_json, load_split
from kbqa_repair.gateway import Matcher, MockGateway, RecordingGateway, assistant, user
from kbqa_repair.kb import load_kb
from kbqa_repair.pipeline import (
    Candidate,
    FunConfig,
    FunResult,
    build_pun_prompt,
    fun,
    parse_reply,
    pun_generate,
    run_dataset,
    run_question,
    scun,
    select_best,
)
from kbqa_repair.query import LogicalForm
from kbqa_repair.retrieval import RetrievalCaps, RetrievalContext, retrieve_lexical
from kbqa_repair.verifiers import run_suite


def candidate(i, answer, bt="restated?"):
    lf = LogicalForm.from_text("sparql", f"SELECT ?x WHERE {{ ?x ns:rel.r{i} ns:m.01 }}")
    return Candidate(lf, frozenset(answer), bt, i)


def pick_first_gateway():
    return MockGateway([Matcher("substring", "orig_nl_qn", "1")])


# ---------------------------------------------------------------------------
# reply parsing and generation
# ---------------------------------------------------------------------------

def test_parse_reply_nk_sentinel():
    assert parse_reply("NK").is_nk
    assert parse_reply('  "NK"  ').is_nk


def test_parse_reply_sparql_and_garbage():
    ok = parse_reply("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }")
    assert ok.parsed
    fenced = parse_reply("```sparql\nSELECT ?x WHERE { ?x ns:a.b ns:m.01 }\n```")
    assert fenced.parsed
    bad = parse_reply("I think the answer is 42")
    assert not bad.parsed and not bad.is_nk and bad.parse_error


def test_pun_generate_nk_and_lf(fig1_kb3):
    ctx = RetrievalContext(linked_entities=(("j r hart", "m.0auth"),))
    nk_gw = MockGateway([Matcher("substring", "sparql:", "NK")])
    prompt = build_pun_prompt(fig1_kb3, "q?", ctx)
    assert pun_generate(nk_gw, prompt).is_nk
    lf_gw = MockGateway([Matcher("substring", "sparql:", "SELECT ?x WHERE { ?x ns:a.b ns:m.01 }")])
    assert pun_generate(lf_gw, prompt).parsed


def test_pun_prompt_matches_golden():
    from kbqa_repair.kb import Entity, Fact, RelationDef, SchemaClass, build_kb
    from kbqa_repair.query import parse_sparql

    kb = build_kb(
        classes=[
            SchemaClass("book.newspaper", "newspaper"),
            SchemaClass("book.newspaper_issue", "newspaper issue"),
            SchemaClass("education.educational_institution", "educational institution"),
            SchemaClass("education.school_newspaper", "school newspaper"),
            SchemaClass("location.area", "area"),
        ],
        relations=[
            RelationDef("book.newspaper.circulation_areas", "book.newspaper", "location.area"),
            RelationDef("book.newspaper_issue.newspaper", "book.newspaper_issue", "book.newspaper"),
            RelationDef("education.school_newspaper.school", "education.school_newspaper",
                        "education.educational_institution"),
            RelationDef("periodicals.newspapers", "location.area", "book.newspaper"),
        ],
        entities=[
            Entity("m.0hpsvmv", "the onion", frozenset({"book.newspaper"})),
            Entity("m.0area", "springfield", frozenset({"location.area"})),
            Entity("m.0paper2", "the daily bugle", frozenset({"book.newspaper"})),
        ],
        facts=[
            Fact("m.0hpsvmv", "book.newspaper.circulation_areas", "m.0area"),
            Fact("m.0area", "periodicals.newspapers", "m.0paper2"),
        ],
    )
    ctx = RetrievalContext(
        classes=("education.school_newspaper", "book.newspaper"),
        relations=("education.school_newspaper.school", "book.newspaper_issue.newspaper"),
        paths=(
            parse_sparql(
                "SELECT DISTINCT ?x WHERE { ns:m.0hpsvmv ns:book.newspaper.circulation_areas ?x0 . "
                "?x0 ns:periodicals.newspapers ?x . ?x ns:type.object.type ns:book.newspaper }"
            ),
        ),
        linked_entities=(("the onion", "m.0hpsvmv"),),
    )
    prompt = build_pun_prompt(
        kb, "which school newspaper deals with the same subject as the onion?", ctx
    )
    golden = (FIXTURES / "golden_pun_prompt.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_pun_prompt_layout(fig1_kb3):
    ctx = RetrievalContext(
        classes=("book.author",),
        relations=("book.author.works_written",),
        paths=(),
        linked_entities=(("j r hart", "m.0auth"),),
    )
    prompt = build_pun_prompt(fig1_kb3, "which books did j r hart write?", ctx)
    assert prompt.startswith("Translate the following question to sparql for Freebase")
    assert "sparql:NK" in prompt  # the no-knowledge exemplar
    assert prompt.endswith("sparql:")
    assert "Question: which books did j r hart write?" in prompt


def test_pun_prompt_fewshots_appended(fig1_kb3):
    ctx = RetrievalContext(linked_entities=())
    shot = QAExample(
        "who wrote the silent river?",
        (),
        LogicalForm.from_text("sparql", "SELECT ?x WHERE { ns:m.0b1 ns:book.written_work.author ?x }"),
        frozenset({"m.0auth"}),
        frozenset({"m.0auth"}),
    )
    nk_shot = QAExample("who is the king of mars?", (), LogicalForm.nk(), None,
                        frozenset({"m.0auth"}), label="schema-unans", category="missing-class")
    prompt = build_pun_prompt(fig1_kb3, "q?", ctx, fewshots=(shot, nk_shot))
    assert "Question: who wrote the silent river?\nsparql:SELECT ?x" in prompt
    assert "Question: who is the king of mars?\nsparql:NK" in prompt


# ---------------------------------------------------------------------------
# consensus: threshold arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pool_size", [2, 3, 4, 5, 6])
def test_scun_threshold_strictness(pool_size):
    threshold = pool_size // 2
    for supporters in (threshold, threshold + 1):
        if supporters > pool_size:
            continue
        candidates = [candidate(i, {"m.popular"}) for i in range(1, supporters + 1)]
        # pad the pool with mutually distinct non-empty answers
        candidates += [
            candidate(supporters + j, {f"m.other{j}"}) for j in range(1, pool_size - supporters + 1)
        ]
        assert len(candidates) == pool_size
        lf, answer, info = scun(pick_first_gateway(), "q?", candidates)
        if supporters > threshold:
            assert answer == {"m.popular"}, (pool_size, supporters)
            assert info["branch"] == "non-empty-consensus"
        else:
            # no majority and no empty-answer candidate -> unanswerable
            assert lf.is_nk and answer is None, (pool_size, supporters)
            assert info["branch"] == "no-consensus"


def test_scun_all_distinct_non_empty_gives_nk():
    candidates = [candidate(1, {"m.a"}), candidate(2, {"m.b"}), candidate(3, {"m.c"})]
    lf, answer, info = scun(pick_first_gateway(), "q?", candidates)
    assert lf.is_nk and answer is None
    assert info["branch"] == "no-consensus"


def test_scun_single_empty_answer_candidate_selected():
    empty = candidate(2, set())
    candidates = [candidate(1, {"m.a"}), empty, candidate(3, {"m.c"})]
    recorder = RecordingGateway(pick_first_gateway())
    lf, answer, info = scun(recorder, "q?", candidates)
    assert lf == empty.lf and answer is None
    assert info["branch"] == "empty-answer"
    assert recorder.log == []  # singleton short-circuit


def test_scun_majority_with_three_of_four():
    candidates = [
        candidate(1, {"m.01"}),
        candidate(2, {"m.01"}),
        candidate(3, {"m.01"}),
        candidate(4, {"m.x"}),
    ]
    lf, answer, info = scun(pick_first_gateway(), "q?", candidates)
    assert answer == {"m.01"}
    assert info["top_supporters"] == 3 and info["threshold"] == 2


def test_scun_empty_pool_gives_nk():
    lf, answer, info = scun(pick_first_gateway(), "q?", [])
    assert lf.is_nk and answer is None


def test_scun_tie_prefers_earliest_iteration_group():
    # two groups of two; threshold 2 of |L|=4 -> no consensus either way
    candidates = [candidate(1, {"m.a"}), candidate(2, {"m.b"}),
                  candidate(3, {"m.a"}), candidate(4, {"m.b"})]
    lf, answer, info = scun(pick_first_gateway(), "q?", candidates)
    assert lf.is_nk  # 2 is not > 2


# ---------------------------------------------------------------------------
# select_best
# ---------------------------------------------------------------------------

def test_select_best_singleton_no_call():
    gw = MockGateway([])  # would raise MockMiss on any call
    chosen, fallback = select_best(gw, "q?", [candidate(1, {"m.a"})])
    assert chosen.iteration == 1 and not fallback


def test_select_best_parses_index():
    gw = MockGateway([Matcher("substring", "orig_nl_qn", "2. The second reads closest.")])
    pool = [candidate(1, {"m.a"}, "first?"), candidate(2, {"m.b"}, "second?")]
    chosen, fallback = select_best(gw, "q?", pool)
    assert chosen.iteration == 2 and not fallback


def test_select_best_prompt_lists_back_translations():
    seen = {}

    class Spy(MockGateway):
        def _complete(self, conversation):
            seen["prompt"] = conversation[-1].text
            return "1"

    pool = [candidate(1, {"m.a"}, "first paraphrase?"), candidate(2, {"m.b"}, "second paraphrase?")]
    select_best(Spy([]), "the original question?", pool)
    prompt = seen["prompt"]
    assert prompt.startswith("orig_nl_qn = the original question?")
    assert "1. pred_nl: first paraphrase?" in prompt
    assert "2. pred_nl: second paraphrase?" in prompt
    assert "of the 2 predicted nl questions" in prompt


def test_select_best_fallback_on_free_text():
    gw = MockGateway([Matcher("substring", "orig_nl_qn", "neither looks right to me")])
    pool = [candidate(3, {"m.a"}), candidate(2, {"m.b"})]
    chosen, fallback = select_best(gw, "q?", pool)
    assert chosen.iteration == 2 and fallback  # earliest iteration wins


def test_select_best_out_of_range_index_falls_back():
    gw = MockGateway([Matcher("substring", "orig_nl_qn", "7")])
    pool = [candidate(1, {"m.a"}), candidate(2, {"m.b"})]
    chosen, fallback = select_best(gw, "q?", pool)
    assert chosen.iteration == 1 and fallback


# ---------------------------------------------------------------------------
# the repair loop on the golden fixtures
# ---------------------------------------------------------------------------

def fig1_example(name):
    return load_split(str(FIXTURES / f"fig1/dataset_{name}.jsonl")).examples[0]


def test_fun_confident_on_complete_kb(fig1_kb3):
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    example = fig1_example("kb3")
    ctx = retrieve_lexical(fig1_kb3, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(fig1_kb3, example.question, ctx)
    lf0 = pun_generate(gw, prompt)
    result = fun(gw, fig1_kb3, example.question, example.question_entities(), lf0,
                 FunConfig(n=3), prompt)
    assert result.confident
    assert result.answer == {"m.0b1", "m.0b2"}
    assert len(result.iterations) == 3
    assert [len(result.candidates)] == [1]


def test_fun_exhausts_without_confidence(fig1_kb1):
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    example = fig1_example("kb1")
    ctx = retrieve_lexical(fig1_kb1, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(fig1_kb1, example.question, ctx)
    lf0 = pun_generate(gw, prompt)
    result = fun(gw, fig1_kb1, example.question, example.question_entities(), lf0,
                 FunConfig(n=3), prompt)
    assert not result.confident
    assert len(result.iterations) == 4
    answers = [c.answer for c in result.candidates]
    assert len(answers) == 3 and len(set(answers)) == 3
    assert all(a for a in answers)


def test_fun_strong_failure_admits_nothing(fig1_kb3):
    # every generation fails the syntax verifier, so nothing joins the pool
    gw = MockGateway([Matcher("substring", "", "not a query at all")])
    example = fig1_example("kb3")
    ctx = RetrievalContext(linked_entities=example.linked_entities)
    lf0 = parse_reply("also not a query")
    result = fun(gw, fig1_kb3, example.question, example.question_entities(), lf0,
                 FunConfig(n=2), build_pun_prompt(fig1_kb3, example.question, ctx))
    assert not result.confident
    assert result.candidates == []
    assert len(result.iterations) == 3  # n + 1 logical forms checked
    assert all(it["verdicts"][0]["verifier"] == "V1" for it in result.iterations)


def test_candidate_admission_invariant(fig1_kb2):
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    example = fig1_example("kb2")
    ctx = retrieve_lexical(fig1_kb2, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(fig1_kb2, example.question, ctx)
    lf0 = pun_generate(gw, prompt)
    result = fun(gw, fig1_kb2, example.question, example.question_entities(), lf0,
                 FunConfig(n=3), prompt)
    by_iter = {it["iteration"]: it for it in result.iterations}
    for cand in result.candidates:
        record = by_iter[cand.iteration]
        strong = [v for v in record["verdicts"] if v["strength"] == "strong"]
        weak = [v for v in record["verdicts"] if v["strength"] == "weak"]
        assert all(v["passed"] for v in strong)
        assert any(v["passed"] for v in weak)
        assert record["admitted"]


def test_feedback_accumulates_in_one_conversation(fig1_kb3):
    transcript = []

    class Spy(MockGateway):
        def _complete(self, conversation):
            transcript.append([m.role for m in conversation])
            return super()._complete(conversation)

    gw = Spy(MockGateway.from_file(str(FIXTURES / "fig1/mock.json")).matchers)
    example = fig1_example("kb3")
    run_question(gw, __import__("kbqa_repair.kb", fromlist=["load_kb"]).load_kb(
        str(FIXTURES / "fig1/kb3/schema.json"), str(FIXTURES / "fig1/kb3/data.jsonl")),
        [retrieve_lexical], example, FunConfig(n=3))
    # generation calls grow: [user], [user, asst, user], [user, asst, user, asst, user]
    generation_shapes = [roles for roles in transcript if roles[0] == "user" and len(roles) % 2 == 1]
    grown = [roles for roles in generation_shapes if len(roles) >= 3]
    assert grown and all(roles[-1] == "user" for roles in grown)


# ---------------------------------------------------------------------------
# end-to-end outcomes
# ---------------------------------------------------------------------------

def test_outcome_totality_three_kbs(fig1_kb3, fig1_kb2, fig1_kb1):
    for kb, name, expect in (
        (fig1_kb3, "kb3", "answer"),
        (fig1_kb2, "kb2", "lf_na"),
        (fig1_kb1, "kb1", "nk_na"),
    ):
        gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
        outcome = run_question(gw, kb, [retrieve_lexical], fig1_example(name), FunConfig(n=3))
        if expect == "answer":
            assert not outcome.lf.is_nk and outcome.answer
        elif expect == "lf_na":
            assert not outcome.lf.is_nk and outcome.answer is None
        else:
            assert outcome.lf.is_nk and outcome.answer is None


def test_gateway_error_recorded_not_raised(fig1_kb3):
    from kbqa_repair.gateway import GatewayError, GenerationGateway

    class Broken(GenerationGateway):
        def _complete(self, conversation):
            raise GatewayError("timeout", "scripted outage")

    outcome = run_question(Broken(), fig1_kb3, [retrieve_lexical], fig1_example("kb3"), FunConfig(n=3))
    assert outcome.error and "timeout" in outcome.error
    assert outcome.lf.is_nk and outcome.answer is None
    assert outcome.trace["outcome"]["error"]


@pytest.mark.parametrize("caps", [RetrievalCaps(max_path_len=1), RetrievalCaps(max_paths=1000)])
def test_caps_reach_the_retriever(fig1_kb3, caps):
    example = fig1_example("kb3")
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    outcome = run_question(gw, fig1_kb3, [retrieve_lexical], example, FunConfig(n=3, caps=caps))
    ctx = retrieve_lexical(fig1_kb3, example.question, list(example.linked_entities), caps)
    assert outcome.trace["llm"][0]["prompt"] == build_pun_prompt(fig1_kb3, example.question, ctx)


def _traced(outcome):
    return json.dumps([outcome.trace, outcome.error], sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_retriever_crash_costs_only_its_question(fig1_kb3, workers):
    import dataclasses
    import subprocess

    from kbqa_repair.dataset import DatasetSplit

    def flaky(kb, question, linked, caps):
        if ("boom", "m.boom") in linked:
            raise subprocess.CalledProcessError(3, ["retriever"])
        return retrieve_lexical(kb, question, linked, caps)

    example = fig1_example("kb3")
    doomed = dataclasses.replace(example, linked_entities=example.linked_entities + (("boom", "m.boom"),))
    split = DatasetSplit("t", (example, doomed, example))
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    clean = run_dataset(gw, fig1_kb3, [retrieve_lexical], split, FunConfig(n=3), workers=workers)
    hit = run_dataset(gw, fig1_kb3, [flaky], split, FunConfig(n=3), workers=workers)

    assert len(hit) == 3
    assert [o.error is not None for o in hit] == [False, True, False]
    assert hit[1].error.startswith("CalledProcessError: ")
    assert "CalledProcessError" in hit[1].trace["exception"]
    assert hit[1].trace["outcome"]["error"] == hit[1].error
    assert hit[1].lf.is_nk and hit[1].answer is None
    assert _traced(hit[0]) == _traced(clean[0]) and _traced(hit[2]) == _traced(clean[2])


def test_mock_miss_propagates(fig1_kb3):
    from kbqa_repair.gateway import MockMiss

    with pytest.raises(MockMiss):
        run_question(MockGateway([]), fig1_kb3, [retrieve_lexical], fig1_example("kb3"), FunConfig(n=3))


def test_run_dataset_order_and_workers(fig1_kb3):
    split = load_split(str(FIXTURES / "fig1/dataset_kb3.jsonl"))
    split = type(split)(split.name, split.examples * 3)
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    serial = run_dataset(gw, fig1_kb3, [retrieve_lexical], split, FunConfig(n=3))
    threaded = run_dataset(gw, fig1_kb3, [retrieve_lexical], split, FunConfig(n=3), workers=3)
    assert [o.trace["outcome"] for o in serial] == [o.trace["outcome"] for o in threaded]
    assert len(serial) == 3


def test_empty_dataset():
    from kbqa_repair.dataset import DatasetSplit

    gw = MockGateway([])
    assert run_dataset(gw, None, [], DatasetSplit("t", ()), FunConfig()) == []


def test_trace_replay_byte_identical(fig1_kb2):
    example = fig1_example("kb2")
    runs = []
    for _ in range(2):
        gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
        outcome = run_question(gw, fig1_kb2, [retrieve_lexical], example, FunConfig(n=3))
        runs.append(json.dumps(outcome.trace, sort_keys=True))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# why each LLM call is made
# ---------------------------------------------------------------------------

_GEN_AND_V3 = ["generate", "v3-naturalize", "v3-backtranslate"]
_FIG1_KB3_PURPOSES = ["generate"] + _GEN_AND_V3 + ["v3-equivalence"] + _GEN_AND_V3


@pytest.mark.parametrize(
    "name, purposes",
    [
        ("kb3", _FIG1_KB3_PURPOSES),
        ("kb2", _FIG1_KB3_PURPOSES + _GEN_AND_V3 + ["v3-equivalence"]),
        ("kb1", _FIG1_KB3_PURPOSES + ["v3-equivalence"] + _GEN_AND_V3 + ["v3-equivalence"]),
    ],
)
def test_llm_call_purposes_fig1(name, purposes):
    kb = load_kb(str(FIXTURES / f"fig1/{name}/schema.json"), str(FIXTURES / f"fig1/{name}/data.jsonl"))
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    outcome = run_question(gw, kb, [retrieve_lexical], fig1_example(name), FunConfig(n=3))
    assert [c["purpose"] for c in outcome.trace["llm"]] == purposes


def test_llm_call_purposes_a13(a13_kb):
    example = load_split(str(FIXTURES / "a13/dataset.jsonl")).examples[0]
    gw = MockGateway.from_file(str(FIXTURES / "a13/mock.json"))
    outcome = run_question(gw, a13_kb, [retrieve_lexical], example, FunConfig())
    assert [c["purpose"] for c in outcome.trace["llm"]] == _FIG1_KB3_PURPOSES


def test_select_best_call_purpose():
    recorder = RecordingGateway(pick_first_gateway())
    pool = [candidate(1, {"m.a"}), candidate(2, {"m.b"}), candidate(3, {"m.c"})]
    select_best(recorder, "q?", pool)
    assert [c["purpose"] for c in recorder.log] == ["scun-select"]


# ---------------------------------------------------------------------------
# a repair round that regenerates a query already checked
# ---------------------------------------------------------------------------

# The kb3 question under mock_repeat.json: rounds alternate between two
# award queries, so rounds 3 and 4 repeat rounds 1 and 2.
_V3 = ["v3-naturalize", "v3-backtranslate", "v3-equivalence"]
_REPEAT_PURPOSES = ["generate"] + _V3 + ["generate"] + _V3 + ["generate", "generate", "scun-select"]


def repeat_gateway():
    return MockGateway.from_file(str(FIXTURES / "fig1/mock_repeat.json"))


def run_fun(fun_impl, gw, kb, example):
    ctx = retrieve_lexical(kb, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(kb, example.question, ctx)
    lf0 = pun_generate(gw, prompt)
    return fun_impl(gw, kb, example.question, example.question_entities(), lf0, FunConfig(n=3), prompt)


def test_repeated_query_makes_one_call_per_v3_purpose(fig1_kb3):
    outcome = run_question(repeat_gateway(), fig1_kb3, [retrieve_lexical], fig1_example("kb3"),
                           FunConfig(n=3))
    surfaces = [it["lf"] for it in outcome.trace["iterations"]]
    assert surfaces[0] != surfaces[1] and surfaces[2:] == surfaces[:2]
    assert [c["purpose"] for c in outcome.trace["llm"]] == _REPEAT_PURPOSES
    naturalized = [c["prompt"] for c in outcome.trace["llm"] if c["purpose"] == "v3-naturalize"]
    assert [p.endswith(s) for p, s in zip(naturalized, surfaces)] == [True, True]


def test_repeated_round_records_the_first_check(fig1_kb3):
    outcome = run_question(repeat_gateway(), fig1_kb3, [retrieve_lexical], fig1_example("kb3"),
                           FunConfig(n=3))
    iterations = outcome.trace["iterations"]
    for first, again in ((iterations[0], iterations[2]), (iterations[1], iterations[3])):
        assert again["iteration"] == first["iteration"] + 2
        assert {**again, "iteration": first["iteration"]} == first


def test_repeated_query_is_admitted_each_time(fig1_kb3):
    result = run_fun(fun, repeat_gateway(), fig1_kb3, fig1_example("kb3"))
    assert [c.iteration for c in result.candidates] == [1, 2, 3, 4]
    assert result.candidates[2].lf == result.candidates[0].lf
    assert result.candidates[2].answer == result.candidates[0].answer
    assert all(it["admitted"] for it in result.iterations)


def test_suite_runs_once_per_distinct_query(fig1_kb3, monkeypatch):
    import kbqa_repair.pipeline as pipeline

    checked = []

    def counting(lf, *args):
        checked.append(lf.surface)
        return run_suite(lf, *args)

    monkeypatch.setattr(pipeline, "run_suite", counting)
    result = run_fun(fun, repeat_gateway(), fig1_kb3, fig1_example("kb3"))
    assert len(result.iterations) == 4
    assert checked == [it["lf"] for it in result.iterations[:2]]


def _fun_checking_every_round(gateway, kb, question, question_entities, lf0, cfg, prompt):
    """The repair loop as it was before suite results were reused: the suite
    runs on every round.  Kept here as the oracle for ``fun``."""
    conversation = [user(prompt), assistant(lf0.surface)]
    candidates, iterations = [], []
    lf = lf0
    for iteration in range(1, cfg.n + 2):
        result = run_suite(lf, question, question_entities, kb, gateway, cfg)
        record = {
            "iteration": iteration,
            "lf": lf.surface,
            "parsed": lf.parsed,
            "verdicts": [
                {"verifier": v.verifier_id, "strength": v.strength, "passed": v.passed,
                 "feedback": v.feedback}
                for v in result.verdicts
            ],
            "answer": answer_to_json(result.answer) if result.answer is not None else None,
            "admitted": False,
            "all_pass": False,
            "back_translation": result.back_translation,
        }
        iterations.append(record)
        if result.all_pass:
            record["all_pass"] = True
            return FunResult(True, lf, result.answer, candidates, iterations)
        if result.strong_failure is not None:
            feedback_texts = [result.strong_failure.feedback]
        else:
            if result.weak_passes:
                record["admitted"] = True
                candidates.append(Candidate(lf, result.answer, result.back_translation, iteration))
            feedback_texts = [v.feedback for v in result.weak_failures]
        if iteration == cfg.n + 1:
            break
        conversation.append(user("\n".join(feedback_texts)))
        reply = gateway.complete(conversation)
        conversation.append(assistant(reply))
        lf = parse_reply(reply)
    return FunResult(False, lf, None, candidates, iterations)


@pytest.mark.parametrize("kb_name, dataset, mock", [
    ("fig1_kb1", "fig1/dataset_kb1.jsonl", "fig1/mock.json"),
    ("fig1_kb2", "fig1/dataset_kb2.jsonl", "fig1/mock.json"),
    ("fig1_kb3", "fig1/dataset_kb3.jsonl", "fig1/mock.json"),
    ("a13_kb", "a13/dataset.jsonl", "a13/mock.json"),
    ("fig1_kb3", "fig1/dataset_kb3.jsonl", "fig1/mock_repeat.json"),
])
def test_fun_matches_the_every_round_oracle(request, kb_name, dataset, mock):
    kb = request.getfixturevalue(kb_name)
    example = load_split(str(FIXTURES / dataset)).examples[0]
    results = [
        run_fun(impl, MockGateway.from_file(str(FIXTURES / mock)), kb, example)
        for impl in (fun, _fun_checking_every_round)
    ]
    got, want = ((r.confident, r.lf, r.answer, r.candidates, r.iterations) for r in results)
    assert got == want


@pytest.mark.parametrize("workers", [1, 2])
def test_each_question_makes_its_own_v3_calls(fig1_kb3, workers):
    from kbqa_repair.dataset import DatasetSplit

    example = fig1_example("kb3")
    split = DatasetSplit("t", (example, example))
    outcomes = run_dataset(repeat_gateway(), fig1_kb3, [retrieve_lexical], split, FunConfig(n=3),
                           workers=workers)
    assert [[c["purpose"] for c in o.trace["llm"]] for o in outcomes] == [_REPEAT_PURPOSES] * 2
    assert _traced(outcomes[0]) == _traced(outcomes[1])

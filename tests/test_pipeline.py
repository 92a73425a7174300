import json
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from kbqa_repair.dataset import QAExample, answer_to_json, load_split
from kbqa_repair.gateway import (
    GenerationGateway, Matcher, MockGateway, RecordingGateway, assistant, user,
)
from kbqa_repair.kb import load_kb
from kbqa_repair.pipeline import (
    Candidate,
    FunConfig,
    FunResult,
    build_pun_prompt,
    fun,
    iter_outcomes,
    parse_reply,
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


def test_pun_prompt_matches_golden():
    from kbqa_repair.kb import Entity, Fact, RelationDef, SchemaClass, build_kb

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
            "SELECT DISTINCT ?x WHERE { ns:m.0hpsvmv ns:book.newspaper.circulation_areas ?x0 . "
            "?x0 ns:periodicals.newspapers ?x . ?x ns:type.object.type ns:book.newspaper }",
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
    sexpr_shot = QAExample(
        "who wrote the silent river, as an s-expression?",
        (),
        LogicalForm.from_text("sexpr", "(JOIN book.author.works_written m.0b1)"),
        frozenset({"m.0auth"}),
        frozenset({"m.0auth"}),
    )
    prompt = build_pun_prompt(fig1_kb3, "q?", ctx, fewshots=(shot, nk_shot, sexpr_shot))
    assert "Question: who wrote the silent river?\nsparql:SELECT ?x" in prompt
    assert "Question: who is the king of mars?\nsparql:NK" in prompt
    assert (
        "Question: who wrote the silent river, as an s-expression?\n"
        "sparql:SELECT DISTINCT ?x WHERE { ?x ns:book.author.works_written ns:m.0b1 }"
    ) in prompt
    assert "(JOIN" not in prompt


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


@pytest.mark.parametrize("reply, iteration, fallback", [
    ("1" + "0" * 5000, 1, True),  # past int()'s digit limit: out of range
    ("0" * 5000 + "2", 2, False),  # leading zeros name the index they end in
    ("0", 1, True),
], ids=["past-the-digit-limit", "leading-zeros", "zero"])
def test_select_best_reads_a_number_of_any_length(reply, iteration, fallback):
    gw = MockGateway([Matcher("substring", "orig_nl_qn", reply)])
    pool = [candidate(1, {"m.a"}), candidate(2, {"m.b"})]
    chosen, flagged = select_best(gw, "q?", pool)
    assert (chosen.iteration, flagged) == (iteration, fallback)


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
    result = fun(gw, fig1_kb3, example.question, example.question_entities(), FunConfig(n=3), prompt)
    assert result.confident
    assert result.answer == {"m.0b1", "m.0b2"}
    assert len(result.iterations) == 3
    assert [len(result.candidates)] == [1]


def test_fun_exhausts_without_confidence(fig1_kb1):
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    example = fig1_example("kb1")
    ctx = retrieve_lexical(fig1_kb1, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(fig1_kb1, example.question, ctx)
    result = fun(gw, fig1_kb1, example.question, example.question_entities(), FunConfig(n=3), prompt)
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
    result = fun(gw, fig1_kb3, example.question, example.question_entities(), FunConfig(n=2),
                 build_pun_prompt(fig1_kb3, example.question, ctx))
    assert not result.confident
    assert result.candidates == []
    assert len(result.iterations) == 3  # n + 1 logical forms checked
    assert all(it["verdicts"][0]["verifier"] == "V1" for it in result.iterations)


def test_fun_sends_the_feedback_of_every_failed_verdict(fig1_kb2):
    # kb2 lost the works_written facts, so the answer is empty (V4b fails),
    # and the back-translation disagrees with the question (V3 fails)
    gw = RecordingGateway(MockGateway([
        Matcher("exact", "prompt", "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }"),
        Matcher("substring", "", "they are different"),
    ]))
    example = fig1_example("kb2")
    result = fun(gw, fig1_kb2, example.question, example.question_entities(), FunConfig(n=1), "prompt")
    first = result.iterations[0]
    failed = [v for v in first["verdicts"] if not v["passed"]]
    assert [v["verifier"] for v in failed] == ["V3", "V4b"] and not first["admitted"]
    generations = [call["prompt"] for call in gw.log if call["purpose"] == "generate"]
    assert generations == ["prompt", "\n".join(v["feedback"] for v in failed)]


def test_candidate_admission_invariant(fig1_kb2):
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    example = fig1_example("kb2")
    ctx = retrieve_lexical(fig1_kb2, example.question, list(example.linked_entities))
    prompt = build_pun_prompt(fig1_kb2, example.question, ctx)
    result = fun(gw, fig1_kb2, example.question, example.question_entities(), FunConfig(n=3), prompt)
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


def test_each_assistant_turn_is_the_reply_as_received(fig1_kb3):
    query = "SELECT ?x WHERE { ns:m.0auth ns:book.author.no_such_relation ?x }"
    reply = f"  ```sparql\n{query}\n```  \n"
    conversations = []

    class Spy(MockGateway):
        def complete(self, conversation, purpose="generate"):
            if purpose == "generate":
                conversations.append(list(conversation))
            return super().complete(conversation, purpose)

    gw = Spy([Matcher("exact", "prompt", reply), Matcher("substring", "", "NK")])
    example = fig1_example("kb3")
    result = fun(gw, fig1_kb3, example.question, example.question_entities(), FunConfig(n=1), "prompt")
    first = result.iterations[0]
    assert first["lf"] == query and first["parsed"]
    feedback = "\n".join(v["feedback"] for v in first["verdicts"] if not v["passed"])
    assert len(conversations) == 2
    assert conversations[1] == [user("prompt"), assistant(reply), user(feedback)]


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


def _fails_on_first_call(monkeypatch):
    from kbqa_repair.gateway import GatewayError, GenerationGateway

    class Broken(GenerationGateway):
        def _complete(self, conversation):
            raise GatewayError("timeout", "scripted outage")

    return "kb3", Broken(), [retrieve_lexical]


def _fails_in_consensus(monkeypatch):
    import kbqa_repair.pipeline as pipeline
    from kbqa_repair.gateway import GatewayError

    def outage(*args):
        raise GatewayError("server", "scripted outage")

    monkeypatch.setattr(pipeline, "scun", outage)
    return "kb2", MockGateway.from_file(str(FIXTURES / "fig1/mock.json")), [retrieve_lexical]


def _retriever_raises(monkeypatch):
    def crash(kb, question, linked, caps):
        raise RuntimeError("retriever crashed")

    return "kb3", MockGateway.from_file(str(FIXTURES / "fig1/mock.json")), [crash]


_HEAD = ["question", "linked_entities", "iterations", "confident", "scun"]


@pytest.mark.parametrize("setup, field, has_iterations", [
    (_fails_on_first_call, "gateway_error", False),
    (_fails_in_consensus, "gateway_error", True),
    (_retriever_raises, "exception", False),
])
def test_failed_question_trace_layout(monkeypatch, setup, field, has_iterations):
    name, gw, retrievers = setup(monkeypatch)
    kb = load_kb(str(FIXTURES / f"fig1/{name}/schema.json"), str(FIXTURES / f"fig1/{name}/data.jsonl"))
    trace = run_question(gw, kb, retrievers, fig1_example(name), FunConfig(n=3)).trace
    assert list(trace) == _HEAD + [field, "llm", "outcome"]
    assert list(trace["outcome"]) == ["lf", "answer", "confident", "error"]
    assert trace["scun"] is None and trace["confident"] is False
    assert trace["outcome"]["lf"] == "NK"
    assert bool(trace["iterations"]) == has_iterations


def test_mock_miss_propagates(fig1_kb3):
    from kbqa_repair.gateway import MockMiss

    with pytest.raises(MockMiss):
        run_question(MockGateway([]), fig1_kb3, [retrieve_lexical], fig1_example("kb3"), FunConfig(n=3))


@pytest.mark.parametrize("workers", [1, 2])
def test_run_dataset_lets_mock_miss_out(fig1_kb3, workers):
    from kbqa_repair.dataset import DatasetSplit
    from kbqa_repair.gateway import MockMiss

    split = DatasetSplit("t", (fig1_example("kb3"),) * 3)
    with pytest.raises(MockMiss):
        run_dataset(MockGateway([]), fig1_kb3, [retrieve_lexical], split, FunConfig(n=3),
                    workers=workers)


def test_run_dataset_order_and_workers(fig1_kb3):
    split = load_split(str(FIXTURES / "fig1/dataset_kb3.jsonl"))
    split = type(split)(split.name, split.examples * 3)
    gw = MockGateway.from_file(str(FIXTURES / "fig1/mock.json"))
    serial = run_dataset(gw, fig1_kb3, [retrieve_lexical], split, FunConfig(n=3))
    threaded = run_dataset(gw, fig1_kb3, [retrieve_lexical], split, FunConfig(n=3), workers=3)
    assert [o.trace["outcome"] for o in serial] == [o.trace["outcome"] for o in threaded]
    assert len(serial) == 3


def test_closing_iter_outcomes_cancels_the_questions_not_started(monkeypatch):
    """Closed after its first outcome, a 2-worker stream of 20 questions
    cancels each question not yet started and waits only for those running,
    so at most 3 start and the close returns."""
    from concurrent.futures import ThreadPoolExecutor
    from kbqa_repair import pipeline
    from kbqa_repair.dataset import DatasetSplit

    started, release = [], threading.Event()

    def run_question(gateway, kb, retrievers, example, cfg, fewshots):
        started.append(example.question)
        if example.question != "0":
            release.wait(timeout=2)  # a bound only: set once the close has cancelled
        return example.question

    shutdown = ThreadPoolExecutor.shutdown

    def release_then_shut_down(pool, *args, **kwargs):
        release.set()  # the close has cancelled what had not started
        return shutdown(pool, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_question", run_question)
    monkeypatch.setattr(ThreadPoolExecutor, "shutdown", release_then_shut_down)
    example = fig1_example("kb3")
    split = DatasetSplit("t", tuple(replace(example, question=str(i)) for i in range(20)))
    outcomes = iter_outcomes(None, None, [], split, workers=2)
    assert next(outcomes) == "0"
    closer = threading.Thread(target=outcomes.close)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive()
    assert started[0] == "0" and len(started) <= 3


def test_one_worker_run_loads_no_thread_pool(tmp_path):
    # A fresh interpreter: this one has the pool loaded by the tests above.
    # Counted against the modules loaded before the import, as site hooks of
    # the interpreter may load some of these names on their own.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    fig1 = FIXTURES / "fig1"
    kb3 = [str(fig1 / "kb3" / "schema.json"), str(fig1 / "kb3" / "data.jsonl")]

    def argv(workers):
        return [str(a) for a in [
            "run", "--kb", fig1 / "kb3", "--dataset", fig1 / "dataset_kb3.jsonl",
            "--mock", fig1 / "mock.json", "--n-iter", "3", "--workers", workers,
            "--out", tmp_path / f"out{workers}"]]

    pool = ["concurrent.futures", "logging", "traceback"]
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kbqa_repair.cli\n"
        "from kbqa_repair import dataset, gateway, kb, pipeline\n"
        f"def loaded(): return sorted(set(sys.modules) - before & {set(pool)!r})\n"
        f"codes = [kbqa_repair.cli.main({argv(1)!r})]\n"
        "one_worker = loaded()\n"
        "def crash(*args): raise RuntimeError('retriever crashed')\n"
        f"example = dataset.load_split({str(fig1 / 'dataset_kb3.jsonl')!r}).examples[0]\n"
        f"crashed = pipeline.run_question(gateway.MockGateway([]), kb.load_kb(*{kb3!r}), [crash],\n"
        "                                example).trace['exception']\n"
        f"codes.append(kbqa_repair.cli.main({argv(2)!r}))\n"
        "print(json.dumps([codes, one_worker, crashed, loaded()]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    codes, one_worker, crashed, two_workers = json.loads(out.splitlines()[-1])
    assert codes == [0, 0] and one_worker == []
    assert crashed.startswith("Traceback (most recent call last):\n")
    assert crashed.endswith("RuntimeError: retriever crashed\n")
    assert "concurrent.futures" in two_workers


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


# Property: whatever the backend replies, a question's LLM calls stay within
# the loop's budget.  Replies are drawn per call from each fixture's own
# replies, dressed as a model might send them, plus NK and garbage.
def _dressed(text):
    return st.sampled_from([text, f"  {text}\n", f"```sparql\n{text}\n```", f'"{text}"'])


class _ScriptedGateway(GenerationGateway):
    def __init__(self, data, replies):
        self.data, self.replies = data, replies

    def complete(self, conversation, purpose="generate"):
        return self.data.draw(self.replies[purpose], label=purpose)


@pytest.mark.parametrize("kb_name, dataset, mock", [
    ("fig1_kb3", "fig1/dataset_kb3.jsonl", "fig1/mock.json"),
    ("a13_kb", "a13/dataset.jsonl", "a13/mock.json"),
])
@settings(max_examples=40)
@given(data=st.data())
def test_llm_calls_stay_within_the_budget(request, kb_name, dataset, mock, data):
    kb = request.getfixturevalue(kb_name)
    example = load_split(str(FIXTURES / dataset)).examples[0]
    texts = sorted({m.reply for m in MockGateway.from_file(str(FIXTURES / mock)).matchers})
    replies = {
        "generate": st.sampled_from([*texts, "NK", "not a query"]).flatmap(_dressed),
        "v3-naturalize": st.sampled_from(texts),
        "v3-backtranslate": st.sampled_from([*texts, example.question]),
        "v3-equivalence": st.sampled_from(["they are same", "they are different", "no idea"]),
        "scun-select": st.sampled_from(["1", "2", "3", "none"]),
    }
    cfg = FunConfig(n=4)
    trace = run_question(_ScriptedGateway(data, replies), kb, [retrieve_lexical], example, cfg).trace
    calls = Counter(call["purpose"] for call in trace["llm"])
    iterations = trace["iterations"]
    assert "exception" not in trace
    assert calls["generate"] == len(iterations) <= 1 + cfg.n
    strong_passed = {
        it["lf"] for it in iterations
        if all(v["passed"] for v in it["verdicts"] if v["strength"] == "strong")
    }
    assert calls["v3-naturalize"] == calls["v3-backtranslate"] == len(strong_passed)
    assert calls["v3-equivalence"] <= len(strong_passed)
    assert calls["scun-select"] <= 1
    assert not calls["scun-select"] or trace["scun"]["pool"] >= 2
    assert sum(calls.values()) <= 21


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
    return fun_impl(gw, kb, example.question, example.question_entities(), FunConfig(n=3), prompt)


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


def test_repeated_reply_is_parsed_once(fig1_kb3, monkeypatch):
    import kbqa_repair.pipeline as pipeline

    replies = []

    def counting(reply):
        replies.append(reply)
        return parse_reply(reply)

    monkeypatch.setattr(pipeline, "parse_reply", counting)
    result = run_fun(fun, repeat_gateway(), fig1_kb3, fig1_example("kb3"))
    surfaces = [it["lf"] for it in result.iterations]
    assert surfaces[2:] == surfaces[:2]
    # The generation reply and round 2's reply; rounds 3 and 4 repeat them
    # and are not parsed again.
    assert replies == surfaces[:2]


def _fun_checking_every_round(gateway, kb, question, question_entities, cfg, prompt):
    """The repair loop as it was before suite results were reused: the suite
    runs on every round, and a strong failure sends its feedback alone while
    otherwise any weak pass admits the round and the weak failures' feedback
    is sent.  Kept here as the oracle for ``fun`` and its one feedback rule."""
    conversation = [user(prompt)]
    reply = gateway.complete(conversation)
    conversation.append(assistant(reply))
    lf = parse_reply(reply)
    candidates, iterations = [], []
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
        strong_failures = [v for v in result.verdicts if v.strength == "strong" and not v.passed]
        weak = [v for v in result.verdicts if v.strength == "weak"]
        if not strong_failures and all(v.passed for v in weak):
            record["all_pass"] = True
            return FunResult(True, lf, result.answer, candidates, iterations)
        if strong_failures:
            feedback_texts = [strong_failures[0].feedback]
        else:
            if any(v.passed for v in weak):
                record["admitted"] = True
                candidates.append(Candidate(lf, result.answer, result.back_translation, iteration))
            feedback_texts = [v.feedback for v in weak if not v.passed]
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

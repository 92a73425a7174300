import itertools
import json
import os
import random
import re
import shlex
import shutil
import socket
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

from conftest import FIXTURES
from kbqa_repair import pipeline
from kbqa_repair.cli import build_parser, main
from kbqa_repair.dataset import make_random_plan
from kbqa_repair.kb import SHAPES, load_kb, load_plan
from kbqa_repair.pipeline import build_pun_prompt
from kbqa_repair.retrieval import RetrievalCaps, retrieve_lexical
from kbqa_repair.verifiers import VerifierSuite
from test_gateway import _MockServingHandler, serve  # noqa: F401 (serve is a fixture)

FIG1 = FIXTURES / "fig1"
A13 = FIXTURES / "a13"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_kb_validate_ok(capsys):
    assert run_cli("kb", "validate", "--kb", FIG1 / "kb3") == 0
    out = capsys.readouterr().out
    assert "4 classes" in out and "13 facts" in out


def test_kb_validate_missing_path_names_it(capsys):
    assert run_cli("kb", "validate", "--kb", FIG1 / "nope") == 2
    assert "nope" in capsys.readouterr().err


def test_dataset_inject_plan_writes_kb1_byte_identical(tmp_path, capsys):
    assert run_cli(
        "dataset", "inject", "--kb", FIG1 / "kb3", "--split", _write(tmp_path, "empty.jsonl", ""),
        "--plan", FIG1 / "plan_kb1.json", "--out", tmp_path / "kb1",
    ) == 0
    produced = (tmp_path / "kb1" / "schema.json").read_bytes()
    expected = (FIG1 / "kb1" / "schema.json").read_bytes()
    assert produced == expected
    assert (tmp_path / "kb1" / "data.jsonl").read_bytes() == (FIG1 / "kb1" / "data.jsonl").read_bytes()


def test_dataset_inject_writes_a_lone_surrogate_label_as_its_escape(tmp_path, capsys):
    """A class label may hold a lone surrogate, as JSON's "\\ud800" decodes;
    the reduced KB's schema.json is written whole, with that escape, and
    reads back to the same label."""
    kb = tmp_path / "kb"
    shutil.copytree(FIG1 / "kb3", kb)
    schema = json.loads((kb / "schema.json").read_text(encoding="utf-8"))
    schema["classes"][0]["label"] = "\ud800"
    (kb / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    assert run_cli("kb", "validate", "--kb", kb) == 0
    assert run_cli(
        "dataset", "inject", "--kb", kb, "--split", FIG1 / "dataset_kb3.jsonl",
        "--plan", FIG1 / "plan_kb1.json", "--out", tmp_path / "out",
    ) == 0
    assert '"label": "\\ud800"' in (tmp_path / "out" / "schema.json").read_text(encoding="utf-8")
    reduced = load_kb(str(tmp_path / "out" / "schema.json"), str(tmp_path / "out" / "data.jsonl"))
    assert reduced.classes[schema["classes"][0]["id"]].label == "\ud800"


def test_dataset_inject_and_sample(tmp_path, capsys):
    src = tmp_path / "src.jsonl"
    src.write_text(
        json.dumps(
            {
                "question": "which books did j r hart write?",
                "linked_entities": [{"mention": "j r hart", "id": "m.0auth"}],
                "gold_lf": {
                    "dialect": "sparql",
                    "text": "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }",
                },
                "gold_answer": ["m.0b1", "m.0b2"],
                "complete_kb_answer": ["m.0b1", "m.0b2"],
                "label": "answerable",
                "category": "n/a",
            }
        )
        + "\n"
    )
    assert run_cli(
        "dataset", "inject", "--kb", FIG1 / "kb3", "--split", src,
        "--plan", FIG1 / "plan_kb1.json", "--out", tmp_path / "inj",
    ) == 0
    injected = (tmp_path / "inj" / "split.jsonl").read_text()
    assert '"label": "schema-unans"' in injected
    assert '"gold_lf": "NK"' in injected

    big = tmp_path / "big.jsonl"
    with open(big, "w") as handle:
        for i in range(4):
            handle.write(src.read_text())
        handle.write(injected)
    assert run_cli(
        "dataset", "sample", "--split", big, "--n-ans", "2", "--n-unans", "1",
        "--seed", "7", "--out", tmp_path / "shots.jsonl",
    ) == 0
    assert len((tmp_path / "shots.jsonl").read_text().splitlines()) == 3


@pytest.mark.parametrize("complete", ["NA", [], ["m.0b1", "m.0b2"], [{"literal": 5, "type": "integer"}]],
                         ids=["na", "empty", "entities", "literal"])
def test_dataset_sample_keeps_the_record(tmp_path, capsys, complete):
    record = {**json.loads((FIG1 / "dataset_kb3.jsonl").read_text()), "complete_kb_answer": complete}
    split = _write(tmp_path, "split.jsonl", json.dumps(record) + "\n")
    assert run_cli(
        "dataset", "sample", "--split", split, "--n-ans", "1", "--n-unans", "0", "--seed", "1",
        "--out", tmp_path / "out.jsonl",
    ) == 0
    assert json.loads((tmp_path / "out.jsonl").read_text()) == record


def test_dataset_inject_seed_writes_a_plan_that_reruns_byte_identical(tmp_path, capsys):
    argv = ("dataset", "inject", "--kb", FIG1 / "kb3", "--split", FIG1 / "dataset_kb3.jsonl")
    assert run_cli(*argv, "--seed", "7", "--delete-facts", "2", "--out", tmp_path / "seeded") == 0
    plan = tmp_path / "seeded" / "plan.json"
    kb = load_kb(str(FIG1 / "kb3" / "schema.json"), str(FIG1 / "kb3" / "data.jsonl"))
    assert load_plan(str(plan)) == make_random_plan(kb, 7, n_relations=1, n_entities=1, n_facts=2)
    assert json.loads(plan.read_text())["seed"] == 7
    assert run_cli(*argv, "--plan", plan, "--out", tmp_path / "planned") == 0
    for name in ("schema.json", "data.jsonl", "split.jsonl", "plan.json"):
        assert (tmp_path / "planned" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()


def test_run_writes_outcomes_and_traces(tmp_path, capsys):
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--n-iter", "3",
        "--out", tmp_path / "out",
    )
    assert code == 0
    outcome = json.loads((tmp_path / "out" / "outcomes.jsonl").read_text().strip())
    assert outcome["confident"] is True
    assert outcome["answer"] == ["m.0b1", "m.0b2"]
    trace = json.loads((tmp_path / "out" / "traces.jsonl").read_text().strip())
    assert len(trace["iterations"]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_iter"] == 3
    assert (tmp_path / "out" / "log.txt").exists()


def test_run_writes_a_lone_surrogate_in_a_reply_as_its_json_escape(tmp_path, capsys):
    """A reply may end in a lone surrogate, as JSON's "\\ud800" decodes; every
    file is still written whole, in UTF-8, and reads back to the same reply."""
    mock = json.loads((FIG1 / "mock.json").read_text())
    for item in mock:
        if item["reply"].startswith("The question we answer"):  # V3's last call
            item["reply"] += "\ud800"
    replies = {item["reply"] for item in mock}
    fixture = _write(tmp_path, "mock.json", json.dumps(mock))
    assert run_cli(
        "run", "--kb", FIG1 / "kb2", "--dataset", FIG1 / "dataset_kb2.jsonl",
        "--mock", fixture, "--n-iter", "3", "--out", tmp_path / "out",
    ) == 0
    out = tmp_path / "out"
    assert (out / "manifest.json").exists() and (out / "log.txt").exists()
    text = (out / "traces.jsonl").read_text(encoding="utf-8")
    assert "\\ud800" in text
    (trace,) = map(json.loads, text.splitlines())
    assert any(call["reply"].endswith("\ud800") for call in trace["llm"])
    assert {call["reply"] for call in trace["llm"]} <= replies


def test_run_missing_kb_path_exits_2(tmp_path, capsys):
    code = run_cli(
        "run", "--kb", tmp_path / "missing", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--out", tmp_path / "out",
    )
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_run_twice_byte_identical(tmp_path):
    for name in ("one", "two"):
        assert run_cli(
            "run", "--kb", FIG1 / "kb2", "--dataset", FIG1 / "dataset_kb2.jsonl",
            "--mock", FIG1 / "mock.json", "--n-iter", "3",
            "--out", tmp_path / name,
        ) == 0
    for filename in ("outcomes.jsonl", "traces.jsonl", "manifest.json"):
        assert (tmp_path / "one" / filename).read_bytes() == (tmp_path / "two" / filename).read_bytes()


# fig1's question and three rewordings, each linked to j r hart: on kb3 at
# --n-iter 3 the mock answers the first with the books, the second with the
# awards and the third with NK, and has no reply for the fourth's prompts.
BOOKS, AWARDS, UNKNOWN, UNSCRIPTED = (
    "which books did j r hart write?", "which awards has j r hart won?", "who is j r hart?",
    "what did j r hart write?",
)


def _kb3_run_argv(tmp_path, name, questions, workers="1"):
    """`run` on kb3 of a dataset of ``questions``, into ``tmp_path / name``."""
    record = json.loads((FIG1 / "dataset_kb3.jsonl").read_text())
    dataset = _write(tmp_path, f"{name}.jsonl",
                     "".join(json.dumps(dict(record, question=q)) + "\n" for q in questions))
    return ("run", "--kb", FIG1 / "kb3", "--dataset", dataset, "--mock", FIG1 / "mock.json",
            "--n-iter", "3", "--workers", workers, "--out", tmp_path / name)


def test_run_writes_each_question_before_the_next_starts(tmp_path, capsys, monkeypatch):
    out, seen, inner = tmp_path / "out", [], pipeline.run_question

    def run_question(*args):
        seen.append([(out / "manifest.json").exists(), not (out / "log.txt").exists()]
                    + [len((out / name).read_text().splitlines())
                       for name in ("outcomes.jsonl", "traces.jsonl")])
        return inner(*args)

    monkeypatch.setattr(pipeline, "run_question", run_question)
    assert run_cli(*_kb3_run_argv(tmp_path, "out", [BOOKS, AWARDS, UNKNOWN])) == 0
    assert seen == [[True, True, 0, 0], [True, True, 1, 1], [True, True, 2, 2]]
    assert (out / "log.txt").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_stopped_by_an_error_keeps_the_lines_before_it(tmp_path, capsys, workers):
    """The third question has no mock reply, so the run stops with exit 2.
    The two questions before it keep their lines, byte for byte those of a
    clean run over them; log.txt, written when a run finishes, is absent."""
    stopped = _kb3_run_argv(tmp_path, "stopped", [BOOKS, AWARDS, UNSCRIPTED, UNKNOWN], workers)
    assert run_cli(*stopped) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli(*_kb3_run_argv(tmp_path, "clean", [BOOKS, AWARDS], workers)) == 0
    assert (tmp_path / "stopped" / "manifest.json").exists()
    assert not (tmp_path / "stopped" / "log.txt").exists()
    for filename in ("outcomes.jsonl", "traces.jsonl"):
        lines = (tmp_path / "stopped" / filename).read_bytes()
        assert lines.count(b"\n") == 2
        assert lines == (tmp_path / "clean" / filename).read_bytes()


def test_a_run_removes_an_earlier_runs_log_and_config(tmp_path, capsys):
    """A finished run with --config, then a run without it into the same
    directory, stopped by a question the mock has no reply for: the first
    run's log.txt is gone, so nothing marks the run finished.  Neither run
    writes a config.json."""
    out, config = tmp_path / "out", _write(tmp_path, "config.json", '{"max_paths": 5}')
    assert run_cli(*_kb3_run_argv(tmp_path, "out", [BOOKS]), "--config", config) == 0
    assert (out / "log.txt").exists() and not (out / "config.json").exists()
    assert run_cli(*_kb3_run_argv(tmp_path, "out", [BOOKS, UNSCRIPTED])) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "log.txt").exists() and not (out / "config.json").exists()
    assert json.loads((out / "manifest.json").read_text())["config"] is None


def test_a_run_may_take_its_config_from_the_directory_it_writes(tmp_path, capsys):
    """A config file inside --out is read, and two runs into that directory
    neither rewrite nor remove it."""
    out = tmp_path / "out"
    out.mkdir()
    config = _write(out, "config.json", '{"max_paths": 5}')
    for _ in range(2):
        assert run_cli(*_kb3_run_argv(tmp_path, "out", [BOOKS]), "--config", config) == 0
        assert config.read_text() == '{"max_paths": 5}' and (out / "log.txt").exists()
    assert json.loads((out / "manifest.json").read_text())["config"] == str(config)


def test_run_names_each_failed_question_on_stderr(tmp_path, capsys, monkeypatch):
    """A retriever that crashes on the second of three questions: `run`
    writes every outcome, exits 1 and names the failed question on stderr by
    the index `trace show --index` takes, which shows the same error."""
    from kbqa_repair import cli

    def retriever(kb, question, linked_entities, caps):
        if question == AWARDS:
            raise RuntimeError("retriever down")
        return retrieve_lexical(kb, question, linked_entities, caps)

    monkeypatch.setattr(cli, "retrieve_lexical", retriever)
    out = tmp_path / "out"
    assert run_cli(*_kb3_run_argv(tmp_path, "out", [BOOKS, AWARDS, UNKNOWN])) == 1
    captured = capsys.readouterr()
    assert captured.err == "question 1: RuntimeError: retriever down\n"
    assert captured.out == f"wrote {out}: 3 outcomes, 1 failed\n"
    assert len((out / "outcomes.jsonl").read_text().splitlines()) == 3
    assert run_cli("trace", "show", "--trace", out / "traces.jsonl", "--index", "1") == 0
    assert "  failed: RuntimeError: retriever down" in capsys.readouterr().out.splitlines()


def test_run_files_are_the_same_for_any_worker_count_and_hash_seed(tmp_path):
    """Four questions with three distinct outcomes, one of them NK, run with
    1 and 2 workers in an interpreter for each of two hash seeds: all four
    runs write the same outcomes.jsonl and traces.jsonl, byte for byte."""
    src = str(FIXTURES.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = []
    for seed in ("0", "1"):
        argvs = [[str(a) for a in _kb3_run_argv(tmp_path, f"seed{seed}-workers{workers}",
                                                [AWARDS, BOOKS, UNKNOWN, AWARDS], workers)]
                 for workers in ("1", "2")]
        probe = "from kbqa_repair.cli import main\n" + "".join(
            f"assert main({argv!r}) == 0\n" for argv in argvs)
        subprocess.run([sys.executable, "-c", probe], env=dict(env, PYTHONHASHSEED=seed),
                       capture_output=True, check=True, timeout=60)
        outs += [Path(argv[-1]) for argv in argvs]
    files = {tuple((out / name).read_bytes() for name in ("outcomes.jsonl", "traces.jsonl"))
             for out in outs}
    assert len(outs) == 4 and len(files) == 1
    (outcomes, _), = files
    distinct = set(outcomes.splitlines())
    assert len(distinct) == 3 and json.loads(outcomes.splitlines()[2])["lf"] == "NK"


def test_eval_reports_means(tmp_path, capsys):
    assert run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--n-iter", "3",
        "--out", tmp_path / "out",
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "eval", "--kb", FIG1 / "kb3", "--pred", tmp_path / "out" / "outcomes.jsonl",
        "--gold", FIG1 / "dataset_kb3.jsonl", "--out", tmp_path / "report.json",
        "--csv", tmp_path / "records.csv",
    ) == 0
    table = capsys.readouterr().out
    assert "overall" in table and "100.0" in table
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["slices"]["overall"]["em_s"] == 1.0
    assert (tmp_path / "records.csv").read_text().startswith("index,label,category")


def test_eval_lenient_f1_never_credits_an_empty_answer(tmp_path, capsys):
    record = json.loads((FIG1 / "dataset_kb3.jsonl").read_text())
    del record["complete_kb_answer"]  # read as empty: the complete-KB answer is unknown
    gold = _write(tmp_path, "gold.jsonl", json.dumps(record) + "\n")
    pred = _write(tmp_path, "pred.jsonl", '{"lf": "NK", "answer": []}\n')
    assert run_cli("eval", "--kb", FIG1 / "kb3", "--pred", pred, "--gold", gold) == 0
    overall = capsys.readouterr().out.splitlines()[2]
    assert overall.split() == ["overall", "1", "0.0", "0.0", "0.0"]  # n, F1(R), F1(L), EM-s


def test_eval_scores_a_failed_question_as_a_miss(tmp_path, capsys, monkeypatch):
    """A run against a refused port fails its kb1 question with (NK, NA), the
    gold outcome; eval scores that line 0 on every metric all the same."""
    monkeypatch.setattr("kbqa_repair.gateway.time.sleep", lambda seconds: None)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    assert run_cli(
        "run", "--kb", FIG1 / "kb1", "--dataset", FIG1 / "dataset_kb1.jsonl",
        "--endpoint", f"http://127.0.0.1:{port}/v1", "--model", "m", "--out", tmp_path / "out",
    ) == 1
    outcome = json.loads((tmp_path / "out" / "outcomes.jsonl").read_text())
    assert (outcome["lf"], outcome["answer"]) == ("NK", "NA") and outcome["error"].startswith("timeout: ")
    capsys.readouterr()
    assert run_cli("eval", "--kb", FIG1 / "kb1", "--pred", tmp_path / "out" / "outcomes.jsonl",
                   "--gold", FIG1 / "dataset_kb1.jsonl") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["overall", "1", "0.0", "0.0", "0.0"]  # n, F1(R), F1(L), EM-s
    assert lines[-1] == "failed: 1 (each scored as a miss)"


def test_eval_length_mismatch_is_fatal(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"lf": "NK", "answer": "NA", "confident": false}\n' * 2)
    assert run_cli(
        "eval", "--kb", FIG1 / "kb3", "--pred", pred, "--gold", FIG1 / "dataset_kb3.jsonl",
    ) == 2


def test_verify_prints_verdicts(capsys):
    code = run_cli(
        "verify", "--kb", A13 / "kb",
        "--question", "what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?",
        "--lf", "SELECT DISTINCT ?x WHERE { ns:m.0123lk0s ns:music.genre.recordings ?x . "
                "?x ns:type.object.type ns:music.genre }",
        "--entity", "who m i=m.0123lk0s",
    )
    out = capsys.readouterr().out
    assert code == 1  # verdicts include a failure
    assert "V2a" in out and "FAIL" in out


def test_verify_all_pass_with_mock(capsys):
    code = run_cli(
        "verify", "--kb", A13 / "kb", "--mock", A13 / "mock.json",
        "--question", "what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?",
        "--lf", "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
                "?x ns:type.object.type ns:music.genre }",
        "--entity", "who m i=m.0123lk0s",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "V3" in out and "answer: ['m.0kgenre']" in out


def test_verify_without_backend_stops_at_v3(capsys):
    code = run_cli(
        "verify", "--kb", A13 / "kb",
        "--question", "what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?",
        "--lf", "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
                "?x ns:type.object.type ns:music.genre }",
        "--entity", "who m i=m.0123lk0s",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: V3 needs a generation backend; {NAME_A_BACKEND}\n"


def test_string_literal_json_rejects_fails_v1_in_verify_and_run(tmp_path, capsys):
    bad = 'SELECT ?x WHERE { ?x ns:book.author.works_written "\\q" }'
    assert run_cli("verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", bad) == 1
    out = capsys.readouterr().out
    assert out.startswith("V1      strong  FAIL") and "bad escape" in out
    reply = [{"match": {"kind": "substring", "text": ""}, "reply": bad}]
    mock = _write(tmp_path, "mock.json", json.dumps(reply))
    assert run_cli(*_run_argv(tmp_path, mock=mock), "--n-iter", "1") == 0
    trace = json.loads((tmp_path / "out" / "traces.jsonl").read_text())
    assert "exception" not in trace and len(trace["iterations"]) == 2  # the first query and a repair
    assert [it["verdicts"][0]["verifier"] for it in trace["iterations"]] == ["V1", "V1"]
    assert not any(it["verdicts"][0]["passed"] for it in trace["iterations"])


def test_trace_show(tmp_path, capsys):
    run_cli(
        "run", "--kb", FIG1 / "kb1", "--dataset", FIG1 / "dataset_kb1.jsonl",
        "--mock", FIG1 / "mock.json", "--n-iter", "3",
        "--out", tmp_path / "out",
    )
    capsys.readouterr()
    assert run_cli("trace", "show", "--trace", tmp_path / "out" / "traces.jsonl", "--index", "0") == 0
    shown = capsys.readouterr().out
    assert "iteration 1" in shown and "no-consensus" in shown


def test_trace_show_prints_a_lone_surrogate_as_its_escape(tmp_path, capsys):
    """A reply may end in a lone surrogate, which the run writes as the JSON
    escape "\\ud800"; `trace show` prints it as that escape, too."""
    record = json.loads((FIXTURES / "golden_runs" / "a13" / "traces.jsonl").read_text(encoding="utf-8"))
    record["iterations"][0]["lf"] += "\ud800"
    traces = _write(tmp_path, "traces.jsonl", json.dumps(record) + "\n")
    assert run_cli("trace", "show", "--trace", traces) == 0
    assert "\\ud800\n" in capsys.readouterr().out


def test_trace_show_bad_line_exits_2(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    golden = (FIXTURES / "golden_runs" / "a13" / "traces.jsonl").read_text(encoding="utf-8")
    record = json.loads(golden)
    del record["iterations"][1]["verdicts"][2]["strength"]
    for line, message in (
        ("{not json", "invalid JSON"),
        ('{"iterations": []}', "trace has no question\n"),
        ("[1]", "trace must be an object, not [1]\n"),
        (json.dumps(record), "verdict has no strength\n"),
    ):
        traces.write_text(golden + line + "\n", encoding="utf-8")
        assert run_cli("trace", "show", "--trace", traces) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line 2: {message}")
        assert captured.out == ""


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_trace_show_index_on_a_file_without_traces_exits_2(tmp_path, capsys, text):
    traces = tmp_path / "traces.jsonl"
    traces.write_text(text)
    assert run_cli("trace", "show", "--trace", traces, "--index", "0") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --index 0: {traces} has no trace records\n"
    assert captured.out == ""
    assert run_cli("trace", "show", "--trace", traces) == 0
    assert capsys.readouterr().out == ""


def test_eval_prediction_without_lf_exits_2(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"lf": "NK", "answer": "NA"}\n{"answer": "NA", "confident": false}\n')
    assert run_cli(
        "eval", "--kb", FIG1 / "kb3", "--pred", pred, "--gold", FIG1 / "dataset_kb3.jsonl",
    ) == 2
    assert capsys.readouterr().err == "error: line 2: prediction has no lf\n"


def _kb_copy(tmp_path, schema=None, data_line=None, source=FIG1 / "kb3"):
    """A fixture KB (fig1/kb3 by default) copied under tmp_path, its schema
    edited or a data line added."""
    kb = tmp_path / "kb"
    shutil.copytree(source, kb)
    if schema is not None:
        doc = json.loads((kb / "schema.json").read_text())
        schema(doc)
        (kb / "schema.json").write_text(json.dumps(doc))
    if data_line is not None:
        with open(kb / "data.jsonl", "a", encoding="utf-8", errors="surrogateescape") as handle:
            handle.write(data_line + "\n")
    return kb


def _write(tmp_path, name, text):
    """``text`` written to ``tmp_path / name`` as UTF-8; "\\udcff" is the byte 0xff."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


def _run_argv(tmp_path, dataset=FIG1 / "dataset_kb3.jsonl", mock=FIG1 / "mock.json"):
    return ("run", "--kb", FIG1 / "kb3", "--dataset", dataset, "--mock", mock,
            "--out", tmp_path / "out")


def _delete_argv(tmp_path, plan):
    """`dataset inject` of ``plan`` on kb3, with an empty split."""
    split = _write(tmp_path, "split.jsonl", "")
    return ("dataset", "inject", "--kb", FIG1 / "kb3", "--split", split,
            "--plan", plan, "--out", tmp_path / "out")


def _inject_argv(tmp_path, **change):
    """`dataset inject` on a one-question split, its record edited by ``change``."""
    record = {
        "question": "which books did j r hart write?",
        "linked_entities": [{"mention": "j r hart", "id": "m.0auth"}],
        "gold_lf": {"dialect": "sparql", "text": WORKS_WRITTEN},
        "gold_answer": ["m.0b1", "m.0b2"],
    }
    for key, value in change.items():
        if key in ("mention", "id"):
            record["linked_entities"][0][key] = value
        else:
            record[key] = value
    split = _write(tmp_path, "split.jsonl", json.dumps(record) + "\n")
    return ("dataset", "inject", "--kb", FIG1 / "kb3", "--split", split,
            "--plan", FIG1 / "plan_kb1.json", "--out", tmp_path / "out")


# Input nested deeper than a parser recurses.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_SEXPR = "(JOIN r " * 3000 + "m.x" + ")" * 3000


def _eval_argv(tmp_path, prediction):
    pred = _write(tmp_path, "pred.jsonl", json.dumps(prediction) + "\n")
    return ("eval", "--kb", FIG1 / "kb3", "--pred", pred, "--gold", FIG1 / "dataset_kb3.jsonl")


NAME_A_BACKEND = "pass --mock FIXTURE, or --endpoint URL and --model NAME"
NO_BACKEND = f"no backend named; {NAME_A_BACKEND}"

# Each entry: a builder that makes, under tmp_path, the input the program
# refuses (a file of the wrong shape or content, or a command line) and
# returns the command line, and the one line the program writes after
# "error: ", in which "{tmp}" stands for tmp_path.
MALFORMED_INPUTS = {
    "schema-relation-without-domain": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, schema=lambda doc: doc["relations"][0].pop("domain")),
    ), "relation has no domain"),
    "data-entity-classes-not-a-list": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.new", "classes": 5}'),
    ), "line 21: entity classes must be a list of strings, not 5"),
    "plan-fact-without-r": (lambda tmp: _delete_argv(
        tmp, _write(tmp, "plan.json", '{"facts": [{"s": "m.0auth", "o": {"entity": "m.0b1"}}]}'),
    ), "fact has no r"),
    "plan-is-a-list": (lambda tmp: _delete_argv(tmp, _write(tmp, "plan.json", '["book.author"]')),
                       'plan must be an object, not ["book.author"]'),
    "schema-class-id-a-list": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, schema=lambda doc: doc["classes"].append({"id": ["c"]})),
    ), 'class id must be a string, not ["c"]'),
    "data-entity-id-a-list": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": ["m.x"], "classes": []}'),
    ), 'line 21: entity id must be a string, not ["m.x"]'),
    "data-entity-classes-mixed": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.x", "classes": ["book.author", 1]}'),
    ), 'line 21: entity classes must be a list of strings, not ["book.author", 1]'),
    "data-fact-relation-a-list": (lambda tmp: (
        "kb", "validate", "--kb",
        _kb_copy(tmp, data_line='{"s": "m.0auth", "r": ["x"], "o": {"entity": "m.0b1"}}'),
    ), 'line 21: fact r must be a string, not ["x"]'),
    "data-entity-classes-a-string": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.x", "classes": "book.author"}'),
    ), 'line 21: entity classes must be a list of strings, not "book.author"'),
    "data-integer-literal-a-list": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": [1], "type": "integer"}}'
        )),
    ), "line 23: integer literal has value [1]"),
    "data-integer-literal-a-word": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": "many", "type": "integer"}}'
        )),
    ), "line 23: integer literal has value 'many'"),
    "data-float-literal-nan": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0r1", "r": "geo.river.length", "o": {"literal": NaN, "type": "float"}}'
        )),
    ), "line 23: float literal has value nan"),
    "data-float-literal-past-float": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0r1", "r": "geo.river.length", "o": {"literal": 1e400, "type": "float"}}'
        )),
    ), "line 23: float literal has value inf"),
    "data-integer-literal-past-float": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": 1%s, "type": "integer"}}'
            % ("0" * 400)
        )),
    ), "line 23: integer literal has value 1" + "0" * 76 + "..."),
    "data-integer-literal-past-digit-limit": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": 1%s, "type": "integer"}}'
            % ("0" * 5000)
        )),
    ), "line 23: invalid JSON: number too long"),
    "plan-integer-past-digit-limit": (lambda tmp: _delete_argv(
        tmp, _write(tmp, "plan.json", '{"classes": [], "limit": 1%s}' % ("0" * 5000)),
    ), "plan file {tmp}/plan.json is not JSON: number too long"),
    "data-literal-type-boolean": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": true, "type": "boolean"}}'
        )),
    ), "line 23: unknown literal datatype 'boolean'"),
    "data-record-neither-entity-nor-fact": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"label": "m.x"}'),
    ), "line 21: record is neither an entity ({id,...}) nor a fact ({s,r,o})"),
    "data-duplicate-entity": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.0auth", "classes": []}'),
    ), "duplicate entity id m.0auth"),
    "schema-duplicate-class": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, schema=lambda doc: doc["classes"].append(doc["classes"][0])),
    ), "duplicate class id award.award"),
    "schema-duplicate-relation": (lambda tmp: (
        "kb", "validate", "--kb",
        _kb_copy(tmp, schema=lambda doc: doc["relations"].append(doc["relations"][0])),
    ), "duplicate relation id book.author.awards_won"),
    "schema-class-id-empty": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, schema=lambda doc: doc["classes"].append({"id": ""})),
    ), "class with empty id"),
    "schema-relation-id-empty": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, schema=lambda doc: doc["relations"].append(
            {"id": "", "domain": "book.author", "range": "book.author"})),
    ), "relation with empty id"),
    "data-entity-id-empty": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "", "classes": ["book.author"]}'),
    ), "entity with empty id"),
    "data-line-not-an-object": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='["m.x"]'),
    ), 'line 21: data record must be an object, not ["m.x"]'),
    "data-entity-label-a-number": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.x", "label": 5}'),
    ), "line 21: entity label must be a string, not 5"),
    "data-fact-object-a-string": (lambda tmp: (
        "kb", "validate", "--kb",
        _kb_copy(tmp, data_line='{"s": "m.0auth", "r": "book.author.works_written", "o": "m.0b1"}'),
    ), 'line 21: fact o must be an object, not "m.0b1"'),
    "data-entity-object-a-number": (lambda tmp: (
        "kb", "validate", "--kb",
        _kb_copy(tmp, data_line='{"s": "m.0auth", "r": "book.author.works_written", "o": {"entity": 5}}'),
    ), 'line 21: entity object entity must be a string, not 5'),
    "data-literal-type-a-number": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, source=FIXTURES / "pairs", data_line=(
            '{"s": "m.0c1", "r": "geo.city.population", "o": {"literal": 1, "type": 5}}'
        )),
    ), "line 23: literal object type must be a string, not 5"),
    "data-nested-too-deeply": (lambda tmp: ("kb", "validate", "--kb", _kb_copy(tmp, data_line=DEEP_JSON)),
                               "line 21: invalid JSON: nested too deeply"),
    "plan-nested-too-deeply": (lambda tmp: _delete_argv(
        tmp, _write(tmp, "plan.json", '{"classes": ' + DEEP_JSON + "}"),
    ), "plan file {tmp}/plan.json is not JSON: nested too deeply"),
    "plan-entity-a-list": (lambda tmp: _delete_argv(tmp, _write(tmp, "plan.json", '{"entities": [["m.0b1"]]}')),
                           'plan entities must be a list of strings, not [["m.0b1"]]'),
    "mock-matcher-kind-regex": (lambda tmp: _run_argv(tmp, mock=_write(
        tmp, "mock.json", '[{"match": {"kind": "regex", "text": "x"}, "reply": "NK"}]',
    )), 'mock match kind must be "exact" or "substring", not "regex"'),
    "mock-not-json": (lambda tmp: _run_argv(tmp, mock=_write(tmp, "mock.json", "{not json")),
                      "mock fixture {tmp}/mock.json is not JSON: Expecting property name enclosed "
                      "in double quotes: line 1 column 2 (char 1)"),
    "dataset-gold-lf-a-string": (lambda tmp: _run_argv(tmp, dataset=_write(
        tmp, "dataset.jsonl",
        '{"question": "q?", "gold_lf": "SELECT ?x WHERE { ?x ns:r ns:m.1 }", "gold_answer": []}\n',
    )), 'line 1: dataset example gold_lf must be "NK" or an object, not '
        '"SELECT ?x WHERE { ?x ns:r ns:m.1 }"'),
    "dataset-answer-a-string": (lambda tmp: _inject_argv(tmp, gold_answer="m.0b1"),
                                'line 1: dataset example gold_answer must be "NA" or a list of '
                                'strings and objects, not "m.0b1"'),
    "dataset-answer-an-object": (lambda tmp: _inject_argv(
        tmp, complete_kb_answer={"literal": 5, "type": "integer"},
    ), 'line 1: dataset example complete_kb_answer must be "NA" or a list of strings and objects, '
       'not {"literal": 5, "type": "integer"}'),
    "dataset-linked-entity-id-a-list": (lambda tmp: _inject_argv(tmp, id=["m.0auth"]),
                                        'line 1: linked entity id must be a string, not ["m.0auth"]'),
    "dataset-mention-a-number": (lambda tmp: _inject_argv(tmp, mention=5),
                                 "line 1: linked entity mention must be a string, not 5"),
    "dataset-question-a-number": (lambda tmp: _inject_argv(tmp, question=5),
                                  "line 1: dataset example question must be a string, not 5"),
    "dataset-unknown-label": (lambda tmp: _inject_argv(tmp, label="maybe"),
                              "line 1: unknown label 'maybe'"),
    "dataset-unknown-category": (lambda tmp: _inject_argv(tmp, category="missing-everything"),
                                 "line 1: unknown category 'missing-everything'"),
    "dataset-data-unans-nk-gold": (lambda tmp: _inject_argv(
        tmp, label="data-unans", gold_lf="NK", gold_answer="NA",
    ), "line 1: data-unans example must keep a concrete gold_lf"),
    "dataset-data-unans-with-an-answer": (lambda tmp: _inject_argv(tmp, label="data-unans"),
                                          "line 1: data-unans example must have gold_answer = NA"),
    "inject-nk-gold-source": (lambda tmp: _inject_argv(tmp, gold_lf="NK"),
                              "source example 'which books did j r hart write?' has no executable "
                              "gold query"),
    "inject-plan-with-a-delete-count": (lambda tmp: (*_inject_argv(tmp), "--delete-classes", "9"),
                                        "the --delete-* counts apply only with --seed, not with --plan"),
    "sample-too-few-unanswerable": (lambda tmp: (
        "dataset", "sample", "--split", FIG1 / "dataset_kb3.jsonl", "--n-ans", "1", "--n-unans", "1",
        "--seed", "0", "--out", tmp / "out",
    ), "need 1 unanswerable examples, split has 0"),
    "prediction-answer-a-string": (lambda tmp: _eval_argv(tmp, {"lf": "NK", "answer": "m.0b1"}),
                                   'line 1: prediction answer must be "NA" or a list of strings and '
                                   'objects, not "m.0b1"'),
    "prediction-answer-an-object": (lambda tmp: _eval_argv(
        tmp, {"lf": "NK", "answer": {"literal": 5, "type": "integer"}},
    ), 'line 1: prediction answer must be "NA" or a list of strings and objects, '
       'not {"literal": 5, "type": "integer"}'),
    "mock-reply-a-number": (lambda tmp: _run_argv(tmp, mock=_write(
        tmp, "mock.json", '[{"match": {"kind": "substring", "text": ""}, "reply": 5}]',
    )), "mock matcher reply must be a string, not 5"),
    "mock-match-text-a-number": (lambda tmp: _run_argv(tmp, mock=_write(
        tmp, "mock.json", '[{"match": {"kind": "substring", "text": 5}, "reply": "NK"}]',
    )), "mock match text must be a string, not 5"),
    "run-without-mock": (lambda tmp: _run_argv(tmp)[:-4] + ("--out", tmp / "out"), NO_BACKEND),
    "run-http-without-endpoint": (lambda tmp: (
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--model", "m", "--out", tmp / "out",
    ), NO_BACKEND),
    "run-mock-with-endpoint-and-model": (lambda tmp: (
        *_run_argv(tmp), "--endpoint", "http://example.invalid/", "--model", "gpt",
    ), "--endpoint does not apply with --mock"),
    "run-mock-with-model": (lambda tmp: (*_run_argv(tmp), "--model", "gpt"),
                            "--model does not apply with --mock"),
    "config-endpoint-with-mock": (lambda tmp: (
        *_run_argv(tmp), "--config", _write(tmp, "config.json", '{"endpoint": "http://example.invalid/"}'),
    ), "config file {tmp}/config.json: unknown keys ['endpoint']"),
    "config-http-with-mock-flag": (lambda tmp: (*_run_argv(tmp), "--config", _write(
        tmp, "config.json", '{"endpoint": "http://127.0.0.1:9/v1", "model": "m"}',
    )), "config file {tmp}/config.json: unknown keys ['endpoint', 'model']"),
    "run-n-iter-zero": (lambda tmp: (*_run_argv(tmp), "--n-iter", "0"), "bad run setting: n must be >= 1"),
    "verify-model-with-mock": (lambda tmp: (
        "verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", "NK",
        "--mock", FIG1 / "mock.json", "--model", "gpt",
    ), "--model does not apply with --mock"),
    "config-backend-unknown": (lambda tmp: (
        *_run_argv(tmp), "--config", _write(tmp, "config.json", '{"backend": "mock"}'),
    ), "config file {tmp}/config.json: unknown keys ['backend']"),
    "run-endpoint-port-not-a-number": (lambda tmp: (
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--endpoint", "http://127.0.0.1:abc/v1", "--model", "m", "--out", tmp / "out",
    ), "endpoint port must be a number from 1 to 65535: 'http://127.0.0.1:abc/v1'"),
    "data-not-utf8": (lambda tmp: (
        "kb", "validate", "--kb", _kb_copy(tmp, data_line='{"id": "m.x", "label": "a\udcffb"}'),
    ), "line 21: not UTF-8: byte 0xff"),
    "schema-not-utf8": (lambda tmp: (
        "kb", "validate", "--kb", _write(_kb_copy(tmp), "schema.json", "\udcff{}").parent,
    ), "schema file {tmp}/kb/schema.json is not UTF-8: byte 0xff on line 1"),
    "plan-not-utf8": (lambda tmp: _delete_argv(tmp, _write(tmp, "plan.json", '{"classes":\r\n["\udce9"]}')),
                      "plan file {tmp}/plan.json is not UTF-8: byte 0xe9 on line 2"),
    "trace-not-utf8": (lambda tmp: ("trace", "show", "--trace", _write(
        tmp, "traces.jsonl", (FIXTURES / "golden_runs" / "a13" / "traces.jsonl").read_text() + "\udcff\n",
    )), "line 2: not UTF-8: byte 0xff"),
    "run-mock-with-auth-env": (lambda tmp: (*_run_argv(tmp), "--auth-env", "NOPE"),
                               "--auth-env does not apply with --mock"),
    "verify-auth-env-without-backend": (lambda tmp: (
        "verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", "NK", "--auth-env", "NOPE",
    ), NO_BACKEND),
    "verify-empty-auth-env-without-backend": (lambda tmp: (
        "verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", "NK", "--auth-env", "",
    ), NO_BACKEND),
    "verify-empty-mock": (lambda tmp: (
        "verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", "NK", "--mock", "",
    ), NO_BACKEND),
    "trace-show-index-out-of-range": (lambda tmp: (
        "trace", "show", "--trace", FIXTURES / "golden_runs" / "a13" / "traces.jsonl", "--index", "1",
    ), "--index 1 out of range (0..0)"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_2(tmp_path, capsys, case):
    build, message = MALFORMED_INPUTS[case]
    assert run_cli(*build(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert captured.out == ""  # stopped before printing anything
    assert not (tmp_path / "out").exists()  # or writing anything


def test_sexpr_nested_too_deeply_does_not_parse(tmp_path, capsys):
    """A prediction, a gold query and a `verify` query nested deeper than the
    parser recurses each read as a query that does not parse."""
    pred = json.loads((FIXTURES / "golden_runs" / "fig1_kb3" / "outcomes.jsonl").read_text())
    gold = json.loads((FIG1 / "dataset_kb3.jsonl").read_text())
    deep_pred = {"dialect": "sexpr", "lf": DEEP_SEXPR, "answer": pred["answer"]}
    deep_gold = {**gold, "gold_lf": {"dialect": "sexpr", "text": DEEP_SEXPR}}
    for p, g in ((deep_pred, gold), (pred, deep_gold)):
        assert run_cli(
            "eval", "--kb", FIG1 / "kb3", "--pred", _write(tmp_path, "pred.jsonl", json.dumps(p)),
            "--gold", _write(tmp_path, "gold.jsonl", json.dumps(g)), "--csv", tmp_path / "r.csv",
        ) == 0
        assert (tmp_path / "r.csv").read_text().splitlines()[1] == "0,answerable,n/a,0,1.000000,1.000000"
    assert capsys.readouterr().err == ""
    assert run_cli(
        "verify", "--kb", FIG1 / "kb3", "--question", "q?", "--dialect", "sexpr", "--lf", DEEP_SEXPR,
    ) == 1
    out = capsys.readouterr().out
    assert out.startswith("V1      strong  FAIL\n") and "Virtuoso error: expression nested too deeply" in out
    assert "Correct the syntax of the following sexpr query" in out and "\nsexpr: (JOIN r (JOIN" in out


# Each entry: a builder of a command line that argparse refuses, and the last
# line argparse writes.
ARGUMENT_ERRORS = {
    "inject-without-plan-or-seed": (
        lambda tmp: _inject_argv(tmp)[:-4] + ("--out", tmp / "out"),
        "kbqa-repair dataset inject: error: one of the arguments --plan --seed is required"),
    "inject-plan-and-seed": (
        lambda tmp: (*_inject_argv(tmp), "--seed", "4", "--delete-classes", "9"),
        "kbqa-repair dataset inject: error: argument --seed: not allowed with argument --plan"),
    "inject-negative-delete-count": (
        lambda tmp: (*_inject_argv(tmp)[:-4], "--seed", "1", "--delete-entities", "-1",
                     "--out", tmp / "out"),
        "kbqa-repair dataset inject: error: argument --delete-entities: must be a whole number, "
        "0 or more, not '-1'"),
    "sample-negative-n-ans": (lambda tmp: (
        "dataset", "sample", "--split", FIG1 / "dataset_kb3.jsonl", "--n-ans", "-1", "--n-unans", "0",
        "--seed", "0", "--out", tmp / "out",
    ), "kbqa-repair dataset sample: error: argument --n-ans: must be a whole number, 0 or more, "
       "not '-1'"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_argument_error_exits_2(tmp_path, capsys, case):
    build, message = ARGUMENT_ERRORS[case]
    with pytest.raises(SystemExit) as exited:
        run_cli(*build(tmp_path))
    assert exited.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message
    assert not (tmp_path / "out").exists()


def test_plan_fact_object_error_names_no_line(tmp_path, capsys):
    plan = _write(tmp_path, "plan.json",
                  '{"facts": [{"s": "m.0auth", "r": "book.author.works_written", "o": {"x": 1}}]}')
    assert run_cli(*_delete_argv(tmp_path, plan)) == 2
    assert capsys.readouterr().err == "error: fact object must be {entity: id} or {literal, type}\n"


def test_run_fewshots_add_each_shot_to_the_generation_prompt(tmp_path, capsys):
    shot = {"question": "who wrote the silent river?", "gold_answer": ["m.0auth"],
            "gold_lf": {"dialect": "sexpr", "text": "(JOIN book.author.works_written m.0b1)"}}
    shots = _write(tmp_path, "shots.jsonl", json.dumps(shot) + "\n")
    mock = _write(tmp_path, "mock.json", '[{"match": {"kind": "substring", "text": ""}, "reply": "NK"}]')
    prompts = []
    for name, flags in (("plain", ()), ("shots", ("--fewshots", shots))):
        assert run_cli(*_run_argv(tmp_path, mock=mock)[:-1], tmp_path / name, "--n-iter", "1", *flags) == 0
        first_call = json.loads((tmp_path / name / "traces.jsonl").read_text().splitlines()[0])["llm"][0]
        assert first_call["purpose"] == "generate"
        prompts.append(first_call["prompt"])
    plain, with_shot = prompts
    block = ("Question: who wrote the silent river?\n"
             "sparql:SELECT DISTINCT ?x WHERE { ?x ns:book.author.works_written ns:m.0b1 }\n\n")
    assert with_shot.count(block) == 1 and with_shot.replace(block, "") == plain


@pytest.mark.parametrize("gold_lf, message", [
    ({"dialect": "sparql", "text": "SELECT ?x WHERE {"}, "does not parse"),
    ({"dialect": "sexpr", "text": "(ARGMAX book.written_work book.written_work.pages)"},
     "argmax/argmin cannot be rendered"),
], ids=["unparseable", "argmax"])
def test_run_fewshot_without_a_sparql_form_exits_2(tmp_path, capsys, gold_lf, message):
    shot = {"question": "q?", "gold_lf": gold_lf, "gold_answer": []}
    shots = _write(tmp_path, "shots.jsonl", "\n" + json.dumps(shot) + "\n")
    assert run_cli(*_run_argv(tmp_path), "--fewshots", shots) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: few-shot gold query ") and message in err
    assert not (tmp_path / "out").exists()  # stopped before any question ran


# ---------------------------------------------------------------------------
# golden runs: `run` output is byte-identical to the committed snapshot,
# which `python tools/make_fixtures.py` regenerates
# ---------------------------------------------------------------------------

FIG1_RUN = ("--mock", FIG1 / "mock.json", "--n-iter", "3")
GOLDEN_RUNS = {
    "fig1_kb1": ("--kb", FIG1 / "kb1", "--dataset", FIG1 / "dataset_kb1.jsonl", *FIG1_RUN),
    "fig1_kb2": ("--kb", FIG1 / "kb2", "--dataset", FIG1 / "dataset_kb2.jsonl", *FIG1_RUN),
    "fig1_kb3": ("--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl", *FIG1_RUN),
    "a13": ("--kb", A13 / "kb", "--dataset", A13 / "dataset.jsonl", "--mock", A13 / "mock.json"),
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_run_matches_golden_snapshot(tmp_path, capsys, name):
    assert run_cli("run", *GOLDEN_RUNS[name], "--out", tmp_path) == 0
    golden = FIXTURES / "golden_runs" / name
    for filename in ("outcomes.jsonl", "traces.jsonl"):
        assert (tmp_path / filename).read_bytes() == (golden / filename).read_bytes(), filename


@pytest.mark.parametrize("seed", [0, 1])
def test_a13_run_ignores_the_order_of_its_kb_files(tmp_path, capsys, seed):
    """a13 on a KB whose data lines are shuffled and whose schema lists are
    reversed writes its golden run, byte for byte."""
    kb = tmp_path / "kb"
    kb.mkdir()
    schema = json.loads((A13 / "kb" / "schema.json").read_text(encoding="utf-8"))
    for key in ("classes", "relations"):
        schema[key].reverse()
    (kb / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    lines = (A13 / "kb" / "data.jsonl").read_text(encoding="utf-8").splitlines()
    shuffled = random.Random(seed).sample(lines, len(lines))
    assert shuffled != lines
    (kb / "data.jsonl").write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    argv = list(GOLDEN_RUNS["a13"])
    argv[argv.index("--kb") + 1] = kb
    assert run_cli("run", *argv, "--out", tmp_path / "out") == 0
    golden = FIXTURES / "golden_runs" / "a13"
    for filename in ("outcomes.jsonl", "traces.jsonl"):
        assert (tmp_path / "out" / filename).read_bytes() == (golden / filename).read_bytes(), filename


def _files(top):
    return sorted(str(path.relative_to(top)) for path in top.rglob("*") if path.is_file())


def test_make_fixtures_rewrites_no_fixture(tmp_path):
    """tools/make_fixtures.py, run on a copy of the tool, src/ and the
    tests/oracles.py it imports, with no fixtures at all, writes exactly the
    committed tree, byte for byte, so a fixture it no longer writes is caught
    as well as one it writes differently."""
    root = FIXTURES.parents[1]
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(root / "tools" / "make_fixtures.py", tmp_path / "tools")
    (tmp_path / "tests").mkdir()
    shutil.copy(root / "tests" / "oracles.py", tmp_path / "tests")
    subprocess.run([sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
                   check=True, capture_output=True, timeout=120)
    regenerated = tmp_path / "tests" / "fixtures"
    assert _files(regenerated) == _files(FIXTURES)
    for name in _files(FIXTURES):
        assert (regenerated / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# ---------------------------------------------------------------------------
# run --config
# ---------------------------------------------------------------------------

QUESTION = "which books did j r hart write?"
WORKS_WRITTEN = "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }"


def _works_written_mock(tmp_path):
    """A mock fixture that replies ``WORKS_WRITTEN`` to every prompt."""
    return _write(tmp_path, "mock.json", json.dumps(
        [{"match": {"kind": "substring", "text": ""}, "reply": WORKS_WRITTEN}]))


def run_with_config(tmp_path, config, *flags, kb="kb3"):
    """`run` on one fig1 KB with ``config`` as its config file and a mock
    that replies ``WORKS_WRITTEN`` to every prompt."""
    path = _write(tmp_path, "config.json", json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(
        "run", "--kb", FIG1 / kb, "--dataset", FIG1 / f"dataset_{kb}.jsonl",
        "--mock", _works_written_mock(tmp_path), "--config", path, *flags, "--out", out,
    ) == 0
    trace = json.loads((out / "traces.jsonl").read_text())
    return trace, json.loads((out / "manifest.json").read_text())


def verdicts(trace, verifier):
    return [v for it in trace["iterations"] for v in it["verdicts"] if v["verifier"] == verifier]


def test_run_config_mediator_classes_reach_v4a_int(tmp_path):
    plain, _ = run_with_config(tmp_path, {}, "--n-iter", "1")
    assert all(v["passed"] for v in verdicts(plain, "V4a-int"))
    mediated, _ = run_with_config(tmp_path, {"mediator_classes": ["book.written_work"]}, "--n-iter", "1")
    failed = verdicts(mediated, "V4a-int")
    assert len(failed) == 2 and not any(v["passed"] for v in failed)
    assert "intermediate type node" in failed[0]["feedback"]


def test_run_config_n_iter_and_answerable_mode_apply(tmp_path):
    trace, manifest = run_with_config(tmp_path, {}, "--n-iter", "1", "--answerable-mode", kb="kb2")
    assert manifest["n_iter"] == 1 and manifest["answerable_mode"] is True
    assert len(trace["iterations"]) == 2
    assert [(v["strength"], v["passed"]) for v in verdicts(trace, "V4b")] == [("strong", False)] * 2


@pytest.mark.parametrize("config, caps", [
    ({"max_path_len": 1}, RetrievalCaps(max_path_len=1)),
    ({"max_classes": 1, "max_paths": 1000}, RetrievalCaps(max_classes=1, max_paths=1000)),
])
def test_run_config_caps_reach_the_prompt(tmp_path, config, caps):
    kb = load_kb(str(FIG1 / "kb3" / "schema.json"), str(FIG1 / "kb3" / "data.jsonl"))
    trace, _ = run_with_config(tmp_path, config, "--n-iter", "1")
    ctx = retrieve_lexical(kb, QUESTION, [("j r hart", "m.0auth")], caps)
    assert trace["llm"][0]["prompt"] == build_pun_prompt(kb, QUESTION, ctx)


@pytest.mark.parametrize("config", [
    {"templates_dir": "prompts"}, {"max_relations": -1}, ["max_paths"], {"max_path_len": 0},
    {"max_paths": -1}, {"max_classes": -1}, {"max_path_len": 100},
])
def test_run_bad_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--config", path, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_workers_below_one_exits_2(tmp_path, capsys, workers):
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--workers", workers, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: bad run setting: workers must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"max_paths": "5"},
    {"workers": "2"},
    {"mediator_classes": "book.written_work"},
    {"mediator_classes": ["book.written_work", 3]},
    {"n_iter": True},
    {"answerable_mode": 1},
    {"mock": None},
    {"endpoint": 5},
    {"model": ["m"]},
], ids=["max_paths-string", "workers-string", "mediator_classes-string",
        "mediator_classes-number-item", "n_iter-bool", "answerable_mode-int", "mock-null",
        "endpoint-number", "model-list"])
def test_run_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, config):
    """A config value of the wrong JSON type exits 2, naming its key.  A key
    that a run flag sets instead is not a config key, whatever its value."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--config", path, "--out", tmp_path / "out",
    )
    assert code == 2
    key = next(iter(config))
    assert capsys.readouterr().err.startswith(
        f"error: config {key} must be " if f"{key}?" in SHAPES["config"]
        else f"error: config file {path}: unknown keys ['{key}']\n")
    assert not (tmp_path / "out").exists()  # stopped before any question ran


def test_auth_env_reaches_the_http_gateway_only_when_given():
    """--auth-env names the token variable; without it, HttpGateway's own
    default holds."""
    from kbqa_repair.cli import _make_gateway
    from kbqa_repair.gateway import HttpGateway

    argv = ["verify", "--kb", "k", "--question", "q?", "--lf", "NK", "--endpoint", "http://127.0.0.1:9/v1",
            "--model", "m"]
    default = HttpGateway("http://127.0.0.1:9/v1", "m").auth_env
    assert _make_gateway(build_parser().parse_args(argv)).auth_env == default
    assert _make_gateway(build_parser().parse_args(argv + ["--auth-env", "MY_TOKEN"])).auth_env == "MY_TOKEN"


def test_config_key_types_are_the_run_flag_types():
    """The config keys are the settings no run flag sets: the RetrievalCaps
    fields and mediator_classes, each typed as its dataclass field."""
    shape = {key.rstrip("?"): want for key, want in SHAPES["config"].items()}
    assert get_type_hints(VerifierSuite)["mediator_classes"] is frozenset
    # mediator_classes is a set of ids, written as a JSON list
    assert shape == {**get_type_hints(RetrievalCaps), "mediator_classes": [str]}
    args = build_parser().parse_args(["run", "--kb", "k", "--dataset", "d", "--out", "o"])
    assert not set(shape) & set(vars(args))


def test_readme_config_table_lists_the_config_keys():
    """README's Run configuration table names, in its first column, exactly
    the config keys of SHAPES."""
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run configuration\n", 1)[1].split("\n## ", 1)[0]
    first_column = re.findall(r"^\| ([^|]*) \|", section, re.M)
    assert {key for cell in first_column for key in re.findall(r"`(\w+)`", cell)} == {
        key.rstrip("?") for key in SHAPES["config"]}


def test_the_manifest_records_every_run_setting(tmp_path, capsys):
    """A mock run with few-shots and a config, and an HTTP run over an empty
    dataset: each manifest.json holds every setting of the run, except the
    name of the variable the auth token is read from."""
    config = _write(tmp_path, "config.json", '{"max_paths": 3, "mediator_classes": ["z.b", "a.b"]}')
    mock = _works_written_mock(tmp_path)
    assert run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl", "--mock", mock,
        "--fewshots", FIG1 / "dataset_kb3.jsonl", "--config", config, "--n-iter", "1",
        "--out", tmp_path / "mock",
    ) == 0
    empty = _write(tmp_path, "empty.jsonl", "")
    assert run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", empty, "--endpoint", "http://127.0.0.1:9/v1",
        "--model", "m", "--auth-env", "MY_TOKEN", "--answerable-mode", "--workers", "2",
        "--out", tmp_path / "http",
    ) == 0
    kb = {"schema": str(FIG1 / "kb3" / "schema.json"), "data": str(FIG1 / "kb3" / "data.jsonl")}
    manifests = {
        "mock": {
            "kb": kb, "dataset": str(FIG1 / "dataset_kb3.jsonl"),
            "fewshots": str(FIG1 / "dataset_kb3.jsonl"), "backend": "mock", "mock": str(mock),
            "endpoint": None, "model": None, "n_iter": 1, "answerable_mode": False,
            "mediator_classes": ["a.b", "z.b"],
            "caps": {"max_classes": 10, "max_relations": 10, "max_paths": 3, "max_path_len": 2},
            "workers": 1, "config": str(config),
        },
        "http": {
            "kb": kb, "dataset": str(empty), "fewshots": None, "backend": "http", "mock": None,
            "endpoint": "http://127.0.0.1:9/v1", "model": "m", "n_iter": 4,
            "answerable_mode": True, "mediator_classes": [],
            "caps": {"max_classes": 10, "max_relations": 10, "max_paths": 5, "max_path_len": 2},
            "workers": 2, "config": None,
        },
    }
    for name, manifest in manifests.items():
        text = (tmp_path / name / "manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the backend: --mock names the mock, --endpoint and --model the HTTP client
# ---------------------------------------------------------------------------

# Each setting that names a backend: its value, and whether it is also tried
# as a `run --config` key, which `run` refuses as unknown.  Nothing connects
# to the endpoint: no question reaches the model.
BACKEND_SETTINGS = {
    "mock": (str(FIG1 / "mock.json"), True),
    "endpoint": ("http://127.0.0.1:9/v1", True),
    "model": ("m", True),
    "auth_env": ("MY_TOKEN", False),
}
# Every way to give them: each setting absent, a flag, or a config key.
BACKEND_CASES = [
    {name: way for name, way in zip(BACKEND_SETTINGS, ways) if way}
    for ways in itertools.product(*[("", "flag", "config") if keyable else ("", "flag")
                                    for _, keyable in BACKEND_SETTINGS.values()])
]


def _named_backend(case) -> str:
    """The backend the settings in ``case`` name, or the rule they break."""
    if "mock" in case:
        return "mock" if len(case) == 1 else "does not apply with --mock"
    return "http" if "endpoint" in case and "model" in case else "no backend named"


@pytest.mark.parametrize("case", BACKEND_CASES, ids=lambda case: ",".join(
    f"{name}:{way}" for name, way in case.items()) or "none")
def test_the_settings_name_the_backend(tmp_path, capsys, case):
    """`run` over an empty dataset builds the backend its flags name, as
    its manifest shows, or exits 2 with one error line naming the rule they
    break; a config key that names a backend is an unknown key.  `verify` of
    NK, which fails V1 before any model call, does the same for the flags;
    given none, it runs without a backend."""
    flags = [arg for name, way in case.items() if way == "flag"
             for arg in (f"--{name.replace('_', '-')}", BACKEND_SETTINGS[name][0])]
    config = {name: BACKEND_SETTINGS[name][0] for name, way in case.items() if way == "config"}
    expected = f"unknown keys {sorted(config)}" if config else _named_backend(case)
    out = tmp_path / "out"
    code = run_cli("run", "--kb", FIG1 / "kb3", "--dataset", _write(tmp_path, "empty.jsonl", ""),
                   "--config", _write(tmp_path, "config.json", json.dumps(config)), *flags, "--out", out)
    captured = capsys.readouterr()
    if expected in ("mock", "http"):
        assert (code, captured.err) == (0, "")
        assert json.loads((out / "manifest.json").read_text())["backend"] == expected
    else:
        assert code == 2 and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert expected in captured.err
    if config:
        return  # verify reads no config file
    code = run_cli("verify", "--kb", FIG1 / "kb3", "--question", "q?", "--lf", "NK", *flags)
    captured = capsys.readouterr()
    if expected in ("mock", "http") or not case:
        assert (code, captured.err) == (1, "")
        assert captured.out.startswith("V1      strong  FAIL\n")
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert expected in captured.err


# ---------------------------------------------------------------------------
# trace show: where each question's LLM budget went
# ---------------------------------------------------------------------------

def test_trace_show_counts_calls_by_purpose_on_a_golden_trace(capsys):
    assert run_cli("trace", "show", "--trace", FIXTURES / "golden_runs" / "a13" / "traces.jsonl") == 0
    shown = capsys.readouterr().out.splitlines()
    assert shown[-2:] == [
        "  llm calls: 8 (generate 3, v3-naturalize 2, v3-backtranslate 2, v3-equivalence 1)",
        "  reused verifications: 0",
    ]


def test_trace_show_prints_why_a_question_failed(tmp_path, capsys):
    """A trace line of a question a backend error ended shows the error after
    its outcome; a clean line shows no `failed:` line."""
    golden = FIXTURES / "golden_runs" / "a13" / "traces.jsonl"
    clean = json.loads(golden.read_text())
    error = "auth: endpoint returned 401"
    failed = {"question": clean["question"], "linked_entities": clean["linked_entities"],
              "iterations": [], "confident": False, "scun": None, "gateway_error": error, "llm": [],
              "outcome": {"lf": "NK", "answer": "NA", "confident": False, "error": error}}
    assert run_cli("trace", "show", "--trace", _write(tmp_path, "traces.jsonl", json.dumps(failed))) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  outcome: lf='NK' answer=NA confident=False",
        f"  failed: {error}",
        "  llm calls: 0",
        "  reused verifications: 0",
    ]
    assert run_cli("trace", "show", "--trace", golden) == 0
    assert not any(line.startswith("  failed: ") for line in capsys.readouterr().out.splitlines())


def test_trace_show_counts_reused_verifications(tmp_path, capsys):
    assert run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock_repeat.json", "--n-iter", "3", "--out", tmp_path,
    ) == 0
    capsys.readouterr()
    assert run_cli("trace", "show", "--trace", tmp_path / "traces.jsonl") == 0
    shown = capsys.readouterr().out.splitlines()
    assert shown[-2:] == [
        "  llm calls: 11 (generate 4, v3-naturalize 2, v3-backtranslate 2, v3-equivalence 2, "
        "scun-select 1)",
        "  reused verifications: 2",
    ]


def _readme_commands() -> list[list[str]]:
    """Each `kbqa-repair` command in README's sh blocks, its continuation
    lines joined, as an argv."""
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("kbqa-repair ")]


def test_every_readme_command_parses(capsys):
    """Each README command names a subcommand and flags that exist."""
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n{capsys.readouterr().err}")


def test_every_readme_command_runs(serve, tmp_path, monkeypatch, capsys):
    """Each README command runs, in README's order, in a directory where each
    input placeholder names a copy of a fig1 file: DIR is kb3, src.jsonl and
    test.jsonl its dataset, and dev.jsonl holds 50 answerable and 50
    unanswerable fig1 lines.  The live run's endpoint is a local server that
    answers from fig1's mock.  A command may report a problem (exit 1), but
    none is a usage error (exit 2) and none raises."""
    shutil.copytree(FIG1, tmp_path / "tests" / "fixtures" / "fig1")
    shutil.copytree(FIG1 / "kb3", tmp_path / "DIR")
    for name in ("src.jsonl", "test.jsonl"):
        shutil.copy(FIG1 / "dataset_kb3.jsonl", tmp_path / name)
    answerable = (FIG1 / "dataset_kb3.jsonl").read_text(encoding="utf-8")
    unanswerable = (FIG1 / "dataset_kb2.jsonl").read_text(encoding="utf-8")
    (tmp_path / "dev.jsonl").write_text(answerable * 50 + unanswerable * 50, encoding="utf-8")
    url = serve(_MockServingHandler)
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands():
        if "--endpoint" in argv:
            argv[argv.index("--endpoint") + 1] = url
        code = main(argv[1:])
        assert code in (0, 1), f"{shlex.join(argv)} exited {code}\n{capsys.readouterr().err}"
    assert len((tmp_path / "shots.jsonl").read_text(encoding="utf-8").splitlines()) == 100
    assert (tmp_path / "out" / "live" / "outcomes.jsonl").read_text(encoding="utf-8")

import json

import pytest

from conftest import FIXTURES
from kbqa_repair.cli import main
from kbqa_repair.kb import load_kb
from kbqa_repair.pipeline import build_pun_prompt
from kbqa_repair.retrieval import RetrievalCaps, retrieve_lexical

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


def test_kb_delete_roundtrip(tmp_path, capsys):
    assert run_cli(
        "kb", "delete", "--kb", FIG1 / "kb3", "--plan", FIG1 / "plan_kb1.json",
        "--out", tmp_path / "kb1",
    ) == 0
    produced = (tmp_path / "kb1" / "schema.json").read_bytes()
    expected = (FIG1 / "kb1" / "schema.json").read_bytes()
    assert produced == expected
    assert (tmp_path / "kb1" / "data.jsonl").read_bytes() == (FIG1 / "kb1" / "data.jsonl").read_bytes()


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


def test_run_writes_outcomes_and_traces(tmp_path, capsys):
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--backend", "mock", "--mock", FIG1 / "mock.json", "--n-iter", "3",
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


def test_run_missing_kb_path_exits_2(tmp_path, capsys):
    code = run_cli(
        "run", "--kb", tmp_path / "missing", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--backend", "mock", "--mock", FIG1 / "mock.json", "--out", tmp_path / "out",
    )
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_run_twice_byte_identical(tmp_path):
    for name in ("one", "two"):
        assert run_cli(
            "run", "--kb", FIG1 / "kb2", "--dataset", FIG1 / "dataset_kb2.jsonl",
            "--backend", "mock", "--mock", FIG1 / "mock.json", "--n-iter", "3",
            "--out", tmp_path / name,
        ) == 0
    for filename in ("outcomes.jsonl", "traces.jsonl", "manifest.json"):
        assert (tmp_path / "one" / filename).read_bytes() == (tmp_path / "two" / filename).read_bytes()


def test_eval_reports_means(tmp_path, capsys):
    assert run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--backend", "mock", "--mock", FIG1 / "mock.json", "--n-iter", "3",
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
        "verify", "--kb", A13 / "kb", "--backend", "mock", "--mock", A13 / "mock.json",
        "--question", "what is the musical genre of the recording who m i (feat. 일리닛, new champ, myk)?",
        "--lf", "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
                "?x ns:type.object.type ns:music.genre }",
        "--entity", "who m i=m.0123lk0s",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "V3" in out and "answer: ['m.0kgenre']" in out


def test_trace_show(tmp_path, capsys):
    run_cli(
        "run", "--kb", FIG1 / "kb1", "--dataset", FIG1 / "dataset_kb1.jsonl",
        "--backend", "mock", "--mock", FIG1 / "mock.json", "--n-iter", "3",
        "--out", tmp_path / "out",
    )
    capsys.readouterr()
    assert run_cli("trace", "show", "--trace", tmp_path / "out" / "traces.jsonl", "--index", "0") == 0
    shown = capsys.readouterr().out
    assert "iteration 1" in shown and "no-consensus" in shown


def test_trace_show_bad_line_exits_2(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    traces.write_text('{"question": "q?"}\n{not json\n')
    assert run_cli("trace", "show", "--trace", traces) == 2
    assert capsys.readouterr().err.startswith("error: line 2: invalid JSON")


def test_eval_prediction_without_lf_exits_2(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"lf": "NK", "answer": "NA"}\n{"answer": "NA", "confident": false}\n')
    assert run_cli(
        "eval", "--kb", FIG1 / "kb3", "--pred", pred, "--gold", FIG1 / "dataset_kb3.jsonl",
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bad prediction record") and "'lf'" in err


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


# ---------------------------------------------------------------------------
# run --config
# ---------------------------------------------------------------------------

QUESTION = "which books did j r hart write?"
WORKS_WRITTEN = "SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }"


def run_with_config(tmp_path, config, *flags, kb="kb3"):
    """`run` on one fig1 KB with ``config`` as its config file, which names
    a mock that replies ``WORKS_WRITTEN`` to every prompt."""
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps([{"match": {"kind": "substring", "text": ""}, "reply": WORKS_WRITTEN}]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mock": str(mock), **config}))
    out = tmp_path / "out"
    assert run_cli(
        "run", "--kb", FIG1 / kb, "--dataset", FIG1 / f"dataset_{kb}.jsonl", "--config", path,
        *flags, "--out", out,
    ) == 0
    trace = json.loads((out / "traces.jsonl").read_text())
    return trace, json.loads((out / "manifest.json").read_text())


def verdicts(trace, verifier):
    return [v for it in trace["iterations"] for v in it["verdicts"] if v["verifier"] == verifier]


def test_run_config_mediator_classes_reach_v4a_int(tmp_path):
    plain, _ = run_with_config(tmp_path, {"n_iter": 1})
    assert all(v["passed"] for v in verdicts(plain, "V4a-int"))
    mediated, _ = run_with_config(tmp_path, {"n_iter": 1, "mediator_classes": ["book.written_work"]})
    failed = verdicts(mediated, "V4a-int")
    assert len(failed) == 2 and not any(v["passed"] for v in failed)
    assert "intermediate type node" in failed[0]["feedback"]


def test_run_config_n_iter_and_answerable_mode_apply(tmp_path):
    config = {"n_iter": 1, "answerable_mode": True}
    trace, manifest = run_with_config(tmp_path, config, kb="kb2")
    assert manifest["n_iter"] == 1 and manifest["answerable_mode"] is True
    assert len(trace["iterations"]) == 2
    assert [(v["strength"], v["passed"]) for v in verdicts(trace, "V4b")] == [("strong", False)] * 2


def test_run_flag_wins_over_config(tmp_path):
    trace, manifest = run_with_config(tmp_path, {"n_iter": 1}, "--n-iter", "2", kb="kb2")
    assert manifest["n_iter"] == 2
    assert len(trace["iterations"]) == 3


@pytest.mark.parametrize("config, caps", [
    ({"max_path_len": 1}, RetrievalCaps(max_path_len=1)),
    ({"max_classes": 1, "max_paths": 1000}, RetrievalCaps(max_classes=1, max_paths=1000)),
])
def test_run_config_caps_reach_the_prompt(tmp_path, config, caps):
    kb = load_kb(str(FIG1 / "kb3" / "schema.json"), str(FIG1 / "kb3" / "data.jsonl"))
    trace, _ = run_with_config(tmp_path, {"n_iter": 1, **config})
    ctx = retrieve_lexical(kb, QUESTION, [("j r hart", "m.0auth")], caps)
    assert trace["llm"][0]["prompt"] == build_pun_prompt(kb, QUESTION, ctx)


@pytest.mark.parametrize("config", [{"templates_dir": "prompts"}, {"n_iter": 0}, ["n_iter"]])
def test_run_bad_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--config", path, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config", [
    {"max_paths": "5"},
    {"workers": "2"},
    {"mediator_classes": "book.written_work"},
    {"mediator_classes": ["book.written_work", 3]},
    {"n_iter": True},
    {"answerable_mode": 1},
    {"mock": None},
], ids=["max_paths-string", "workers-string", "mediator_classes-string",
        "mediator_classes-number-item", "n_iter-bool", "answerable_mode-int", "mock-null"])
def test_run_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
        "--mock", FIG1 / "mock.json", "--config", path, "--out", tmp_path / "out",
    )
    assert code == 2
    key = next(iter(config))
    assert capsys.readouterr().err.startswith(f"error: config file {path}: {key} must be ")
    assert not (tmp_path / "out").exists()  # stopped before any question ran


def test_config_key_types_are_the_run_flag_types():
    from kbqa_repair.cli import _FLAG_KEYS, build_parser

    args = build_parser().parse_args([
        "run", "--dataset", "d", "--out", "o", "--n-iter", "3", "--answerable-mode",
        "--workers", "2", "--backend", "http", "--mock", "m", "--endpoint", "e", "--model", "x",
    ])
    assert {key: type(getattr(args, key)) for key in _FLAG_KEYS} == _FLAG_KEYS


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

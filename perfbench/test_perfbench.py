"""Tests for the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from policy import Policy, PolicyGateway
from run import check_outcomes
from spans import Tracer, self_times
from stub import Stub

from kbqa_repair import executor, pipeline, retrieval, verifiers
from kbqa_repair.dataset import DatasetSplit, inject_unanswerability, load_split
from kbqa_repair.gateway import HttpGateway
from kbqa_repair.kb import load_kb, load_plan

HERE = Path(__file__).resolve().parent
SEED = 5


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("inputs")
    gen.generate("repair", SEED, out)
    return out


@pytest.fixture(scope="module")
def loaded(inputs):
    kb = load_kb(str(inputs / "kb" / "schema.json"), str(inputs / "kb" / "data.jsonl"))
    kb2, split = inject_unanswerability(kb, load_split(str(inputs / "source.jsonl")), load_plan(str(inputs / "plan.json")))
    with open(inputs / "expected.jsonl", encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    with open(inputs / "script.json", encoding="utf-8") as handle:
        script = json.load(handle)
    return kb2, split, expected, script


def test_same_seed_same_bytes_other_seed_other_bytes(inputs, tmp_path):
    gen.generate("repair", SEED, tmp_path / "again")
    gen.generate("repair", SEED + 1, tmp_path / "other")
    assert _files(tmp_path / "again") == _files(inputs)
    other = _files(tmp_path / "other")
    assert other.keys() == _files(inputs).keys()
    assert all(other[name] != data for name, data in _files(inputs).items())


def test_gold_queries_pass_the_strong_checks_on_the_source_kb(inputs):
    kb = load_kb(str(inputs / "kb" / "schema.json"), str(inputs / "kb" / "data.jsonl"))
    for example in load_split(str(inputs / "source.jsonl")).examples:
        failure, answer = gen._first_strong_failure(kb, example.gold_lf.surface, example.question_entities())
        assert failure is None and answer, example.question


def test_policy_reaches_every_verifier_and_branch(loaded, inputs):
    kb2, split, expected, _ = loaded
    outcomes = pipeline.run_dataset(
        PolicyGateway(str(inputs / "script.json")), kb2, [retrieval.retrieve_lexical], split
    )
    assert check_outcomes(kb2, expected, outcomes) == []
    scenarios = {record["scenario"] for record in expected}
    assert scenarios == set(gen.OUTCOMES)
    failed = {
        verdict["verifier"]
        for outcome in outcomes
        for iteration in outcome.trace["iterations"]
        for verdict in iteration["verdicts"]
        if not verdict["passed"]
    }
    assert failed >= {"V1", "V2a", "V2b", "V2c", "V3", "V4a", "V4b"}
    branches = {(o.trace["scun"] or {}).get("branch") for o in outcomes}
    assert branches == {None, "non-empty-consensus", "empty-answer", "no-consensus"}
    purposes = {call["purpose"] for o in outcomes for call in o.trace["llm"]}
    assert purposes == {"generate", "v3-naturalize", "v3-backtranslate", "v3-equivalence", "scun-select"}


def test_policy_keys_generation_on_the_last_question_block(loaded):
    *_, script = loaded
    policy = Policy(script)
    question = next(iter(script["replies"]))
    prompt = f"{policy.generate_prefix}\n\nQuestion: the nk exemplar?\nsparql:NK\n\nQuestion: {question}\nsparql:"
    assert policy.reply([prompt]) == script["replies"][question][0]


def test_stub_failure_schedule_ignores_arrival_order(loaded):
    *_, script = loaded
    policy = Policy(script)
    prompts = [f"{policy.generate_prefix}\n\nQuestion: {q}\nsparql:" for q in script["replies"]]
    counts = []
    for order in (prompts, prompts[::-1]):
        stub = Stub(policy, 0.0)
        statuses = [stub.failure_for([p]) for p in order for _ in range(2)]
        counts.append((stub.counters.snapshot(), sorted(s for s in statuses if s)))
    assert counts[0] == counts[1]
    snapshot, failures = counts[0]
    assert sorted(failures) == sorted(script["flaky"].values())
    assert snapshot["attempts"] == 2 * len(prompts)


def test_stub_retries_are_exact_with_two_workers(loaded):
    kb2, split, expected, script = loaded
    flaky = set(script["flaky"])
    picked = [i for i, e in enumerate(split.examples) if e.question in flaky][:2]
    picked += [i for i in range(len(split.examples)) if i not in picked][:8]
    stub = Stub(Policy(script), 0.001)
    stub.start()
    try:
        gateway = HttpGateway(stub.url, "bench-policy", timeout=10.0)
        subset = DatasetSplit("test", tuple(split.examples[i] for i in picked))
        outcomes = pipeline.run_dataset(gateway, kb2, [retrieval.retrieve_lexical], subset, workers=2)
    finally:
        stub.close()
    counts = stub.counters.snapshot()
    assert counts["attempts"] - counts["replies"] == 2
    assert sum(counts["errors"].values()) == 2
    assert check_outcomes(kb2, [expected[i] for i in picked], outcomes) == []


def test_tracer_wraps_every_holder_and_restores_them():
    original = executor.execute
    tracer = Tracer()
    tracer.install()
    try:
        assert verifiers.execute is executor.execute is not original
        assert pipeline.run_suite is verifiers.run_suite
        assert not hasattr(retrieval.lexical_score, "__wrapped__")
    finally:
        tracer.uninstall()
    assert verifiers.execute is executor.execute is original


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("kb.leaf", lambda: None)
    root = tracer.wrap("pipeline.root", lambda: (leaf(), leaf()))
    root()
    own = self_times(tracer.spans)
    assert sorted((s.name, own[s.sid]) for s in tracer.spans) == [
        ("kb.leaf", 1.0), ("kb.leaf", 1.0), ("pipeline.root", 7.0)
    ]
    assert all(s.parent == tracer.spans[-1].sid for s in tracer.spans[:2])


def _run(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_metrics_benchmark_json_lists(trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    done = _run("--workload", "repair_mock", "--seed", "3", "--seconds", "0.5", "--trace", trace, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for metric in listed:
        assert metric["name"] in done.stdout.split("\n{")[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "repair_mock", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

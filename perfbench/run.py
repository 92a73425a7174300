"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload repair_mock --seed 1 --seconds 10 --trace 0

The run generates its inputs from the seed in a child process (``gen.py``),
sets the program up from those files several times, then drives
``pipeline.run_dataset`` in a closed loop for ``--seconds`` and checks every
outcome against the script's expectation.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics from a traced
run plus the tracing overhead.  The last line of standard output is one JSON
object; the lines before it list every metric by name and unit.  The exit
code is 1 when the correctness gate fails and 2 when the program is missing.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed;
# setup_s is the median.
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_SECONDS = 4.0
STUB_LATENCY_S = 0.003


@dataclass(frozen=True)
class Workload:
    shape: str  # generator shape in gen.py
    gateway: str  # "policy" in process, or "http" through the stub
    workers: int
    chunk: int  # questions per run_dataset call


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "repair_mock": Workload("repair", "policy", 1, 50),
    "hub_kb": Workload("hub", "policy", 1, 20),
    "http_stub": Workload("repair", "http", 2, 50),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("questions_per_s", "1/s", "higher"),
    ("question_p50_ms", "ms", "lower"),
    ("question_p90_ms", "ms", "lower"),
    ("llm_calls_per_question", "count", "lower"),
    ("llm_chars_per_question", "count", "lower"),
    ("completed_frac", "fraction", "higher"),
    ("answer_f1", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kbqa-repair benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kbqa_repair" / "__init__.py").is_file():
        return _die(f"the program's sources are missing: no {SRC / 'kbqa_repair'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return Bench(WORKLOADS[args.workload], args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Bench:
    def __init__(self, workload: Workload, args, work: Path):
        self.wl = workload
        self.args = args
        self.work = work
        self.stub = None
        self.state = None

    # -- inputs and set-up --------------------------------------------------

    def generate(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--shape", self.wl.shape,
             "--seed", str(self.args.seed), "--out", str(self.work)],
            check=True, env=env, stdout=subprocess.DEVNULL, timeout=170,
        )

    def set_up(self):
        """The program's own set-up: load, inject, load the split, build the gateway."""
        from kbqa_repair import dataset, gateway, kb
        from policy import PolicyGateway

        w = self.work
        started = time.perf_counter()
        source_kb = kb.load_kb(str(w / "kb" / "schema.json"), str(w / "kb" / "data.jsonl"))
        source = dataset.load_split(str(w / "source.jsonl"))
        plan = kb.load_plan(str(w / "plan.json"))
        kb2, split = dataset.inject_unanswerability(source_kb, source, plan)
        if self.wl.gateway == "http":
            gw = gateway.HttpGateway(self.stub.url, "bench-policy", timeout=30.0)
        else:
            gw = PolicyGateway(str(w / "script.json"))
        return time.perf_counter() - started, (kb2, split, gw)

    def start_stub(self) -> None:
        from policy import Policy
        from stub import Stub

        os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        self.stub = Stub(Policy.from_file(str(self.work / "script.json")), STUB_LATENCY_S)
        self.stub.start()

    # -- the closed loop ----------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> "Phase":
        """Drive run_dataset over whole passes of the split, chunk by chunk,
        until ``seconds`` have passed.  Whole passes keep the question mix of
        every run the same.  One untimed chunk runs first, so lazy imports
        and first-call costs stay out of the numbers."""
        from kbqa_repair import pipeline, retrieval
        from kbqa_repair.dataset import DatasetSplit
        from kbqa_repair.query import LogicalForm

        kb2, split, gw = self.state
        examples = split.examples
        index_of = {id(e): i for i, e in enumerate(examples)}
        phase = Phase(len(examples), keep_all=tracer is not None)
        inner = pipeline.run_question

        def guarded(gateway, kb, retrievers, example, *rest, **kwargs):
            index = index_of[id(example)]
            if tracer is not None:
                tracer.set_question(index)
            started = time.perf_counter()
            try:
                outcome = inner(gateway, kb, retrievers, example, *rest, **kwargs)
            except Exception as err:  # escaped run_question: count it, keep going
                trace = {"question": example.question, "escaped": repr(err)}
                outcome = pipeline.PipelineOutcome(LogicalForm.nk(), None, False, trace, f"escaped: {err!r}")
            phase.record(index, time.perf_counter() - started, outcome)
            if tracer is not None:
                tracer.set_question(None)
            return outcome

        cfg = pipeline.FunConfig()  # n=4 repair rounds, the paper's default
        retrievers = [retrieval.retrieve_lexical]
        warm_up = DatasetSplit(split.name, examples[: self.wl.chunk])
        pipeline.run_dataset(gw, kb2, retrievers, warm_up, cfg, (), workers=self.wl.workers)
        if self.stub is not None:
            self.stub.reset_counters()
        pipeline.run_question = guarded
        try:
            started = time.perf_counter()
            while True:
                for position in range(0, len(examples), self.wl.chunk):
                    chunk = DatasetSplit(split.name, examples[position : position + self.wl.chunk])
                    before = time.perf_counter()
                    pipeline.run_dataset(gw, kb2, retrievers, chunk, cfg, (), workers=self.wl.workers)
                    phase.wall += time.perf_counter() - before
                    phase.flush()
                phase.end_pass()
                if time.perf_counter() - started >= seconds:
                    break
        finally:
            pipeline.run_question = inner
        if self.stub is not None:
            phase.stub = self.stub.counters.snapshot()
        return phase

    # -- checks -------------------------------------------------------------

    def check(self, phase: "Phase") -> list[str]:
        with open(self.work / "expected.jsonl", encoding="utf-8") as handle:
            expected = [json.loads(line) for line in handle]
        return check_outcomes(self.state[0], expected, phase.first, phase.digests)

    # -- the run ------------------------------------------------------------

    def run(self) -> int:
        self.generate()
        if self.wl.gateway == "http":
            self.start_stub()
        try:
            if self.args.trace:
                return self.run_traced()
            return self.run_plain()
        finally:
            if self.stub is not None:
                self.stub.close()

    def run_plain(self) -> int:
        from spans import percentile

        setups = []
        while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
            self.state = None
            gc.collect()
            seconds, self.state = self.set_up()
            setups.append(seconds)
        phase = self.measure(self.args.seconds)
        problems = self.check(phase)
        metrics = {
            "setup_s": statistics.median(setups),
            "questions_per_s": phase.questions_per_s(),
            "question_p50_ms": 1000.0 * percentile(phase.per_question_seconds(), 0.5),
            "question_p90_ms": 1000.0 * percentile(phase.per_question_seconds(), 0.9),
            "llm_calls_per_question": phase.mean_over_first(lambda t: len(t.get("llm", ()))),
            "llm_chars_per_question": phase.mean_over_first(
                lambda t: sum(len(c["prompt"]) + len(c["reply"]) for c in t.get("llm", ()))
            ),
            "completed_frac": 1.0 - phase.failed / phase.done,
            "answer_f1": self.answer_f1(phase),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, unit, better in END_TO_END:
            print(f"{name:<24} {metrics[name]:>14.6g} {unit:<8} ({better} is better)")
        print(f"{'failed_frac':<24} {phase.failed / phase.done:>14.6g} {'fraction':<8} (lower is better)")
        print(f"samples: {phase.done} question runs over {len(phase.first)} questions, "
              f"{len(setups)} set-ups, {len(phase.pass_rates)} passes, "
              f"{phase.wall:.3f} s in run_dataset; latency percentiles over {len(phase.first)} questions")
        return self.finish(problems, phase, {k: (v, units[k]) for k, v in metrics.items()})

    def run_traced(self) -> int:
        from spans import Tracer, question_metrics, setup_metrics

        tracer = Tracer()
        tracer.install()
        try:
            _, self.state = self.set_up()
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        half = self.args.seconds / 2
        plain = self.measure(half)
        tracer.spans.clear()
        gw = self.state[2]
        tracer.install()
        tracer.wrap_method(gw, "complete", "gateway.wait")
        try:
            traced = self.measure(half, tracer)
        finally:
            tracer.uninstall()
            del gw.complete
        problems = self.check(plain) + self.check(traced)
        for index, digests in enumerate(traced.digests):
            if digests != plain.digests[index]:
                problems.append(f"question {index}: traced outcome differs from the plain one")
        layer = setup_metrics(setup_spans)
        layer.update(question_metrics(tracer.spans, traced.outcomes))
        layer.update(stub_metrics(traced))
        plain_qps, traced_qps = plain.questions_per_s(), traced.questions_per_s()
        layer["trace.plain_questions_per_s"] = plain_qps
        layer["trace.traced_questions_per_s"] = traced_qps
        layer["trace.overhead_frac"] = plain_qps / traced_qps - 1.0
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name:<48} {value:>14.6g} {unit}")
        print(f"samples: {traced.done} traced and {plain.done} plain question runs, "
              f"{len(tracer.spans)} spans")
        return self.finish(problems, traced, metrics, extra=plain)

    def answer_f1(self, phase: "Phase") -> float:
        from kbqa_repair.metrics import evaluate

        kb2, split, _ = self.state
        records = evaluate([(o.lf, o.answer) for o in phase.first], list(split.examples), kb2)
        return sum(r.f1_r for r in records) / len(records)

    def finish(self, problems: list[str], phase: "Phase", metrics: dict, extra: "Phase | None" = None) -> int:
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        attempted = phase.done + (extra.done if extra else 0)
        failed = phase.failed + (extra.failed if extra else 0)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if not problems else 1


def check_outcomes(kb2, expected: list[dict], outcomes: list, digests: list[set] | None = None) -> list[str]:
    """Outcomes against the script's expectations; returns the problems.

    Each outcome must end in the scripted query (or NK), confidence and
    consensus branch, with the answer that query has on the injected KB.
    ``digests``, when given, must hold a single outcome digest per question.
    """
    from kbqa_repair.executor import execute
    from kbqa_repair.query import parse_sparql

    problems = []
    for index, (want, outcome) in enumerate(zip(expected, outcomes)):
        if digests is not None and len(digests[index]) != 1:
            problems.append(f"question {index}: outcome differs between repeats")
        if outcome.error:
            problems.append(f"question {index}: {outcome.error}")
            continue
        branch = (outcome.trace.get("scun") or {}).get("branch")
        got_lf = outcome.trace["outcome"]["lf"]
        answer = None if want["answer"] == "NA" else execute(kb2, parse_sparql(want["lf"]))
        if (got_lf, outcome.confident, branch, outcome.answer) != (
            want["lf"], want["confident"], want["branch"], answer
        ):
            problems.append(
                f"question {index} ({want['scenario']}): got lf={got_lf!r} "
                f"confident={outcome.confident} branch={branch}, expected {want}"
            )
    return problems


class Phase:
    """What one measured loop saw: timings, outcome digests, failures."""

    def __init__(self, n_questions: int, keep_all: bool):
        self.lock = threading.Lock()
        self.durations: list[list[float]] = [[] for _ in range(n_questions)]
        self.pass_rates: list[float] = []
        self._pass_start = (0, 0.0)  # (done, wall) when the current pass began
        self.first: list = [None] * n_questions
        self.digests: list[set[str]] = [set() for _ in range(n_questions)]
        self.keep_all = keep_all
        self.outcomes: list = []  # every outcome in run order, when keep_all
        self.pending: list[tuple[int, object]] = []
        self.done = 0
        self.failed = 0
        self.wall = 0.0
        self.stub = {"attempts": 0, "replies": 0, "errors": {}}  # what the HTTP stub counted

    def record(self, index: int, seconds: float, outcome) -> None:
        with self.lock:
            self.durations[index].append(seconds)
            self.pending.append((index, outcome))

    def flush(self) -> None:
        """Digest the outcomes recorded since the last flush, outside the timed region."""
        for index, outcome in self.pending:
            digest = hashlib.sha256(
                json.dumps([outcome.trace, outcome.error], sort_keys=True, default=str).encode()
            ).hexdigest()
            if self.first[index] is None:
                self.first[index] = outcome
            self.digests[index].add(digest)
            if self.keep_all:
                self.outcomes.append(outcome)
            self.done += 1
            self.failed += outcome.error is not None
        self.pending.clear()

    def end_pass(self) -> None:
        done, wall = self._pass_start
        self.pass_rates.append((self.done - done) / (self.wall - wall))
        self._pass_start = (self.done, self.wall)

    # On a shared machine the program's speed drifts by a fifth within a
    # minute, and slow stretches measure the neighbours.  The fastest pass,
    # and each question's fastest repeat, measure the program: over ten runs
    # their spread was a quarter to a third of the median's.

    def questions_per_s(self) -> float:
        """Questions completed per second of run_dataset in the fastest whole pass."""
        return max(self.pass_rates)

    def per_question_seconds(self) -> list[float]:
        """Each question's fastest repeat: one sample per question."""
        return [min(times) for times in self.durations]

    def mean_over_first(self, measure) -> float:
        return sum(measure(o.trace) for o in self.first) / len(self.first)


def stub_metrics(phase: Phase) -> dict[str, float]:
    """Retries and failed attempts per question run, as the stub counted them,
    and errors that reached a question's outcome."""
    stub = phase.stub
    return {
        "gateway.retries_per_question": (stub["attempts"] - stub["replies"]) / phase.done,
        "gateway.errors_per_question.http-503": stub["errors"].get(503, 0) / phase.done,
        "gateway.errors_per_question.http-429": stub["errors"].get(429, 0) / phase.done,
        "gateway.errors_per_question.raised": phase.failed / phase.done,
    }


def layer_unit(name: str) -> str:
    if "_ms" in name or ".ms." in name:
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "frac" in name or name.startswith(("share.", "pipeline.scun_branch.")) or "per_enumerated" in name:
        return "fraction"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())

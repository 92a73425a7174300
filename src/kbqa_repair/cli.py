"""Command-line entry points.

Subcommands: kb validate, dataset inject|sample, run, eval, verify,
trace.  Output files written by `run` and `eval` carry no timestamps (those
are quarantined to log.txt) so reruns against the mock backend are
byte-identical.  Exit codes: 0 success, 1 per-item failures present, 2 an
input the command cannot use (a FormatError) or a backend that fails it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from . import dataset as ds
from . import kb as kbmod
from . import metrics, pipeline
from .gateway import GatewayError, HttpGateway, MockGateway, MockMiss
from .query import LogicalForm, UnsupportedQuery
from .retrieval import RetrievalCaps, retrieve_lexical
from .verifiers import VerifierSuite, run_suite


def _kb_paths(args) -> tuple[str, str]:
    base = Path(args.kb)
    return str(base / "schema.json"), str(base / "data.jsonl")


def _load_kb(args) -> kbmod.KnowledgeBase:
    return kbmod.load_kb(*_kb_paths(args))


# The flags that name a backend: --mock names the mock, the others the HTTP
# client.
_BACKEND_SETTINGS = ("mock", "endpoint", "model", "auth_env")
_NAME_A_BACKEND = "pass --mock FIXTURE, or --endpoint URL and --model NAME"


def _make_gateway(args):
    """The backend the settings name: the mock for ``--mock``, or the HTTP
    client for ``--endpoint`` and ``--model``."""
    for name in _BACKEND_SETTINGS[1:]:
        if args.mock is not None and getattr(args, name) is not None:
            raise kbmod.FormatError(f"--{name.replace('_', '-')} does not apply with --mock")
    if args.mock:
        return MockGateway.from_file(args.mock)
    if not args.endpoint or not args.model:
        raise kbmod.FormatError(f"no backend named; {_NAME_A_BACKEND}")
    options = {} if args.auth_env is None else {"auth_env": args.auth_env}
    try:
        return HttpGateway(args.endpoint, args.model, **options)
    except ValueError as err:
        raise kbmod.FormatError(str(err)) from err


# ---------------------------------------------------------------------------
# kb
# ---------------------------------------------------------------------------

def cmd_kb_validate(args) -> int:
    kb = _load_kb(args)
    print(f"OK: {len(kb.classes)} classes, {len(kb.relations)} relations, "
          f"{len(kb.entities)} entities, {len(kb.facts)} facts")
    return 0


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

# make_random_plan's counts, each set by --delete-<what> and defaulted there.
_DELETE_COUNTS = ("n_classes", "n_relations", "n_entities", "n_facts")


def cmd_dataset_inject(args) -> int:
    counts = {key: getattr(args, key) for key in _DELETE_COUNTS if getattr(args, key) is not None}
    if args.plan is not None and counts:
        raise kbmod.FormatError("the --delete-* counts apply only with --seed, not with --plan")
    kb = _load_kb(args)
    split = ds.load_split(args.split)
    if args.plan is None:
        plan = ds.make_random_plan(kb, args.seed, **counts)
    else:
        plan = kbmod.load_plan(args.plan)
    kb2, split2 = ds.inject_unanswerability(kb, split, plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kbmod.save_kb(kb2, str(out / "schema.json"), str(out / "data.jsonl"))
    ds.save_split(split2, str(out / "split.jsonl"))
    kbmod.save_plan(plan, str(out / "plan.json"))
    labels = Counter(example.label for example in split2.examples)
    print(f"wrote {out}: " + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())))
    return 0


def cmd_dataset_sample(args) -> int:
    split = ds.load_split(args.split)
    sample = ds.sample_fewshots(split, args.n_ans, args.n_unans, args.seed)
    ds.save_split(sample, args.out)
    print(f"wrote {args.out}: {len(sample.examples)} examples")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_CAPS_KEYS = tuple(field.name for field in fields(RetrievalCaps))
_CONFIG_KEYS = {key.rstrip("?") for key in kbmod.SHAPES["config"]}


def _run_config(args) -> pipeline.FunConfig:
    """The flags, and the ``--config`` keys of the settings no flag sets;
    what neither sets keeps its default."""
    config = {}
    if args.config:
        config = kbmod.check(kbmod.read_json(args.config, "config file"), "config")
        unknown = sorted(set(config) - _CONFIG_KEYS)
        if unknown:
            raise kbmod.FormatError(f"config file {args.config}: unknown keys {unknown}")
    try:
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        return pipeline.FunConfig(
            n=args.n_iter, answerable_mode=args.answerable_mode,
            caps=RetrievalCaps(**{key: config[key] for key in _CAPS_KEYS if key in config}),
            mediator_classes=frozenset(config.get("mediator_classes", ())),
        )
    except ValueError as err:
        raise kbmod.FormatError(f"bad run setting: {err}") from err


def cmd_run(args) -> int:
    cfg = _run_config(args)
    kb = _load_kb(args)
    split = ds.load_split(args.dataset)
    gateway = _make_gateway(args)
    fewshots = []
    if args.fewshots:
        for lineno, record in kbmod.read_jsonl(args.fewshots):
            shot = ds.record_to_example(record, lineno)
            try:
                pipeline.fewshot_lf_text(shot.gold_lf)
            except (ValueError, UnsupportedQuery) as err:
                raise kbmod.FormatError(
                    f"few-shot gold query {shot.gold_lf.surface!r}: {err}", lineno
                ) from err
            fewshots.append(shot)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # An earlier run's log.txt goes, so a missing log.txt marks a stopped run.
    (out / "log.txt").unlink(missing_ok=True)
    manifest = {
        "kb": dict(zip(("schema", "data"), _kb_paths(args))),
        "dataset": args.dataset,
        "fewshots": args.fewshots,
        "backend": "mock" if args.mock else "http",
        "mock": args.mock,
        "endpoint": args.endpoint,
        "model": args.model,
        "n_iter": cfg.n,
        "answerable_mode": cfg.answerable_mode,
        "mediator_classes": sorted(cfg.mediator_classes),
        "caps": asdict(cfg.caps),
        "workers": args.workers,
        "config": args.config,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    started, failures = time.time(), 0
    outcomes = pipeline.iter_outcomes(
        gateway, kb, [retrieve_lexical], split, cfg, tuple(fewshots), workers=args.workers
    )
    with (kbmod.jsonl_writer(out / "outcomes.jsonl") as write_outcomes,
          kbmod.jsonl_writer(out / "traces.jsonl") as write_traces, contextlib.closing(outcomes)):
        for index, outcome in enumerate(outcomes):
            write_outcomes([outcome.trace["outcome"]])
            write_traces([outcome.trace])
            if outcome.error:
                failures += 1
                print(f"question {index}: {outcome.error}", file=sys.stderr)
    elapsed = time.time() - started
    with open(out / "log.txt", "w", encoding="utf-8") as handle:
        handle.write(f"started: {time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(started))}Z\n")
        handle.write(f"elapsed_seconds: {elapsed:.3f}\n")

    print(f"wrote {out}: {len(split.examples)} outcomes, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_predictions(path: str) -> tuple[list[tuple[LogicalForm, frozenset | None]], frozenset[int]]:
    """The predictions in ``path``, and the indices of the failed ones: the
    lines that carry ``error``."""
    predictions, failed = [], set()
    for lineno, record in kbmod.read_jsonl(path):
        kbmod.check(record, "prediction", lineno)
        if "error" in record:
            failed.add(len(predictions))
        lf = LogicalForm.from_text(record.get("dialect", "sparql"), record["lf"])
        predictions.append((lf, ds.answer_from_json(record["answer"], lineno)))
    return predictions, frozenset(failed)


def cmd_eval(args) -> int:
    kb = _load_kb(args)
    gold = ds.load_split(args.gold)
    predictions, failed = _load_predictions(args.pred)
    if len(predictions) != len(gold.examples):
        raise kbmod.FormatError(
            f"{args.pred} has {len(predictions)} predictions, {args.gold} has "
            f"{len(gold.examples)} examples"
        )
    records = metrics.evaluate(predictions, list(gold.examples), kb, failed)
    report = metrics.aggregate(records)
    print(metrics.render_table(report))
    print(f"failed: {len(failed)} (each scored as a miss)")
    if args.out:
        metrics.save_report(report, args.out)
    if args.csv:
        metrics.save_records_csv(records, args.csv)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    kb = _load_kb(args)
    lf = LogicalForm.from_text(args.dialect, args.lf)
    entities = []
    for item in args.entity or []:
        mention, _, eid = item.partition("=")
        entities.append((mention, eid if eid else mention))
    suite = VerifierSuite(answerable_mode=args.answerable_mode)
    named = any(getattr(args, name) is not None for name in _BACKEND_SETTINGS)
    gateway = _make_gateway(args) if named else _NoBackend()
    question_entities = frozenset(eid for _, eid in entities)
    result = run_suite(lf, args.question, question_entities, kb, gateway, suite)
    for verdict in result.verdicts:
        status = "pass" if verdict.passed else "FAIL"
        print(f"{verdict.verifier_id:<8}{verdict.strength:<8}{status}")
        if verdict.feedback:
            print(f"    {verdict.feedback}")
    if result.answer is not None:
        print(f"answer: {ds.answer_to_json(result.answer)}")
    return 0 if all(v.passed for v in result.verdicts) else 1


class _NoBackend:
    """The gateway of a `verify` run without a backend: V3 is its only caller."""

    def complete(self, conversation, purpose="generate"):
        raise kbmod.FormatError(f"V3 needs a generation backend; {_NAME_A_BACKEND}")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def _trace_lines(trace, line: int) -> list[str]:
    """What `trace show` prints for the trace record on ``line``."""
    kbmod.check(trace, "trace", line)
    lines = [f"question: {trace['question']}"]
    for it in trace["iterations"]:
        kbmod.check(it, "iteration", line)
        lines.append(f"  iteration {it['iteration']}: {it['lf']}")
        for v in it["verdicts"]:
            kbmod.check(v, "verdict", line)
            mark = "pass" if v["passed"] else "FAIL"
            lines.append(f"    {v['verifier']:<8}{v['strength']:<8}{mark}")
        if it["answer"] is not None:
            lines.append(f"    answer: {it['answer']}")
    if trace["scun"]:
        lines.append(f"  consensus: {trace['scun']}")
    outcome = kbmod.check(trace["outcome"], "outcome", line)
    lines.append(f"  outcome: lf={outcome['lf']!r} answer={outcome['answer']} "
                 f"confident={outcome['confident']}")
    if "error" in outcome:
        lines.append(f"  failed: {outcome['error']}")
    calls = Counter(kbmod.check(call, "llm call", line)["purpose"] for call in trace["llm"])
    by_purpose = ", ".join(f"{purpose} {count}" for purpose, count in calls.items())
    lines.append(f"  llm calls: {sum(calls.values())}" + (f" ({by_purpose})" if calls else ""))
    surfaces = [it["lf"] for it in trace["iterations"]]
    lines.append(f"  reused verifications: {len(surfaces) - len(set(surfaces))}")
    return lines


def cmd_trace_show(args) -> int:
    traces = list(kbmod.read_jsonl(args.trace))
    if args.index is not None:
        if not traces:
            raise kbmod.FormatError(f"--index {args.index}: {args.trace} has no trace records")
        if not 0 <= args.index < len(traces):
            raise kbmod.FormatError(f"--index {args.index} out of range (0..{len(traces) - 1})")
        traces = [traces[args.index]]
    lines = [text for lineno, trace in traces for text in _trace_lines(trace, lineno)]
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_kb_flags(parser) -> None:
    parser.add_argument("--kb", required=True, help="directory containing schema.json and data.jsonl")


def _add_backend_flags(parser) -> None:
    parser.add_argument("--mock", help="mock fixture JSON file")
    parser.add_argument("--endpoint", help="chat-completion endpoint URL")
    parser.add_argument("--model", help="model name for the http backend")
    parser.add_argument("--auth-env", help="environment variable holding the http backend's auth token")


def _count(text: str) -> int:
    """The value of a count flag: a whole number, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a whole number, 0 or more, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbqa-repair")
    sub = parser.add_subparsers(dest="command", required=True)

    kb_parser = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = kb_parser.add_subparsers(dest="kb_command", required=True)
    p = kb_sub.add_parser("validate", help="load a KB and check every invariant")
    _add_kb_flags(p)
    p.set_defaults(func=cmd_kb_validate)

    ds_parser = sub.add_parser("dataset", help="dataset utilities")
    ds_sub = ds_parser.add_subparsers(dest="dataset_command", required=True)
    p = ds_sub.add_parser("inject", help="inject unanswerability by KB deletion")
    _add_kb_flags(p)
    p.add_argument("--split", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--plan", help="deletion plan JSON file")
    source.add_argument("--seed", type=int, help="seed of a random deletion plan")
    for key in _DELETE_COUNTS:
        p.add_argument(f"--delete-{key[2:]}", dest=key, type=_count, metavar="N",
                       help=f"how many {key[2:]} the --seed plan deletes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset_inject)
    p = ds_sub.add_parser("sample", help="stratified few-shot sampling")
    p.add_argument("--split", required=True)
    p.add_argument("--n-ans", type=_count, required=True)
    p.add_argument("--n-unans", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset_sample)

    p = sub.add_parser("run", help="run the pipeline over a dataset")
    _add_kb_flags(p)
    _add_backend_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--fewshots", help="few-shot split JSON Lines file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n-iter", type=int, default=pipeline.FunConfig.n)
    p.add_argument("--answerable-mode", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score predictions against gold")
    _add_kb_flags(p)
    p.add_argument("--pred", required=True, help="outcomes.jsonl from run")
    p.add_argument("--gold", required=True, help="gold split JSON Lines file")
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--csv", help="per-example records CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="verdicts for one (question, lf) pair")
    _add_kb_flags(p)
    _add_backend_flags(p)
    p.add_argument("--question", required=True)
    p.add_argument("--lf", required=True)
    p.add_argument("--dialect", choices=("sparql", "sexpr"), default="sparql")
    p.add_argument("--entity", action="append", help="mention=entity_id, repeatable")
    p.add_argument("--answerable-mode", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="inspect trace files")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser("show", help="pretty-print traces")
    p.add_argument("--trace", required=True)
    p.add_argument("--index", type=int)
    p.set_defaults(func=cmd_trace_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):  # a lone surrogate prints as its escape
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (kbmod.FormatError, GatewayError, MockMiss, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

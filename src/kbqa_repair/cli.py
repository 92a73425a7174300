"""Command-line entry points.

Subcommands: kb validate|delete, dataset inject|sample, run, eval, verify,
trace.  Output files written by `run` and `eval` carry no timestamps (those
are quarantined to log.txt) so reruns against the mock backend are
byte-identical.  Exit codes: 0 success, 1 per-item failures present, 2 fatal
configuration error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import get_type_hints

from . import dataset as ds
from . import kb as kbmod
from . import metrics, pipeline
from .gateway import GatewayError, HttpGateway, MockGateway, MockMiss
from .query import LogicalForm
from .retrieval import RetrievalCaps, retrieve_lexical
from .verifiers import VerifierSuite, run_suite


class FatalError(Exception):
    pass


def _kb_paths(args) -> tuple[str, str]:
    if getattr(args, "kb", None):
        base = Path(args.kb)
        schema, data = base / "schema.json", base / "data.jsonl"
        if not schema.exists():
            raise FatalError(f"KB schema file not found: {schema}")
        if not data.exists():
            raise FatalError(f"KB data file not found: {data}")
        return str(schema), str(data)
    if not getattr(args, "schema", None) or not getattr(args, "data", None):
        raise FatalError("provide --kb DIR or both --schema and --data")
    for path in (args.schema, args.data):
        if not Path(path).exists():
            raise FatalError(f"file not found: {path}")
    return args.schema, args.data


def _load_kb(args) -> kbmod.KnowledgeBase:
    schema, data = _kb_paths(args)
    return kbmod.load_kb(schema, data)


def _make_gateway(args):
    backend = getattr(args, "backend", None) or "mock"
    if backend == "mock":
        if not getattr(args, "mock", None):
            raise FatalError("--backend mock requires --mock FIXTURE")
        if not Path(args.mock).exists():
            raise FatalError(f"mock fixture not found: {args.mock}")
        return MockGateway.from_file(args.mock)
    if backend == "http":
        if not getattr(args, "endpoint", None) or not getattr(args, "model", None):
            raise FatalError("--backend http requires --endpoint and --model")
        try:
            return HttpGateway(args.endpoint, args.model, auth_env=args.auth_env)
        except ValueError as err:
            raise FatalError(str(err)) from err
    raise FatalError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# kb
# ---------------------------------------------------------------------------

def cmd_kb_validate(args) -> int:
    kb = _load_kb(args)
    print(
        f"OK: {len(kb.classes)} classes, {len(kb.relations)} relations, "
        f"{len(kb.entities)} entities, {len(kb.facts)} facts"
    )
    return 0


def cmd_kb_delete(args) -> int:
    kb = _load_kb(args)
    if not Path(args.plan).exists():
        raise FatalError(f"plan file not found: {args.plan}")
    plan = kbmod.load_plan(args.plan)
    kbmod.validate_plan(kb, plan)
    kb2 = kbmod.delete_elements(kb, plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kbmod.save_kb(kb2, str(out / "schema.json"), str(out / "data.jsonl"))
    print(
        f"wrote {out}: {len(kb2.classes)} classes, {len(kb2.relations)} relations, "
        f"{len(kb2.entities)} entities, {len(kb2.facts)} facts"
    )
    return 0


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

def cmd_dataset_inject(args) -> int:
    kb = _load_kb(args)
    if not Path(args.split).exists():
        raise FatalError(f"split file not found: {args.split}")
    split = ds.load_split(args.split)
    if args.plan:
        plan = kbmod.load_plan(args.plan)
    elif args.seed is not None:
        plan = ds.make_random_plan(
            kb,
            args.seed,
            n_classes=args.delete_classes,
            n_relations=args.delete_relations,
            n_entities=args.delete_entities,
            n_facts=args.delete_facts,
        )
    else:
        raise FatalError("provide --plan FILE or --seed N")
    kb2, split2 = ds.inject_unanswerability(kb, split, plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kbmod.save_kb(kb2, str(out / "schema.json"), str(out / "data.jsonl"))
    ds.save_split(split2, str(out / "split.jsonl"))
    kbmod.save_plan(plan, str(out / "plan.json"))
    counts = {}
    for example in split2.examples:
        counts[example.label] = counts.get(example.label, 0) + 1
    print(f"wrote {out}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_dataset_sample(args) -> int:
    if not Path(args.split).exists():
        raise FatalError(f"split file not found: {args.split}")
    split = ds.load_split(args.split)
    sample = ds.sample_fewshots(split, args.n_ans, args.n_unans, args.seed)
    ds.save_split(sample, args.out)
    print(f"wrote {args.out}: {len(sample.examples)} examples")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# Keys of `run --config` and the JSON type of each: the flags' own, typed as
# their flag parses, each overridden by its flag when given; then the run
# settings that have no flag, typed by the dataclass field they set.
_FLAG_KEYS = {
    "n_iter": int, "answerable_mode": bool, "workers": int,
    "backend": str, "mock": str, "endpoint": str, "model": str,
}
_CAPS_KEYS = get_type_hints(RetrievalCaps)
_CONFIG_KEYS = {
    **_FLAG_KEYS, **_CAPS_KEYS,
    "mediator_classes": get_type_hints(VerifierSuite)["mediator_classes"],
}
_TYPE_NAMES = {
    int: "an integer", bool: "true or false", str: "a string", frozenset: "a list of strings",
}


def _has_type(value, want: type) -> bool:
    if want is frozenset:  # a set of ids, written as a JSON list
        return isinstance(value, list) and all(isinstance(item, str) for item in value)
    if want is int and isinstance(value, bool):
        return False
    return isinstance(value, want)


def _run_config(args) -> pipeline.FunConfig:
    """Flags, then ``--config`` keys for the flags left unset and for the
    settings without a flag; what neither sets keeps its default."""
    config = {}
    if args.config:
        if not Path(args.config).exists():
            raise FatalError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except ValueError as err:
                raise FatalError(f"config file {args.config}: {err}") from err
        if not isinstance(config, dict):
            raise FatalError(f"config file {args.config}: not a JSON object")
        unknown = sorted(set(config) - set(_CONFIG_KEYS))
        if unknown:
            raise FatalError(f"config file {args.config}: unknown keys {unknown}")
        for key, value in config.items():
            want = _CONFIG_KEYS[key]
            if not _has_type(value, want):
                raise FatalError(
                    f"config file {args.config}: {key} must be {_TYPE_NAMES[want]}, "
                    f"not {json.dumps(value)}"
                )
    for key in _FLAG_KEYS:
        if getattr(args, key) is None and key in config:
            setattr(args, key, config[key])
    settings = {"n": args.n_iter, "answerable_mode": args.answerable_mode}
    if "mediator_classes" in config:
        settings["mediator_classes"] = frozenset(config["mediator_classes"])
    caps = {key: config[key] for key in _CAPS_KEYS if key in config}
    try:
        return pipeline.FunConfig(
            caps=RetrievalCaps(**caps), **{k: v for k, v in settings.items() if v is not None}
        )
    except ValueError as err:
        raise FatalError(f"bad run setting: {err}") from err


def cmd_run(args) -> int:
    cfg = _run_config(args)
    args.backend = args.backend or "mock"
    workers = 1 if args.workers is None else args.workers
    kb = _load_kb(args)
    if not Path(args.dataset).exists():
        raise FatalError(f"dataset file not found: {args.dataset}")
    split = ds.load_split(args.dataset)
    gateway = _make_gateway(args)
    fewshots = ()
    if getattr(args, "fewshots", None):
        if not Path(args.fewshots).exists():
            raise FatalError(f"few-shot file not found: {args.fewshots}")
        fewshots = ds.load_split(args.fewshots).examples
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    outcomes = pipeline.run_dataset(
        gateway, kb, [retrieve_lexical], split, cfg, fewshots, workers=workers
    )
    elapsed = time.time() - started

    with open(out / "outcomes.jsonl", "w", encoding="utf-8") as handle:
        for outcome in outcomes:
            handle.write(json.dumps(outcome.trace["outcome"], ensure_ascii=False) + "\n")
    with open(out / "traces.jsonl", "w", encoding="utf-8") as handle:
        for outcome in outcomes:
            handle.write(json.dumps(outcome.trace, ensure_ascii=False) + "\n")
    manifest = {
        "kb": dict(zip(("schema", "data"), _kb_paths(args))),
        "dataset": args.dataset,
        "backend": args.backend,
        "mock": args.mock,
        "n_iter": cfg.n,
        "answerable_mode": cfg.answerable_mode,
        "workers": workers,
        "config": args.config,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.config:
        shutil.copyfile(args.config, out / "config.json")
    with open(out / "log.txt", "w", encoding="utf-8") as handle:
        handle.write(f"started: {time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(started))}Z\n")
        handle.write(f"elapsed_seconds: {elapsed:.3f}\n")

    failures = sum(1 for o in outcomes if o.error)
    print(f"wrote {out}: {len(outcomes)} outcomes, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_predictions(path: str) -> list[tuple[LogicalForm, frozenset | None]]:
    predictions = []
    for lineno, record in kbmod.read_jsonl(path):
        try:
            lf = LogicalForm.from_text(record.get("dialect", "sparql"), record["lf"])
            predictions.append((lf, ds.answer_from_json(record["answer"])))
        except (KeyError, ValueError, TypeError, AttributeError) as err:
            raise kbmod.FormatError(f"bad prediction record: {err!r}", lineno) from err
    return predictions


def cmd_eval(args) -> int:
    kb = _load_kb(args)
    for path in (args.gold, args.pred):
        if not Path(path).exists():
            raise FatalError(f"file not found: {path}")
    gold = ds.load_split(args.gold)
    predictions = _load_predictions(args.pred)
    if len(predictions) != len(gold.examples):
        raise FatalError(
            f"{args.pred} has {len(predictions)} predictions, {args.gold} has "
            f"{len(gold.examples)} examples"
        )
    records = metrics.evaluate(predictions, list(gold.examples), kb)
    report = metrics.aggregate(records)
    print(metrics.render_table(report))
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
    gateway = _make_gateway(args) if args.mock or args.backend == "http" else None
    if gateway is None:
        gateway = _RefusingGateway()
    question_entities = frozenset(eid for _, eid in entities)
    try:
        result = run_suite(lf, args.question, question_entities, kb, gateway, suite)
    except _NoGateway:
        print("V3 needs a generation backend; pass --mock FIXTURE or --backend http", file=sys.stderr)
        return 2
    for verdict in result.verdicts:
        status = "pass" if verdict.passed else "FAIL"
        print(f"{verdict.verifier_id:<8}{verdict.strength:<8}{status}")
        if verdict.feedback:
            print(f"    {verdict.feedback}")
    if result.answer is not None:
        print(f"answer: {ds.answer_to_json(result.answer)}")
    return 0 if result.all_pass else 1


class _NoGateway(Exception):
    pass


class _RefusingGateway:
    def complete(self, conversation, purpose="generate"):
        raise _NoGateway()


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace_show(args) -> int:
    if not Path(args.trace).exists():
        raise FatalError(f"trace file not found: {args.trace}")
    traces = [record for _, record in kbmod.read_jsonl(args.trace)]
    if args.index is not None:
        if not 0 <= args.index < len(traces):
            raise FatalError(f"--index {args.index} out of range (0..{len(traces) - 1})")
        traces = [traces[args.index]]
    for trace in traces:
        print(f"question: {trace['question']}")
        for it in trace.get("iterations", []):
            print(f"  iteration {it['iteration']}: {it['lf']}")
            for v in it["verdicts"]:
                mark = "pass" if v["passed"] else "FAIL"
                print(f"    {v['verifier']:<8}{v['strength']:<8}{mark}")
            if it.get("answer") is not None:
                print(f"    answer: {it['answer']}")
        scun_info = trace.get("scun")
        if scun_info:
            print(f"  consensus: {scun_info}")
        outcome = trace.get("outcome", {})
        print(f"  outcome: lf={outcome.get('lf')!r} answer={outcome.get('answer')} "
              f"confident={outcome.get('confident')}")
        calls = Counter(call["purpose"] for call in trace.get("llm", []))
        by_purpose = ", ".join(f"{purpose} {count}" for purpose, count in calls.items())
        print(f"  llm calls: {sum(calls.values())}" + (f" ({by_purpose})" if calls else ""))
        surfaces = [it["lf"] for it in trace.get("iterations", [])]
        print(f"  reused verifications: {len(surfaces) - len(set(surfaces))}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_kb_flags(parser) -> None:
    parser.add_argument("--kb", help="directory containing schema.json and data.jsonl")
    parser.add_argument("--schema", help="schema JSON file")
    parser.add_argument("--data", help="data JSON Lines file")


def _add_backend_flags(parser) -> None:
    parser.add_argument("--backend", choices=("mock", "http"), default=None)
    parser.add_argument("--mock", help="mock fixture JSON file")
    parser.add_argument("--endpoint", help="chat-completion endpoint URL")
    parser.add_argument("--model", help="model name for the http backend")
    parser.add_argument("--auth-env", default="KBQA_REPAIR_TOKEN",
                        help="environment variable holding the auth token")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbqa-repair")
    sub = parser.add_subparsers(dest="command", required=True)

    kb_parser = sub.add_parser("kb", help="knowledge base utilities")
    kb_sub = kb_parser.add_subparsers(dest="kb_command", required=True)
    p = kb_sub.add_parser("validate", help="load a KB and check every invariant")
    _add_kb_flags(p)
    p.set_defaults(func=cmd_kb_validate)
    p = kb_sub.add_parser("delete", help="apply a deletion plan")
    _add_kb_flags(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kb_delete)

    ds_parser = sub.add_parser("dataset", help="dataset utilities")
    ds_sub = ds_parser.add_subparsers(dest="dataset_command", required=True)
    p = ds_sub.add_parser("inject", help="inject unanswerability by KB deletion")
    _add_kb_flags(p)
    p.add_argument("--split", required=True)
    p.add_argument("--plan")
    p.add_argument("--seed", type=int)
    p.add_argument("--delete-classes", type=int, default=0)
    p.add_argument("--delete-relations", type=int, default=1)
    p.add_argument("--delete-entities", type=int, default=1)
    p.add_argument("--delete-facts", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset_inject)
    p = ds_sub.add_parser("sample", help="stratified few-shot sampling")
    p.add_argument("--split", required=True)
    p.add_argument("--n-ans", type=int, required=True)
    p.add_argument("--n-unans", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset_sample)

    p = sub.add_parser("run", help="run the pipeline over a dataset")
    _add_kb_flags(p)
    _add_backend_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--fewshots", help="few-shot split JSON Lines file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n-iter", type=int, dest="n_iter")
    p.add_argument("--answerable-mode", action="store_true", default=None)
    p.add_argument("--workers", type=int)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FatalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (kbmod.FormatError, kbmod.ReferentialError, kbmod.UnknownId, ds.PreconditionError,
            ds.InsufficientExamples) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GatewayError, MockMiss) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

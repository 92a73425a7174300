"""Spans recorded from outside the program, and the per-layer numbers.

``Tracer.install`` replaces each public function of each ``kbqa_repair``
module with a wrapper that records a span: name, start, end, parent span and
question id.  A function is replaced at every module that holds it, under
any name, so ``verifiers.execute`` and ``pipeline.run_suite`` are traced as
well as their definitions.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
Children run on the parent's thread and nest inside it, so that time is the
sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time

MODULES = (
    "kb", "query", "executor", "verifiers", "gateway", "prompts",
    "retrieval", "pipeline", "dataset", "metrics",
)

# Modules whose self time is reported as a share of question time.
SHARE_MODULES = (
    "kb", "retrieval", "executor", "query", "prompts", "verifiers", "pipeline", "gateway",
)

# Leaf helpers called once per schema element or per path step.  A span each
# would multiply the span count a thousandfold and move their cost into the
# tracer; their time stays in their caller's self time.
UNWRAPPED = frozenset({
    "query.var", "query.entity", "query.cls", "query.rel", "query.lit",
    "retrieval.lexical_score",
})

VERIFIERS = {
    "V1": "verifiers.v1_syntax",
    "V2a": "verifiers.v2a_type_compatibility",
    "V2b": "verifiers.v2b_schema_presence",
    "V2c": "verifiers.v2c_literal_casting",
    "V3": "verifiers.v3_question_lf_agreement",
    "V4": "verifiers.v4_answer_consistency",
}


def _verdict_failed(result) -> bool:
    return not result.passed


# A span is marked failed when its function raises, or when this test on
# its result holds (a verdict that did not pass).
FAILED_IF = {
    **{name: _verdict_failed for name in VERIFIERS.values() if not name.endswith("consistency")},
    VERIFIERS["V4"]: lambda result: not all(v.passed for v in result[:3]),
}

# A count recorded with the span, for the wasted-work ratio of retrieval.
SIZE_OF = {
    "kb.paths_from_entity": len,
    "retrieval.retrieve_union": lambda ctx: len(ctx.paths),
}

PURPOSES = ("generate", "v3-naturalize", "v3-backtranslate", "v3-equivalence", "scun-select")
BRANCHES = ("non-empty-consensus", "empty-answer", "no-consensus")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "question", "failed", "size")

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_question(self, question) -> None:
        """Tag the spans this thread records next with a question id."""
        self._local.question = question

    def wrap(self, name: str, fn):
        failed_if = FAILED_IF.get(name)
        size_of = SIZE_OF.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span()
            span.sid = next(self._ids)
            span.name = name
            span.parent = stack[-1].sid if stack else None
            span.question = getattr(self._local, "question", None)
            span.failed = False
            span.size = None
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if failed_if is not None:
                span.failed = failed_if(result)
            if size_of is not None:
                span.size = size_of(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [importlib.import_module(f"kbqa_repair.{name}") for name in MODULES]
        for short, module in zip(MODULES, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or f"{short}.{attr}" in UNWRAPPED:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, held, wrapper)
                            self._patched.append((holder, held, fn))

    def uninstall(self) -> None:
        for holder, held, fn in reversed(self._patched):
            setattr(holder, held, fn)
        self._patched.clear()

    def wrap_method(self, obj, attr: str, name: str) -> None:
        """Trace one bound method of one object (the inner gateway's ``complete``)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))


# ---------------------------------------------------------------------------
# Per-layer numbers
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.sid: span.duration - covered.get(span.sid, 0.0) for span in spans}


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Seconds of the set-up layers, from spans recorded outside any question."""
    own = self_times(spans)
    outside = [s for s in spans if s.question is None]

    def median_of(name: str, self_time: bool = False) -> float:
        values = [own[s.sid] if self_time else s.duration for s in outside if s.name == name]
        return statistics.median(values) if values else 0.0

    return {
        "kb.load_kb_s": median_of("kb.load_kb"),
        "kb.delete_elements_s": median_of("kb.delete_elements"),
        "dataset.inject_s": median_of("dataset.inject_unanswerability", self_time=True),
        "dataset.load_split_s": median_of("dataset.load_split"),
    }


def question_metrics(spans: list[Span], outcomes: list) -> dict[str, float]:
    """Per-layer numbers over the spans of traced questions.

    ``outcomes`` are the traced questions' outcomes, one per question run.
    """
    own = self_times(spans)
    inside = [s for s in spans if s.question is not None]
    by_name: dict[str, list[Span]] = {}
    for span in inside:
        by_name.setdefault(span.name, []).append(span)
    runs = by_name.get("pipeline.run_question", [])
    n = len(runs) or 1
    ms = 1000.0

    def durations(name: str) -> list[float]:
        return [s.duration * ms for s in by_name.get(name, [])]

    def selfs(name: str) -> list[float]:
        return [own[s.sid] * ms for s in by_name.get(name, [])]

    children: dict[int, list[Span]] = {}
    for span in inside:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def module_self(root: Span, module: str) -> float:
        total, todo = 0.0, [root]
        while todo:
            span = todo.pop()
            if span.module == module:
                total += own[span.sid]
            todo.extend(children.get(span.sid, ()))
        return total

    out: dict[str, float] = {}
    out["kb.paths_from_entity_ms.p50"] = percentile(durations("kb.paths_from_entity"), 0.5)
    out["kb.paths_from_entity_ms.p95"] = percentile(durations("kb.paths_from_entity"), 0.95)
    retrieve = [module_self(s, "retrieval") * ms for s in by_name.get("retrieval.retrieve_union", [])]
    out["retrieval.retrieve_ms.p50"] = percentile(retrieve, 0.5)
    out["retrieval.retrieve_ms.p95"] = percentile(retrieve, 0.95)
    kept = sum(s.size or 0 for s in by_name.get("retrieval.retrieve_union", []))
    enumerated = sum(s.size or 0 for s in by_name.get("kb.paths_from_entity", []))
    out["retrieval.paths_kept_per_enumerated"] = _ratio(kept, enumerated)

    executes = durations("executor.execute")
    out["executor.execute_calls_per_question"] = len(executes) / n
    out["executor.execute_ms.p50"] = percentile(executes, 0.5)
    out["executor.execute_ms.p95"] = percentile(executes, 0.95)
    out["executor.execute_ms.max"] = max(executes, default=0.0)

    parses = by_name.get("query.parse", [])
    out["query.parse_calls_per_question"] = len(parses) / n
    out["query.parse_ms.p50"] = percentile(durations("query.parse"), 0.5)
    out["query.parse_fail_frac"] = _ratio(sum(s.failed for s in parses), len(parses))

    renders = durations("prompts.render_prompt")
    out["prompts.render_calls_per_question"] = len(renders) / n
    out["prompts.render_ms_per_question"] = sum(renders) / n

    for vid, name in VERIFIERS.items():
        calls = by_name.get(name, [])
        out[f"verifiers.{vid}.calls_per_question"] = len(calls) / n
        out[f"verifiers.{vid}.ms.p50"] = percentile(selfs(name), 0.5)
        out[f"verifiers.{vid}.ms.p95"] = percentile(selfs(name), 0.95)
        out[f"verifiers.{vid}.fail_frac"] = _ratio(sum(s.failed for s in calls), len(calls))

    purposes = {p: 0 for p in PURPOSES}
    for outcome in outcomes:
        for call in outcome.trace.get("llm", ()):
            purposes[call["purpose"]] = purposes.get(call["purpose"], 0) + 1
    for purpose in PURPOSES:
        out[f"gateway.calls_per_question.{purpose}"] = purposes[purpose] / n
    waits = durations("gateway.wait")
    out["gateway.wait_ms.p50"] = percentile(waits, 0.5)
    out["gateway.wait_ms.p95"] = percentile(waits, 0.95)

    iterations = [len(o.trace.get("iterations", ())) for o in outcomes]
    out["pipeline.iterations_per_question"] = _ratio(sum(iterations), len(iterations))
    out["pipeline.confident_frac"] = _ratio(sum(o.confident for o in outcomes), len(outcomes))
    pools = [o.trace["scun"]["pool"] for o in outcomes if o.trace.get("scun")]
    out["pipeline.pool_size_mean"] = _ratio(sum(pools), len(pools))
    for branch in BRANCHES:
        hits = sum(1 for o in outcomes if (o.trace.get("scun") or {}).get("branch") == branch)
        out[f"pipeline.scun_branch.{branch}"] = _ratio(hits, len(outcomes))
    out["pipeline.scun_ms.p50"] = percentile(durations("pipeline.scun"), 0.5)
    out["pipeline.self_ms.p50"] = percentile([module_self(s, "pipeline") * ms for s in runs], 0.5)

    question_time = sum(s.duration for s in runs)
    module_time = {m: 0.0 for m in SHARE_MODULES}
    for span in inside:
        if span.module in module_time:
            module_time[span.module] += own[span.sid]
    for module in SHARE_MODULES:
        out[f"share.{module}"] = _ratio(module_time[module], question_time)
    out["trace.spans_per_question"] = len(inside) / n
    return out

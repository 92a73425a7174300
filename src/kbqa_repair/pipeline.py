"""Per-question orchestration: biased generation, the verify-and-repair loop,
and consensus over the candidate set.

The repair loop keeps one growing conversation per question: the generation
prompt, each generated query, and each round's feedback.  A query that fails
a strong verifier is rejected outright; one that passes all strong checks and
at least one weak check joins the candidate pool.  Passing everything ends
the loop confidently.  When the loop ends without confidence, the consensus
step votes over candidate answers (strict majority of the pool), falls back
to empty-answer candidates, and otherwise returns (NK, NA).

Each distinct query is verified once per question.  When a repair round
regenerates a query the loop already checked, the round reuses that suite
result: its record, its admission to the pool and the feedback it sends are
those of the first check, and no verifier, execution or V3 call runs again.
The reuse is exact when the gateway's replies depend on the prompt alone, as
the mock's do and the CLI's at temperature 0.  A library caller that builds
``HttpGateway(temperature>0)`` gets one sampled V3 verdict per distinct
query, not one per round.  Nothing is shared between questions.
"""

from __future__ import annotations

import re
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .dataset import DatasetSplit, QAExample, answer_to_json
from .gateway import (
    GatewayError, GenerationGateway, Message, MockMiss, RecordingGateway, assistant, user,
)
from .kb import KnowledgeBase
from .prompts import render_prompt
from .query import LogicalForm
from .retrieval import RetrievalCaps, RetrievalContext, render_context_fields, retrieve_union
from .verifiers import SuiteResult, VerifierSuite, run_suite


@dataclass(frozen=True)
class Candidate:
    lf: LogicalForm
    answer: frozenset
    back_translation: str | None
    iteration: int


@dataclass(frozen=True)
class FunConfig(VerifierSuite):
    """Run settings: the verifier suite's, plus the loop's and retrieval's."""

    n: int = 4  # repair rounds after the initial query; n+1 queries total
    caps: RetrievalCaps = RetrievalCaps()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass
class PipelineOutcome:
    lf: LogicalForm  # may be the NK sentinel
    answer: frozenset | None  # None means NA
    confident: bool
    trace: dict
    error: str | None = None


@dataclass
class FunResult:
    confident: bool
    lf: LogicalForm
    answer: frozenset | None
    candidates: list[Candidate]
    iterations: list[dict]
    error: str | None = None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def build_pun_prompt(
    kb: KnowledgeBase,
    question: str,
    ctx: RetrievalContext,
    fewshots: tuple[QAExample, ...] = (),
) -> str:
    """Header, the NK exemplar, optional few-shot exemplars, then the question."""
    blocks = [render_prompt("pun-header"), render_prompt("pun-nk-exemplar")]
    for shot in fewshots:
        lf_text = "NK" if shot.gold_lf.is_nk else shot.gold_lf.surface
        blocks.append(f"Question: {shot.question}\nsparql:{lf_text}")
    bindings = {"question": question}
    bindings.update(render_context_fields(kb, ctx))
    blocks.append(render_prompt("pun-question", bindings))
    return "\n\n".join(blocks)


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n(.*?)\n?```$", re.S)


def parse_reply(reply: str, dialect: str = "sparql") -> LogicalForm:
    """Reply text to LogicalForm; "NK" maps to the sentinel, parse failures
    are recorded on the form for the syntax verifier to report."""
    text = reply.strip()
    fenced = _FENCE_RE.match(text)
    if fenced:
        text = fenced.group(1).strip()
    return LogicalForm.from_text(dialect, text)


def pun_generate(gateway: GenerationGateway, prompt: str) -> LogicalForm:
    """One biased generation call on the rendered prompt; the reply is
    parsed, never validated here."""
    return parse_reply(gateway.complete([user(prompt)]))


# ---------------------------------------------------------------------------
# The verify-and-repair loop
# ---------------------------------------------------------------------------

def fun(
    gateway: GenerationGateway,
    kb: KnowledgeBase,
    question: str,
    question_entities: frozenset,
    lf0: LogicalForm,
    cfg: FunConfig,
    prompt: str,
) -> FunResult:
    """At most cfg.n verify-and-repair rounds over a growing conversation
    that opens with the generation ``prompt`` and its reply ``lf0``.  A
    round whose query was already checked reuses that check's suite result."""
    conversation: list[Message] = [user(prompt), assistant(lf0.surface)]
    candidates: list[Candidate] = []
    iterations: list[dict] = []
    checked: dict[tuple[str, str], SuiteResult] = {}
    lf = lf0

    for iteration in range(1, cfg.n + 2):
        key = (lf.dialect, lf.surface)
        if key not in checked:
            checked[key] = run_suite(lf, question, question_entities, kb, gateway, cfg)
        result = checked[key]
        record = {
            "iteration": iteration,
            "lf": lf.surface,
            "parsed": lf.parsed,
            "verdicts": [
                {
                    "verifier": v.verifier_id,
                    "strength": v.strength,
                    "passed": v.passed,
                    "feedback": v.feedback,
                }
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


# ---------------------------------------------------------------------------
# Consensus over the candidate set
# ---------------------------------------------------------------------------

def select_best(
    gateway: GenerationGateway,
    question: str,
    candidates: list[Candidate],
) -> tuple[Candidate, bool]:
    """Pick the candidate whose back-translation reads closest to the
    question.  Singleton pools short-circuit without a call; an unparseable
    selection falls back to the earliest-iteration candidate (flagged)."""
    if not candidates:
        raise ValueError("select_best needs a non-empty candidate list")
    if len(candidates) == 1:
        return candidates[0], False
    options = "\n".join(
        f"{i}. pred_nl: {c.back_translation or c.lf.surface}"
        for i, c in enumerate(candidates, start=1)
    )
    prompt = render_prompt(
        "scun-select", {"question": question, "options": options, "count": len(candidates)}
    )
    reply = gateway.complete([user(prompt)], "scun-select")
    match = re.search(r"\d+", reply)
    if match:
        index = int(match.group())
        if 1 <= index <= len(candidates):
            return candidates[index - 1], False
    earliest = min(candidates, key=lambda c: c.iteration)
    return earliest, True


def scun(
    gateway: GenerationGateway,
    question: str,
    candidates: list[Candidate],
) -> tuple[LogicalForm, frozenset | None, dict]:
    """Consensus for a non-confident loop.

    (1) Group candidates by non-empty answer; the most popular answer wins
    when its supporters strictly exceed half the pool.  (2) Otherwise any
    empty-answer candidate is selected with answer NA.  (3) Otherwise (NK, NA).
    """
    info: dict = {"pool": len(candidates)}
    groups: dict[frozenset, list[Candidate]] = {}
    for c in candidates:
        if c.answer:
            groups.setdefault(c.answer, []).append(c)

    if groups:
        best = max(
            groups.values(), key=lambda g: (len(g), -min(c.iteration for c in g))
        )
        threshold = len(candidates) // 2
        info["top_supporters"] = len(best)
        info["threshold"] = threshold
        if len(best) > threshold:
            chosen, fallback = select_best(gateway, question, best)
            info.update(branch="non-empty-consensus", selected_iteration=chosen.iteration,
                        select_fallback=fallback)
            return chosen.lf, chosen.answer, info

    empties = [c for c in candidates if not c.answer]
    if empties:
        chosen, fallback = select_best(gateway, question, empties)
        info.update(branch="empty-answer", selected_iteration=chosen.iteration,
                    select_fallback=fallback)
        return chosen.lf, None, info

    info["branch"] = "no-consensus"
    return LogicalForm.nk(), None, info


# ---------------------------------------------------------------------------
# End-to-end
# ---------------------------------------------------------------------------

def _abort(trace: dict, field: str, detail: str) -> tuple[LogicalForm, None]:
    """Mark an aborted question in its trace; its result is (NK, NA)."""
    trace["iterations"] = trace.get("iterations", [])
    trace["confident"] = False
    trace["scun"] = None
    trace[field] = detail
    return LogicalForm.nk(), None


def run_question(
    gateway: GenerationGateway,
    kb: KnowledgeBase,
    retrievers: list,
    example: QAExample,
    cfg: FunConfig = FunConfig(),
    fewshots: tuple[QAExample, ...] = (),
) -> PipelineOutcome:
    """retrieve -> generate -> repair loop -> (confident result | consensus).

    A failure aborts only this question: a ``GatewayError`` is recorded as
    ``gateway_error`` in the trace, and any other exception (a retriever
    that crashes or times out, say) as ``exception`` with its traceback.
    Either way ``outcome.error`` is set and nothing raises out of here,
    except ``MockMiss``: a mock fixture with no reply for a prompt is a bug
    in the test, so it propagates.
    """
    recorder = RecordingGateway(gateway)
    trace: dict = {
        "question": example.question,
        "linked_entities": [{"mention": m, "id": eid} for m, eid in example.linked_entities],
    }
    try:
        ctx = retrieve_union(retrievers, kb, example.question, list(example.linked_entities), cfg.caps)
        prompt = build_pun_prompt(kb, example.question, ctx, fewshots)
        lf0 = pun_generate(recorder, prompt)
        result = fun(recorder, kb, example.question, example.question_entities(), lf0, cfg, prompt)
        trace["iterations"] = result.iterations
        trace["confident"] = result.confident
        if result.confident:
            lf, answer = result.lf, result.answer
            trace["scun"] = None
        else:
            lf, answer, info = scun(recorder, example.question, result.candidates)
            trace["scun"] = info
        error = None
    except GatewayError as err:
        error = str(err)
        lf, answer = _abort(trace, "gateway_error", error)
    except MockMiss:
        raise
    except Exception as err:  # the run outlives any one question
        error = f"{type(err).__name__}: {err}"
        lf, answer = _abort(trace, "exception", traceback.format_exc())
    trace["llm"] = recorder.log
    trace["outcome"] = {
        "lf": "NK" if lf.is_nk else lf.surface,
        "answer": answer_to_json(answer),
        "confident": trace.get("confident", False),
    }
    if error:
        trace["outcome"]["error"] = error
    return PipelineOutcome(lf, answer, trace["outcome"]["confident"], trace, error)


def run_dataset(
    gateway: GenerationGateway,
    kb: KnowledgeBase,
    retrievers: list,
    split: DatasetSplit,
    cfg: FunConfig = FunConfig(),
    fewshots: tuple[QAExample, ...] = (),
    workers: int = 1,
) -> list[PipelineOutcome]:
    """Process questions independently; output order matches input order."""
    if workers <= 1:
        return [
            run_question(gateway, kb, retrievers, example, cfg, fewshots)
            for example in split.examples
        ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_question, gateway, kb, retrievers, example, cfg, fewshots)
            for example in split.examples
        ]
        return [f.result() for f in futures]

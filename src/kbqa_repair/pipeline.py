"""Per-question orchestration: biased generation, the verify-and-repair loop,
and consensus over the candidate set.

The repair loop holds one growing conversation per question.  It starts at
the generation prompt; each assistant turn is a reply as received, and each
later user turn is a round's feedback.  A query that fails a strong verifier
is rejected outright; one that passes all strong checks and at least one
weak check joins the candidate pool.  Passing everything ends the loop
confidently.  Otherwise the next round's feedback is that of every
failed verdict; a strong failure ends the suite, so it is always the only
failure and its feedback goes alone.  When the loop ends without confidence,
the consensus step votes over candidate answers (strict majority of the
pool), falls back to empty-answer candidates, and otherwise returns (NK, NA).

Each distinct query is verified once per question.  When a repair round
regenerates a query the loop already checked, the round reuses that suite
result: its record, its admission to the pool and the feedback it sends are
those of the first check, and no verifier, execution or V3 call runs again.
The reuse is exact when the gateway's replies depend on the prompt alone, as
the mock's do and the HTTP backend's at temperature 0.  A reply that repeats
an earlier one of the same question, the generation reply included, is
parsed once.  Nothing is shared between questions.

``iter_outcomes`` imports the thread pool only for more than one worker, and
``run_question`` imports ``traceback`` only to format a question's failure,
so a one-worker run never loads them, nor ``logging`` and ``textwrap``,
which they import.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass

from .dataset import DatasetSplit, QAExample, answer_to_json
from .gateway import (
    GatewayError, GenerationGateway, Message, MockMiss, RecordingGateway, assistant, user,
)
from .kb import KnowledgeBase
from .prompts import render_prompt
from .query import LogicalForm, render_sparql
from .retrieval import RetrievalCaps, RetrievalContext, render_context_fields, retrieve_union
from .verifiers import WEAK, SuiteResult, VerifierSuite, run_suite


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


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def fewshot_lf_text(lf: LogicalForm) -> str:
    """A few-shot gold query as the prompt shows it: NK, SPARQL surface text,
    or another dialect's query rendered as SPARQL.  Raises ValueError when the
    query does not parse and UnsupportedQuery when SPARQL cannot express it."""
    if lf.is_nk:
        return "NK"
    if not lf.parsed:
        raise ValueError(f"does not parse: {lf.parse_error}")
    return lf.surface if lf.dialect == "sparql" else render_sparql(lf.canonical)


def build_pun_prompt(
    kb: KnowledgeBase,
    question: str,
    ctx: RetrievalContext,
    fewshots: tuple[QAExample, ...] = (),
) -> str:
    """Header, the NK exemplar, optional few-shot exemplars, then the question."""
    blocks = [render_prompt("pun-header"), render_prompt("pun-nk-exemplar")]
    for shot in fewshots:
        blocks.append(f"Question: {shot.question}\nsparql:{fewshot_lf_text(shot.gold_lf)}")
    bindings = {"question": question}
    bindings.update(render_context_fields(kb, ctx))
    blocks.append(render_prompt("pun-question", bindings))
    return "\n\n".join(blocks)


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n(.*?)\n?```$", re.S)


def parse_reply(reply: str) -> LogicalForm:
    """SPARQL reply text to LogicalForm; "NK" maps to the sentinel, parse
    failures are recorded on the form for the syntax verifier to report."""
    text = reply.strip()
    fenced = _FENCE_RE.match(text)
    if fenced:
        text = fenced.group(1).strip()
    return LogicalForm.from_text("sparql", text)


# ---------------------------------------------------------------------------
# The verify-and-repair loop
# ---------------------------------------------------------------------------

def fun(
    gateway: GenerationGateway,
    kb: KnowledgeBase,
    question: str,
    question_entities: frozenset,
    cfg: FunConfig,
    prompt: str,
) -> FunResult:
    """The generation call and at most cfg.n repair rounds, over one growing
    conversation that opens with the generation ``prompt``.  Each assistant
    turn is the reply as received.  A repeated reply reuses its parse, and a
    query already checked reuses that check's suite result."""
    conversation: list[Message] = [user(prompt)]
    candidates: list[Candidate] = []
    iterations: list[dict] = []
    checked: dict[str, SuiteResult] = {}
    parsed: dict[str, LogicalForm] = {}

    for iteration in range(1, cfg.n + 2):
        reply = gateway.complete(conversation)
        conversation.append(assistant(reply))
        if reply not in parsed:
            parsed[reply] = parse_reply(reply)
        lf = parsed[reply]
        if lf.surface not in checked:
            checked[lf.surface] = run_suite(lf, question, question_entities, kb, gateway, cfg)
        result = checked[lf.surface]
        failures = [v for v in result.verdicts if not v.passed]
        admitted = bool(failures) and any(v.passed and v.strength == WEAK for v in result.verdicts)
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
            "admitted": admitted,
            "all_pass": not failures,
            "back_translation": result.back_translation,
        }
        iterations.append(record)

        if not failures:
            return FunResult(True, lf, result.answer, candidates, iterations)
        if admitted:
            candidates.append(Candidate(lf, result.answer, result.back_translation, iteration))
        conversation.append(user("\n".join(v.feedback for v in failures)))

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
    # Leading zeros aside, an index has no more digits than the pool's size: a
    # longer number is out of range, and may be past int()'s digit limit.
    digits = match.group().lstrip("0") if match else ""
    if digits and len(digits) <= len(str(len(candidates))):
        index = int(digits)
        if index <= len(candidates):
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
    pool = [c for c in candidates if not c.answer]
    branch = "empty-answer" if pool else "no-consensus"
    if groups:
        best = max(
            groups.values(), key=lambda g: (len(g), -min(c.iteration for c in g))
        )
        info["top_supporters"] = len(best)
        info["threshold"] = threshold = len(candidates) // 2
        if len(best) > threshold:
            pool, branch = best, "non-empty-consensus"
    info["branch"] = branch
    if not pool:
        return LogicalForm.nk(), None, info
    chosen, fallback = select_best(gateway, question, pool)
    info.update(selected_iteration=chosen.iteration, select_fallback=fallback)
    return chosen.lf, chosen.answer or None, info


# ---------------------------------------------------------------------------
# End-to-end
# ---------------------------------------------------------------------------

def run_question(
    gateway: GenerationGateway,
    kb: KnowledgeBase,
    retrievers: list,
    example: QAExample,
    cfg: FunConfig = FunConfig(),
    fewshots: tuple[QAExample, ...] = (),
) -> PipelineOutcome:
    """retrieve -> generate -> repair loop -> (confident result | consensus).

    A failure aborts only this question, and its result is (NK, NA): a
    ``GatewayError`` is recorded as ``gateway_error`` in the trace, and any
    other exception (a retriever that crashes or times out, say) as
    ``exception`` with its traceback.  Either way ``outcome.error`` is set
    and nothing raises out of here, except ``MockMiss``: a mock fixture with
    no reply for a prompt is a bug in the test, so it propagates.
    """
    recorder = RecordingGateway(gateway)
    lf, answer, iterations, confident, info = LogicalForm.nk(), None, [], False, None
    error, failure = None, {}
    try:
        ctx = retrieve_union(retrievers, kb, example.question, list(example.linked_entities), cfg.caps)
        prompt = build_pun_prompt(kb, example.question, ctx, fewshots)
        result = fun(recorder, kb, example.question, example.question_entities(), cfg, prompt)
        iterations, confident = result.iterations, result.confident
        if confident:
            lf, answer = result.lf, result.answer
        else:
            lf, answer, info = scun(recorder, example.question, result.candidates)
    except GatewayError as err:
        error, failure = str(err), {"gateway_error": str(err)}
    except MockMiss:
        raise
    except Exception as err:  # the run outlives any one question
        import traceback

        error, failure = f"{type(err).__name__}: {err}", {"exception": traceback.format_exc()}
    outcome = {"lf": lf.surface, "answer": answer_to_json(answer), "confident": confident}
    trace = {
        "question": example.question,
        "linked_entities": [{"mention": m, "id": eid} for m, eid in example.linked_entities],
        "iterations": iterations,
        "confident": confident,
        "scun": info,
        **failure,
        "llm": recorder.log,
        "outcome": {**outcome, "error": error} if error else outcome,
    }
    return PipelineOutcome(lf, answer, confident, trace, error)


def iter_outcomes(gateway: GenerationGateway, kb: KnowledgeBase, retrievers: list, split: DatasetSplit,
                  cfg: FunConfig = FunConfig(), fewshots: tuple[QAExample, ...] = (),
                  workers: int = 1) -> Iterator[PipelineOutcome]:
    """Process questions independently and yield each outcome in input order
    as soon as it and those before it are done.  Closing the iterator, or an
    exception out of it, cancels every question not yet started."""

    def run_one(example: QAExample) -> PipelineOutcome:
        return run_question(gateway, kb, retrievers, example, cfg, fewshots)

    if workers <= 1:
        yield from map(run_one, split.examples)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run_one, split.examples)


def run_dataset(gateway: GenerationGateway, kb: KnowledgeBase, retrievers: list, split: DatasetSplit,
                cfg: FunConfig = FunConfig(), fewshots: tuple[QAExample, ...] = (),
                workers: int = 1) -> list[PipelineOutcome]:
    """Every outcome of ``iter_outcomes``, in input order."""
    return list(iter_outcomes(gateway, kb, retrievers, split, cfg, fewshots, workers))

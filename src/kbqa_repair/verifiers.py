"""Strong and weak verifiers over logical forms.

Strong verifiers flag certain errors (syntax, KB inconsistency, answer
aberrations); weak verifiers flag likely errors (question/back-translation
disagreement, empty answers).  A failed verdict carries the templated
feedback string that drives the next repair round.  A suite run's verdict
list is its whole record: the strong checks stop at their first failure, so
a failed strong verdict is always the last verdict and the only failure, and
the weak checks run only after every strong one has passed.  A V4 verdict's
strength alone places it: a strong one runs before V3, a weak one after.
Answerable mode acts only through that strength, which makes V4b strong.
These checks never see gold logical forms, gold answers or answerability
labels.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .executor import execute
from .gateway import GenerationGateway, user
from .kb import KnowledgeBase
from .prompts import render_prompt
from .query import Literal, LogicalForm, extract_classes, extract_entities, extract_relations

STRONG = "strong"
WEAK = "weak"


@dataclass(frozen=True)
class Verdict:
    verifier_id: str
    strength: str
    passed: bool
    feedback: str = ""
    payload: str | None = None  # back-translated question, V3 only

    def __post_init__(self):
        if self.passed and self.feedback:
            raise ValueError("a passing verdict must not carry feedback")
        if not self.passed and not self.feedback:
            raise ValueError("a failing verdict must carry feedback")


@dataclass(frozen=True)
class VerifierSuite:
    """Settings of the checks; answerable mode moves V4b into the strong set."""

    answerable_mode: bool = False
    mediator_classes: frozenset = frozenset()


# Each passing verdict, built once and shared: a verdict is frozen, so a suite
# run builds only its failing verdicts and its V3 verdict.
V1_PASSED = Verdict("V1", STRONG, True)
V2A_PASSED = Verdict("V2a", STRONG, True)
V2B_PASSED = Verdict("V2b", STRONG, True)
V2C_PASSED = Verdict("V2c", STRONG, True)
V4A_PASSED = Verdict("V4a", STRONG, True)
V4A_INT_PASSED = Verdict("V4a-int", STRONG, True)
V4B_PASSED_STRONG = Verdict("V4b", STRONG, True)  # answerable mode
V4B_PASSED_WEAK = Verdict("V4b", WEAK, True)


def _kb_inconsistency(description: str) -> str:
    return render_prompt("fb-kb-inconsistency", {"description": description})


def _fmt_list(items: list[str]) -> str:
    return "[" + ", ".join(f"'{item}'" for item in items) + "]"


# ---------------------------------------------------------------------------
# V1: syntax
# ---------------------------------------------------------------------------

def v1_syntax(lf: LogicalForm) -> Verdict:
    """Fails iff the surface text did not parse (or is the NK sentinel)."""
    if lf.is_nk:
        error = (
            'word NK not defined; instead of returning "NK", attempt a concrete sparql query '
            "for the question using the provided candidates"
        )
    elif not lf.parsed:
        error = lf.parse_error or "parse failure"
    else:
        return V1_PASSED
    feedback = render_prompt("fb-syntax", {"dialect": lf.dialect, "query": lf.surface, "error": error})
    return Verdict("V1", STRONG, False, feedback)


# ---------------------------------------------------------------------------
# V2a: type compatibility
# ---------------------------------------------------------------------------

def v2a_type_compatibility(lf: LogicalForm, kb: KnowledgeBase) -> Verdict:
    """Intersects induced class constraints per term; empty intersection fails.

    A relation in the KB induces its domain on its subject and, unless its
    range is a literal type, its range on its object; a type assertion of a
    class in the KB induces that class.  Relations and classes absent from
    the KB induce nothing here; V2b owns hallucinations.  An entity must
    carry every induced class; a variable's induced classes must all
    coincide.  The first conflicting term is reported, entities before
    variables, in order of first appearance.
    """
    # (kind, value) of each entity and variable term -> its (source, class)
    # constraints; insertion order is first appearance in the patterns.  A
    # term of another kind gets a throwaway list.
    induced: defaultdict[tuple[str, str], list[tuple[str, str]]] = defaultdict(list)
    for s, p, o in lf.canonical.patterns:
        subject = induced[s.kind, s.value] if s.kind in ("var", "entity") else []
        if p.kind == "type_assert":
            if o.kind == "class" and o.value in kb.classes:
                subject.append((f"type.object.type {o.value}", o.value))
            continue
        obj = induced[o.kind, o.value] if o.kind in ("var", "entity") else []
        rd = kb.relations.get(p.value)
        if rd is not None:
            subject.append((rd.id, rd.domain))
            if not rd.range_is_literal:
                obj.append((rd.id, rd.range))

    for wanted in ("entity", "var"):
        for (kind, key), constraints in induced.items():
            if kind != wanted or not constraints:
                continue
            classes = list(dict.fromkeys([class_id for _, class_id in constraints]))
            if kind == "entity":
                # an entity not in the KB is V2b's to report
                if key not in kb.entities or all(c in kb.entity_classes(key) for c in classes):
                    continue
                term, why = "entity", "These types are not associated with this entity in the KB."
            else:
                if len(classes) <= 1:
                    continue
                term, why = f"variable ?{key}", "These types are mutually incompatible."
            sources = list(dict.fromkeys([source for source, _ in constraints]))
            description = (
                f"The types of relations don't match for {term} in the query. "
                f"The assigned relation types by {_fmt_list(sources)} are {_fmt_list(classes)}. {why}"
            )
            return Verdict("V2a", STRONG, False, _kb_inconsistency(description))
    return V2A_PASSED


# ---------------------------------------------------------------------------
# V2b: schema presence
# ---------------------------------------------------------------------------

def v2b_schema_presence(lf: LogicalForm, kb: KnowledgeBase) -> Verdict:
    """Fails iff the query references a class, relation or entity not in the KB."""
    q = lf.canonical
    missing = {
        "relations": [rid for rid in extract_relations(q) if rid not in kb.relations],
        "entity types": [cid for cid in extract_classes(q) if cid not in kb.classes],
        "entities": [eid for eid in extract_entities(q) if eid not in kb.entities],
    }
    parts = [f"{what} {_fmt_list(ids)}" for what, ids in missing.items() if ids]
    if not parts:
        return V2B_PASSED
    description = (
        "The sparql hallucinates schema elements that do not exist in the KB: "
        + ", ".join(parts)
        + "."
    )
    return Verdict("V2b", STRONG, False, _kb_inconsistency(description))


# ---------------------------------------------------------------------------
# V2c: literal casting
# ---------------------------------------------------------------------------

def v2c_literal_casting(lf: LogicalForm, kb: KnowledgeBase) -> Verdict:
    """Fails iff a literal's datatype mismatches the range of the relation it
    meets.  It runs after V2b, so every relation is in the KB."""
    q = lf.canonical
    problems: list[str] = []

    def check(value: Literal, rd, where: str) -> None:
        if not rd.range_is_literal:
            problems.append(
                f"the literal {value.value!r} {where} {rd.id}, whose range is the entity type {rd.range}"
            )
        elif value.datatype != rd.range:
            problems.append(
                f"the literal {value.value!r} {where} {rd.id} is typed {value.datatype}; "
                f"cast it as {rd.range}"
            )

    var_ranges: dict[str, list] = {}
    for s, p, o in q.patterns:
        if p.kind != "relation":
            continue
        rd = kb.relations[p.value]
        if o.kind == "literal":
            check(o.value, rd, "given to")
        if o.kind == "var":
            var_ranges.setdefault(o.value, []).append(rd)
    for f in q.filters:
        for rd in var_ranges.get(f.variable, []):
            if rd.range_is_literal and f.literal.datatype != rd.range:
                problems.append(
                    f"the literal {f.literal.value!r} compared with ?{f.variable} of {rd.id} "
                    f"is typed {f.literal.datatype}; cast it as {rd.range}"
                )

    if not problems:
        return V2C_PASSED
    description = "Literals are not correctly type cast for the KB: " + "; ".join(problems) + "."
    return Verdict("V2c", STRONG, False, _kb_inconsistency(description))


# ---------------------------------------------------------------------------
# V3: question / logical-form agreement
# ---------------------------------------------------------------------------

def v3_question_lf_agreement(
    lf: LogicalForm,
    question: str,
    gateway: GenerationGateway,
) -> Verdict:
    """Naturalize, back-translate, then check semantic equivalence.

    The verdict carries the back-translated question as payload.  When the
    back-translation equals the question verbatim, the equivalence call is
    skipped.  Gateway failures propagate.
    """
    naturalize = render_prompt("v3-naturalize", {"sparql": lf.surface})
    naturalized = gateway.complete([user(naturalize)], "v3-naturalize").strip()

    backtranslate = render_prompt("v3-backtranslate", {"sparql": naturalized})
    back_translation = gateway.complete([user(backtranslate)], "v3-backtranslate").strip()

    if back_translation == question.strip():
        return Verdict("V3", WEAK, True, payload=back_translation)

    prompt = render_prompt("v3-equivalence", {"answered": back_translation, "asked": question})
    reply = gateway.complete([user(prompt)], "v3-equivalence")
    same = reply.rfind("they are same")
    different = reply.rfind("they are different")
    if same > different:
        return Verdict("V3", WEAK, True, payload=back_translation)
    feedback = render_prompt(
        "fb-qlf-disagreement", {"answered": back_translation, "asked": question}
    )
    return Verdict("V3", WEAK, False, feedback, payload=back_translation)


# ---------------------------------------------------------------------------
# V4: answer consistency
# ---------------------------------------------------------------------------

def v4_answer_consistency(
    lf: LogicalForm,
    kb: KnowledgeBase,
    question_entities: frozenset,
    suite: VerifierSuite,
) -> tuple[Verdict, Verdict, Verdict, frozenset]:
    """Execute once; check answer/question-entity overlap, mediator-only
    answers, and emptiness.  Returns the three verdicts plus the answer."""
    answer = execute(kb, lf.canonical)

    mentioned = sorted(v for v in answer if isinstance(v, str) and v in question_entities)
    if mentioned:
        labels = ", ".join(kb.label_of(eid) for eid in mentioned)
        feedback = render_prompt("fb-answer-entity", {"answer": labels})
        v4a = Verdict("V4a", STRONG, False, feedback)
    else:
        v4a = V4A_PASSED

    answer_entities = [v for v in answer if isinstance(v, str) and v in kb.entities]
    mediator_only = (
        bool(suite.mediator_classes)
        and bool(answer_entities)
        and all(kb.entity_classes(e) <= suite.mediator_classes for e in answer_entities)
    )
    if mediator_only:
        feedback = render_prompt("fb-intermediate-node")
        v4a_int = Verdict("V4a-int", STRONG, False, feedback)
    else:
        v4a_int = V4A_INT_PASSED

    if not answer:
        feedback = render_prompt("fb-empty-answer")
        v4b = Verdict("V4b", STRONG if suite.answerable_mode else WEAK, False, feedback)
    else:
        v4b = V4B_PASSED_STRONG if suite.answerable_mode else V4B_PASSED_WEAK
    return v4a, v4a_int, v4b, answer


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    verdicts: list[Verdict] = field(default_factory=list)
    answer: frozenset | None = None
    back_translation: str | None = None


def run_suite(
    lf: LogicalForm,
    question: str,
    question_entities: frozenset,
    kb: KnowledgeBase,
    gateway: GenerationGateway,
    suite: VerifierSuite,
) -> SuiteResult:
    """Strong verifiers in order, stopping after the first failure; then every
    weak verifier.  A failed strong verdict is therefore always the last
    verdict and the only failure, and V3, the one check that calls the
    gateway, runs only once every strong check has passed.  Execution happens
    once, at the V4 stage."""
    result = SuiteResult()

    def stops(verdict: Verdict) -> bool:
        result.verdicts.append(verdict)
        return verdict.strength == STRONG and not verdict.passed

    if (stops(v1_syntax(lf)) or stops(v2a_type_compatibility(lf, kb))
            or stops(v2b_schema_presence(lf, kb)) or stops(v2c_literal_casting(lf, kb))):
        return result
    *v4, result.answer = v4_answer_consistency(lf, kb, question_entities, suite)
    if any(stops(v) for v in v4 if v.strength == STRONG):
        return result

    v3 = v3_question_lf_agreement(lf, question, gateway)
    result.back_translation = v3.payload
    result.verdicts += [v3, *(v for v in v4 if v.strength == WEAK)]
    return result

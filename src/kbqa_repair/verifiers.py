"""Strong and weak verifiers over logical forms.

Strong verifiers flag certain errors (syntax, KB inconsistency, answer
aberrations); weak verifiers flag likely errors (question/back-translation
disagreement, empty answers).  A failed verdict carries the templated
feedback string that drives the next repair round.  These checks never see
gold logical forms, gold answers or answerability labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .executor import execute
from .gateway import GenerationGateway, user
from .kb import KnowledgeBase
from .prompts import render_prompt
from .query import Literal, LogicalForm, Term

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
        feedback = render_prompt("fb-syntax", {"sparql": lf.surface, "error": error})
        return Verdict("V1", STRONG, False, feedback)
    if not lf.parsed:
        feedback = render_prompt(
            "fb-syntax", {"sparql": lf.surface, "error": lf.parse_error or "parse failure"}
        )
        return Verdict("V1", STRONG, False, feedback)
    return Verdict("V1", STRONG, True)


# ---------------------------------------------------------------------------
# V2a: type compatibility
# ---------------------------------------------------------------------------

def _collect_constraints(lf: LogicalForm, kb: KnowledgeBase):
    """Class constraints induced on each entity/variable term, in query order.

    A constraint is (source, class) where source is the relation id (or
    "type.object.type <class>" for explicit assertions).  Relations and
    classes absent from the KB induce nothing here; V2b owns hallucinations.
    """
    order: list[tuple[str, str]] = []  # (kind, key) first-appearance order
    constraints: dict[tuple[str, str], list[tuple[str, str]]] = {}

    def note(term: Term, source: str, class_id: str) -> None:
        if term.kind == "var":
            key = ("var", term.value)
        elif term.kind == "entity":
            key = ("entity", term.value)
        else:
            return
        if key not in constraints:
            order.append(key)
            constraints[key] = []
        constraints[key].append((source, class_id))

    def touch(term: Term) -> None:
        if term.kind in ("var", "entity"):
            key = (term.kind, term.value)
            if key not in constraints:
                order.append(key)
                constraints[key] = []

    for s, p, o in lf.canonical.patterns:
        touch(s)
        if p.kind == "type_assert":
            if o.kind == "class" and kb.has_class(o.value):
                note(s, f"type.object.type {o.value}", o.value)
            continue
        rd = kb.relations.get(p.value)
        if rd is not None:
            note(s, rd.id, rd.domain)
            if not rd.range_is_literal:
                note(o, rd.id, rd.range)
        touch(o)
    return order, constraints


def v2a_type_compatibility(lf: LogicalForm, kb: KnowledgeBase) -> Verdict:
    """Intersects induced class constraints per term; empty intersection fails.

    An entity must carry every induced class; a variable's induced classes
    must all coincide.  The first conflicting term is reported, entities
    before variables, in pattern order.
    """
    order, constraints = _collect_constraints(lf, kb)

    def conflict_for(kind: str, key: str) -> Verdict | None:
        induced = constraints[(kind, key)]
        if not induced:
            return None
        sources: list[str] = []
        classes: list[str] = []
        for source, class_id in induced:
            if source not in sources:
                sources.append(source)
            if class_id not in classes:
                classes.append(class_id)
        if kind == "entity":
            if not kb.has_entity(key):
                return None  # hallucinated entity: V2b's channel
            if all(c in kb.entity_classes(key) for c in classes):
                return None
            description = (
                "The types of relations don't match for entity in the query. "
                f"The assigned relation types by {_fmt_list(sources)} are {_fmt_list(classes)}. "
                "These types are not associated with this entity in the KB."
            )
        else:
            if len(classes) <= 1:
                return None
            description = (
                f"The types of relations don't match for variable ?{key} in the query. "
                f"The assigned relation types by {_fmt_list(sources)} are {_fmt_list(classes)}. "
                "These types are mutually incompatible."
            )
        return Verdict("V2a", STRONG, False, _kb_inconsistency(description))

    for kind in ("entity", "var"):
        for k, key in order:
            if k != kind:
                continue
            verdict = conflict_for(kind, key)
            if verdict is not None:
                return verdict
    return Verdict("V2a", STRONG, True)


# ---------------------------------------------------------------------------
# V2b: schema presence
# ---------------------------------------------------------------------------

def v2b_schema_presence(lf: LogicalForm, kb: KnowledgeBase) -> Verdict:
    """Fails iff the query references a class, relation or entity not in the KB."""
    q = lf.canonical
    missing_relations: list[str] = []
    missing_classes: list[str] = []
    missing_entities: list[str] = []

    def note(bucket: list[str], value: str) -> None:
        if value not in bucket:
            bucket.append(value)

    for s, p, o in q.patterns:
        if p.kind == "relation" and not kb.has_relation(p.value):
            note(missing_relations, p.value)
        if p.kind == "type_assert" and o.kind == "class" and not kb.has_class(o.value):
            note(missing_classes, o.value)
        for term in (s, o):
            if term.kind == "entity" and not kb.has_entity(term.value):
                note(missing_entities, term.value)
    if q.aggregate is not None:
        for rid in q.aggregate.path:
            if not kb.has_relation(rid):
                note(missing_relations, rid)

    if not (missing_relations or missing_classes or missing_entities):
        return Verdict("V2b", STRONG, True)
    parts = []
    if missing_relations:
        parts.append(f"relations {_fmt_list(missing_relations)}")
    if missing_classes:
        parts.append(f"entity types {_fmt_list(missing_classes)}")
    if missing_entities:
        parts.append(f"entities {_fmt_list(missing_entities)}")
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
    """Fails iff a literal's datatype mismatches the range of the relation it meets."""
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
        rd = kb.relations.get(p.value)
        if rd is None:
            continue
        if o.kind == "literal":
            check(o.literal, rd, "given to")
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
        return Verdict("V2c", STRONG, True)
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
        v4a = Verdict("V4a", STRONG, True)

    answer_entities = [v for v in answer if isinstance(v, str) and kb.has_entity(v)]
    mediator_only = (
        bool(suite.mediator_classes)
        and bool(answer_entities)
        and all(kb.entity_classes(e) <= suite.mediator_classes for e in answer_entities)
    )
    if mediator_only:
        feedback = render_prompt("fb-intermediate-node")
        v4a_int = Verdict("V4a-int", STRONG, False, feedback)
    else:
        v4a_int = Verdict("V4a-int", STRONG, True)

    v4b_strength = STRONG if suite.answerable_mode else WEAK
    if not answer:
        feedback = render_prompt("fb-empty-answer")
        v4b = Verdict("V4b", v4b_strength, False, feedback)
    else:
        v4b = Verdict("V4b", v4b_strength, True)
    return v4a, v4a_int, v4b, answer


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    verdicts: list[Verdict] = field(default_factory=list)
    answer: frozenset | None = None
    strong_failure: Verdict | None = None
    weak_failures: list[Verdict] = field(default_factory=list)
    weak_passes: list[Verdict] = field(default_factory=list)
    back_translation: str | None = None

    @property
    def all_pass(self) -> bool:
        return self.strong_failure is None and not self.weak_failures


def run_suite(
    lf: LogicalForm,
    question: str,
    question_entities: frozenset,
    kb: KnowledgeBase,
    gateway: GenerationGateway,
    suite: VerifierSuite,
) -> SuiteResult:
    """Strong verifiers in order, stopping at the first failure; then every
    weak verifier.  Execution happens once, at the V4 stage."""
    result = SuiteResult()

    v1 = v1_syntax(lf)
    result.verdicts.append(v1)
    if not v1.passed:
        result.strong_failure = v1
        return result

    for check in (v2a_type_compatibility, v2b_schema_presence, v2c_literal_casting):
        verdict = check(lf, kb)
        result.verdicts.append(verdict)
        if not verdict.passed:
            result.strong_failure = verdict
            return result

    v4a, v4a_int, v4b, answer = v4_answer_consistency(lf, kb, question_entities, suite)
    result.answer = answer
    for verdict in (v4a, v4a_int):
        result.verdicts.append(verdict)
        if not verdict.passed:
            result.strong_failure = verdict
            return result
    if suite.answerable_mode:
        result.verdicts.append(v4b)
        if not v4b.passed:
            result.strong_failure = v4b
            return result

    v3 = v3_question_lf_agreement(lf, question, gateway)
    result.back_translation = v3.payload
    result.verdicts.append(v3)
    (result.weak_passes if v3.passed else result.weak_failures).append(v3)
    if not suite.answerable_mode:
        result.verdicts.append(v4b)
        (result.weak_passes if v4b.passed else result.weak_failures).append(v4b)
    return result

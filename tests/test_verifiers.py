import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from kbqa_repair import verifiers
from kbqa_repair.gateway import GatewayError, Matcher, MockGateway, RecordingGateway
from kbqa_repair.kb import DeletionPlan, delete_elements
from kbqa_repair.query import (
    TYPE_ASSERT, Aggregate, CanonicalQuery, Literal, LogicalForm, Term, cls, entity,
    extract_classes, extract_entities, extract_relations, rel, var,
)
from kbqa_repair.verifiers import (
    Verdict,
    VerifierSuite,
    _fmt_list,
    _kb_inconsistency,
    run_suite,
    v1_syntax,
    v2a_type_compatibility,
    v2b_schema_presence,
    v2c_literal_casting,
    v3_question_lf_agreement,
    v4_answer_consistency,
)
from randgen import random_kb, random_query

SUITE = VerifierSuite()


def lf(text: str) -> LogicalForm:
    return LogicalForm.from_text("sparql", text)


@pytest.mark.parametrize("passed, feedback, message", [
    (True, "fix it", "a passing verdict must not carry feedback"),
    (False, "", "a failing verdict must carry feedback"),
])
def test_a_verdict_carries_feedback_exactly_when_it_fails(passed, feedback, message):
    with pytest.raises(ValueError) as err:
        Verdict("V1", "strong", passed, feedback)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# V1
# ---------------------------------------------------------------------------

def test_v1_passes_wellformed():
    verdict = v1_syntax(lf("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"))
    assert verdict.passed and verdict.feedback == ""


def test_v1_fail_mentions_offending_token():
    verdict = v1_syntax(lf("SELECT ?x AND ?y WHERE { ?x ns:a.b ?y }"))
    assert not verdict.passed
    assert "AND" in verdict.feedback
    assert verdict.feedback.startswith("Correct the syntax of the following sparql query.")
    assert "Virtuoso error:" in verdict.feedback


def test_v1_nk_gets_regenerate_nudge():
    verdict = v1_syntax(LogicalForm.nk())
    assert not verdict.passed
    assert "NK" in verdict.feedback
    assert verdict.strength == "strong"


# ---------------------------------------------------------------------------
# V2a
# ---------------------------------------------------------------------------

def test_v2a_variable_conflict_names_both(a13_kb):
    # variable asserted to be a genre while ranged as a recording
    conflicted = lf(
        "SELECT ?x WHERE { ns:m.0kgenre ns:music.genre.recordings ?x . "
        "?x ns:type.object.type ns:music.genre }"
    )
    verdict = v2a_type_compatibility(conflicted, a13_kb)
    assert not verdict.passed
    assert "variable ?x" in verdict.feedback
    assert "music.genre.recordings" in verdict.feedback
    assert "type.object.type music.genre" in verdict.feedback
    assert "mutually incompatible" in verdict.feedback


def test_v2a_entity_conflict_reported_first(a13_kb):
    bad = lf(
        "SELECT DISTINCT ?x WHERE { ns:m.0123lk0s ns:music.genre.recordings ?x . "
        "?x ns:type.object.type ns:music.genre }"
    )
    verdict = v2a_type_compatibility(bad, a13_kb)
    assert not verdict.passed
    assert verdict.feedback == (
        "The generated sparql has a semantic issue warning:  "
        "The types of relations don't match for entity in the query. "
        "The assigned relation types by ['music.genre.recordings'] are ['music.genre']. "
        "These types are not associated with this entity in the KB. "
        "Please generate again a different executable sparql using the same context and "
        "constraints. DO NOT APOLOGIZE - just return the best you can try."
    )


def test_v2a_consistent_single_pattern_passes(a13_kb):
    ok = lf("SELECT ?x WHERE { ns:m.0123lk0s ns:music.recording.artist ?x }")
    assert v2a_type_compatibility(ok, a13_kb).passed


def test_v2a_skips_unknown_ids(a13_kb):
    ghost = lf("SELECT ?x WHERE { ns:m.0123lk0s ns:ghost.relation ?x }")
    assert v2a_type_compatibility(ghost, a13_kb).passed  # V2b's channel


def test_v2a_reports_variables_in_order_of_first_appearance_not_first_constraint(a13_kb):
    # ?y first appears in a pattern that induces nothing and conflicts last;
    # ?x is constrained, and conflicts, before ?y is.
    both = lf(
        "SELECT ?y WHERE { ?y ns:ghost.relation ?z . "
        "?x ns:type.object.type ns:music.genre . ?x ns:type.object.type ns:music.artist . "
        "?y ns:type.object.type ns:music.genre . ?y ns:type.object.type ns:music.recording }"
    )
    assert v2a_type_compatibility(both, a13_kb).feedback == _kb_inconsistency(
        "The types of relations don't match for variable ?y in the query. The assigned relation "
        "types by ['type.object.type music.genre', 'type.object.type music.recording'] are "
        "['music.genre', 'music.recording']. These types are mutually incompatible."
    )


def _v2a_two_pass(form: LogicalForm, kb) -> Verdict:
    """V2a as it was written before it became one pass: collect each term's
    constraints with its first appearance, then scan entities, then
    variables.  The oracle for ``v2a_type_compatibility``."""
    order, constraints = [], {}

    def note(term, source, class_id):
        if term.kind in ("var", "entity"):
            key = (term.kind, term.value)
            if key not in constraints:
                order.append(key)
                constraints[key] = []
            constraints[key].append((source, class_id))

    def touch(term):
        if term.kind in ("var", "entity"):
            key = (term.kind, term.value)
            if key not in constraints:
                order.append(key)
                constraints[key] = []

    for s, p, o in form.canonical.patterns:
        touch(s)
        if p.kind == "type_assert":
            if o.kind == "class" and o.value in kb.classes:
                note(s, f"type.object.type {o.value}", o.value)
            continue
        rd = kb.relations.get(p.value)
        if rd is not None:
            note(s, rd.id, rd.domain)
            if not rd.range_is_literal:
                note(o, rd.id, rd.range)
        touch(o)

    for kind in ("entity", "var"):
        for k, key in order:
            induced = constraints[(k, key)]
            if k != kind or not induced:
                continue
            sources, classes = [], []
            for source, class_id in induced:
                if source not in sources:
                    sources.append(source)
                if class_id not in classes:
                    classes.append(class_id)
            if kind == "entity":
                if key not in kb.entities or all(c in kb.entity_classes(key) for c in classes):
                    continue
                description = (
                    "The types of relations don't match for entity in the query. "
                    f"The assigned relation types by {_fmt_list(sources)} are {_fmt_list(classes)}. "
                    "These types are not associated with this entity in the KB."
                )
            else:
                if len(classes) <= 1:
                    continue
                description = (
                    f"The types of relations don't match for variable ?{key} in the query. "
                    f"The assigned relation types by {_fmt_list(sources)} are {_fmt_list(classes)}. "
                    "These types are mutually incompatible."
                )
            return Verdict("V2a", "strong", False, _kb_inconsistency(description))
    return Verdict("V2a", "strong", True)


def _with_extra_patterns(rng: random.Random, kb, q):
    """``q`` plus up to four type assertions and relation patterns, in
    shuffled order, over the KB's ids and ids it does not have: a ghost
    class, a ghost relation, an entity not in the KB and a fresh variable."""
    names = sorted({t.value for s, _, o in q.patterns for t in (s, o) if t.kind == "var"})
    terms = [var(name) for name in names] + [var("fresh"), entity("m.ghost")]
    terms += [entity(eid) for eid in rng.sample(sorted(kb.entities), 2)]
    patterns = list(q.patterns)
    for _ in range(rng.randint(0, 4)):
        subject = rng.choice(terms)
        if rng.random() < 0.4:
            patterns.append((subject, TYPE_ASSERT, cls(rng.choice([*kb.classes, "ghost.class"]))))
        else:
            obj = rng.choice([*terms, Term("literal", Literal(3, "integer"))])
            patterns.append((subject, rel(rng.choice([*kb.relations, "ghost.relation"])), obj))
    rng.shuffle(patterns)
    return replace(q, patterns=tuple(patterns))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_v2a_matches_the_two_pass_oracle(seed):
    rng = random.Random(seed)
    kb = random_kb(rng, max_entities=8)
    for _ in range(10):
        form = LogicalForm("sparql", "synthetic", _with_extra_patterns(rng, kb, random_query(rng, kb)))
        assert v2a_type_compatibility(form, kb) == _v2a_two_pass(form, kb)


# ---------------------------------------------------------------------------
# V2b
# ---------------------------------------------------------------------------

def test_v2b_pass_on_present_schema(a13_kb):
    ok = lf(
        "SELECT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
        "?x ns:type.object.type ns:music.genre }"
    )
    assert v2b_schema_presence(ok, a13_kb).passed


def test_v2b_names_deleted_relation(fig1_kb3):
    kb2 = delete_elements(fig1_kb3, DeletionPlan(relations=("book.author.works_written",)))
    bad = lf("SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }")
    verdict = v2b_schema_presence(bad, kb2)
    assert not verdict.passed
    assert "book.author.works_written" in verdict.feedback


def test_v2b_unknown_entity(a13_kb):
    bad = lf("SELECT ?x WHERE { ns:m.unknown ns:music.recording.artist ?x }")
    verdict = v2b_schema_presence(bad, a13_kb)
    assert not verdict.passed
    assert "m.unknown" in verdict.feedback


def test_v2b_feedback_lists_relations_then_types_then_entities_each_once(pairs_kb):
    bad = LogicalForm.from_text(
        "sexpr", "(ARGMAX (AND geo.lake (JOIN geo.city.mayor m.0nope)) geo.city.mayor)"
    )
    assert v2b_schema_presence(bad, pairs_kb).feedback == (
        "The generated sparql has a semantic issue warning:  The sparql hallucinates schema "
        "elements that do not exist in the KB: relations ['geo.city.mayor'], entity types "
        "['geo.lake'], entities ['m.0nope']. Please generate again a different executable sparql "
        "using the same context and constraints. DO NOT APOLOGIZE - just return the best you can try."
    )


def test_v2b_lists_a_missing_relation_once_pattern_relations_before_path_relations(a13_kb):
    # ghost.a is in two patterns and in the argmax path; ghost.b only in the path.
    x, y = var("x"), var("y")
    q = CanonicalQuery("x", False, (
        (entity("m.0123lk0s"), rel("ghost.a"), x),
        (x, rel("music.recording.artist"), y),
        (y, rel("ghost.a"), x),
    ), aggregate=Aggregate("argmax", ("ghost.b", "ghost.a")))
    verdict = v2b_schema_presence(LogicalForm("sparql", "synthetic", q), a13_kb)
    assert verdict.feedback == _kb_inconsistency(
        "The sparql hallucinates schema elements that do not exist in the KB: "
        "relations ['ghost.a', 'ghost.b']."
    )


def _v2b_listing(form: LogicalForm, kb) -> Verdict:
    """V2b as it was written before it became one walk: list the query's
    relations, classes and entities, then keep those the KB lacks.  The
    oracle for ``v2b_schema_presence``."""
    q = form.canonical
    missing = {
        "relations": [rid for rid in extract_relations(q) if rid not in kb.relations],
        "entity types": [cid for cid in extract_classes(q) if cid not in kb.classes],
        "entities": [eid for eid in extract_entities(q) if eid not in kb.entities],
    }
    parts = [f"{what} {_fmt_list(ids)}" for what, ids in missing.items() if ids]
    if not parts:
        return Verdict("V2b", "strong", True)
    description = (
        "The sparql hallucinates schema elements that do not exist in the KB: "
        + ", ".join(parts)
        + "."
    )
    return Verdict("V2b", "strong", False, _kb_inconsistency(description))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_v2b_matches_the_listing_oracle(seed):
    """Queries with a ghost class, relation or entity among extra patterns,
    and half the time a ghost relation in an argmax/argmin path."""
    rng = random.Random(seed)
    kb = random_kb(rng, max_entities=8)
    for _ in range(10):
        q = _with_extra_patterns(rng, kb, random_query(rng, kb))
        if q.aggregate is not None and q.aggregate.path and rng.random() < 0.5:
            path = list(q.aggregate.path)
            path.insert(rng.randint(0, len(path)), "ghost.path")
            q = replace(q, aggregate=Aggregate(q.aggregate.kind, tuple(path)))
        form = LogicalForm("sparql", "synthetic", q)
        assert v2b_schema_presence(form, kb) == _v2b_listing(form, kb)


def test_v2b_containment_property_randomized():
    rng = random.Random(424242)
    checked = 0
    for _ in range(120):
        kb = random_kb(rng, max_entities=10)
        q = random_query(rng, kb)
        form = LogicalForm("sparql", "synthetic", q)
        missing = (not set(extract_relations(q)) <= frozenset(kb.relations)) or (
            not set(extract_entities(q)) <= frozenset(kb.entities)
        )
        verdict = v2b_schema_presence(form, kb)
        if missing:
            assert not verdict.passed
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# V2c
# ---------------------------------------------------------------------------

def test_v2c_integer_against_float_range_fails(pairs_kb):
    bad = lf("SELECT ?x WHERE { ?x ns:geo.river.length 410 }")
    verdict = v2c_literal_casting(bad, pairs_kb)
    assert not verdict.passed
    assert "cast" in verdict.feedback and "float" in verdict.feedback


def test_v2c_matching_types_pass(pairs_kb):
    ok = lf("SELECT ?x WHERE { ?x ns:geo.city.population 1200 . ?x ns:geo.river.length 410.2 }")
    # population is integer-ranged; length float-ranged
    assert v2c_literal_casting(ok, pairs_kb).passed


def test_v2c_date_against_integer_range_fails(pairs_kb):
    bad = lf('SELECT ?x WHERE { ?x ns:geo.city.population "2024-01-01"^^xsd:date }')
    verdict = v2c_literal_casting(bad, pairs_kb)
    assert not verdict.passed
    assert "integer" in verdict.feedback


def test_v2c_literal_given_to_an_entity_ranged_relation_fails(pairs_kb):
    verdict = v2c_literal_casting(lf('SELECT ?x WHERE { ?x ns:geo.city.country "ardenia" }'), pairs_kb)
    assert not verdict.passed
    assert verdict.feedback == _kb_inconsistency(
        "Literals are not correctly type cast for the KB: the literal 'ardenia' given to "
        "geo.city.country, whose range is the entity type geo.country."
    )


def test_v2c_filter_literal_checked(pairs_kb):
    bad = lf('SELECT ?x WHERE { ?x ns:geo.river.length ?l . FILTER(?l < 300) }')
    verdict = v2c_literal_casting(bad, pairs_kb)
    assert not verdict.passed
    ok = lf('SELECT ?x WHERE { ?x ns:geo.river.length ?l . FILTER(?l < 300.0) }')
    assert v2c_literal_casting(ok, pairs_kb).passed


def test_v2c_feedback_names_a_pattern_literal_then_a_filter_literal(pairs_kb):
    bad = lf("SELECT ?x WHERE { ?x ns:geo.river.length 410 . ?x ns:geo.river.length ?l . "
             "FILTER(?l < 300) }")
    assert v2c_literal_casting(bad, pairs_kb).feedback == (
        "The generated sparql has a semantic issue warning:  Literals are not correctly type cast "
        "for the KB: the literal 410 given to geo.river.length is typed integer; cast it as float; "
        "the literal 300 compared with ?l of geo.river.length is typed integer; cast it as float. "
        "Please generate again a different executable sparql using the same context and "
        "constraints. DO NOT APOLOGIZE - just return the best you can try."
    )


# ---------------------------------------------------------------------------
# V3
# ---------------------------------------------------------------------------

def _v3_gateway(naturalized, back, verdict_text=None):
    matchers = [
        Matcher("substring", "transform the variable names", naturalized),
        Matcher("substring", "as natural as possible.", back),
    ]
    if verdict_text is not None:
        matchers.append(Matcher("substring", "Question we answer:", verdict_text))
    return MockGateway(matchers)


def test_v3_short_circuits_on_verbatim_match():
    gw = RecordingGateway(_v3_gateway("SELECT ?genre ...", "what is the genre?"))
    verdict = v3_question_lf_agreement(lf("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"),
                                       "what is the genre?", gw)
    assert verdict.passed
    assert verdict.payload == "what is the genre?"
    assert len(gw.log) == 2  # no equivalence call


def test_v3_disagreement_carries_backtranslation_payload():
    gw = RecordingGateway(_v3_gateway(
        "SELECT ?artist ...",
        "who is the artist?",
        "The two questions return different things. Hence, they are different.",
    ))
    verdict = v3_question_lf_agreement(lf("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"),
                                       "what is the genre?", gw)
    assert not verdict.passed
    assert verdict.payload == "who is the artist?"
    assert 'You have answered the question "who is the artist?"' in verdict.feedback
    assert len(gw.log) == 3


def test_v3_agreement_verdict():
    gw = _v3_gateway(
        "SELECT ?genre ...",
        "which genre does the song have?",
        "Both return genres of the same song. Hence, they are same.",
    )
    verdict = v3_question_lf_agreement(lf("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"),
                                       "what is the genre?", gw)
    assert verdict.passed and verdict.payload == "which genre does the song have?"


def test_v3_gateway_error_propagates():
    class Boom:
        def complete(self, conversation, purpose="generate"):
            raise GatewayError("timeout", "scripted")

    with pytest.raises(GatewayError):
        v3_question_lf_agreement(lf("SELECT ?x WHERE { ?x ns:a.b ns:m.01 }"), "q?", Boom())


# ---------------------------------------------------------------------------
# V4
# ---------------------------------------------------------------------------

def test_v4a_fails_when_answer_contains_question_entity(fig1_kb3):
    loop = lf("SELECT ?x WHERE { ns:m.0b1 ns:book.written_work.author ?x }")
    v4a, v4a_int, v4b, answer = v4_answer_consistency(
        loop, fig1_kb3, frozenset({"m.0auth"}), SUITE
    )
    assert answer == {"m.0auth"}
    assert not v4a.passed
    assert "j r hart" in v4a.feedback  # label, not id
    assert v4b.passed


def test_v4b_fails_on_empty_answer_v4a_passes(fig1_kb2):
    empty = lf("SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }")
    v4a, v4a_int, v4b, answer = v4_answer_consistency(
        empty, fig1_kb2, frozenset({"m.0auth"}), SUITE
    )
    assert answer == frozenset()
    assert v4a.passed and v4a_int.passed
    assert not v4b.passed
    assert "gives an empty answer" in v4b.feedback
    assert v4b.strength == "weak"


def test_v4a_int_mediator_only_answer(fig1_kb3):
    suite = VerifierSuite(mediator_classes=frozenset({"book.publisher"}))
    mediated = lf("SELECT ?x WHERE { ns:m.0auth ns:book.author.publisher ?x }")
    v4a, v4a_int, v4b, answer = v4_answer_consistency(
        mediated, fig1_kb3, frozenset({"m.0auth"}), suite
    )
    assert answer == {"m.0pub"}
    assert not v4a_int.passed
    assert "intermediate type node" in v4a_int.feedback


def test_v4a_int_disabled_with_empty_mediator_set(fig1_kb3):
    mediated = lf("SELECT ?x WHERE { ns:m.0auth ns:book.author.publisher ?x }")
    _, v4a_int, _, _ = v4_answer_consistency(mediated, fig1_kb3, frozenset(), SUITE)
    assert v4a_int.passed


def test_v4b_is_strong_in_answerable_mode(fig1_kb2, a13_kb):
    suite = VerifierSuite(answerable_mode=True)
    gw = _v3_gateway("SELECT ?genre ...", "what is the genre?")
    good = lf(
        "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
        "?x ns:type.object.type ns:music.genre }"
    )
    result = run_suite(good, "what is the genre?", frozenset(), a13_kb, gw, suite)
    assert [(v.verifier_id, v.strength) for v in result.verdicts] == [
        ("V1", "strong"), ("V2a", "strong"), ("V2b", "strong"), ("V2c", "strong"),
        ("V4a", "strong"), ("V4a-int", "strong"), ("V4b", "strong"), ("V3", "weak"),
    ]
    empty = lf("SELECT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }")
    _, _, v4b, _ = v4_answer_consistency(empty, fig1_kb2, frozenset(), suite)
    assert v4b.strength == "strong" and not v4b.passed


# ---------------------------------------------------------------------------
# Suite sequencing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("answerable_mode", [False, True])
def test_a_passing_suite_returns_the_shared_verdicts(a13_kb, answerable_mode):
    """Every passing verdict but V3's is the module's constant, and V4b's
    follows answerable mode."""
    gw = _v3_gateway("SELECT ?genre ...", "what is the genre?")
    good = lf(
        "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
        "?x ns:type.object.type ns:music.genre }"
    )
    suite = VerifierSuite(answerable_mode=answerable_mode)
    strong = [verifiers.V1_PASSED, verifiers.V2A_PASSED, verifiers.V2B_PASSED,
              verifiers.V2C_PASSED, verifiers.V4A_PASSED, verifiers.V4A_INT_PASSED]
    verdicts = run_suite(good, "what is the genre?", frozenset(), a13_kb, gw, suite).verdicts
    if answerable_mode:
        *shared, v3 = verdicts
        expected = [*strong, verifiers.V4B_PASSED_STRONG]
    else:
        *shared, v3, v4b = verdicts
        shared, expected = [*shared, v4b], [*strong, verifiers.V4B_PASSED_WEAK]
    assert len(shared) == len(expected)
    assert all(got is constant for got, constant in zip(shared, expected))
    assert v3.verifier_id == "V3" and v3.passed


def test_strong_failure_stops_suite(a13_kb):
    gw = MockGateway([])  # would raise MockMiss if V3 were consulted
    bad = lf(
        "SELECT DISTINCT ?x WHERE { ns:m.0123lk0s ns:music.genre.recordings ?x . "
        "?x ns:type.object.type ns:music.genre }"
    )
    result = run_suite(bad, "q?", frozenset(), a13_kb, gw, SUITE)
    assert [(v.verifier_id, v.passed) for v in result.verdicts] == [("V1", True), ("V2a", False)]


def test_all_weak_run_after_strong_pass(a13_kb):
    gw = _v3_gateway("SELECT ?genre ...", "some other question?",
                     "Different things. Hence, they are different.")
    good = lf(
        "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
        "?x ns:type.object.type ns:music.genre }"
    )
    result = run_suite(good, "what is the genre?", frozenset(), a13_kb, gw, SUITE)
    assert [(v.verifier_id, v.passed) for v in result.verdicts] == [
        ("V1", True), ("V2a", True), ("V2b", True), ("V2c", True), ("V4a", True),
        ("V4a-int", True), ("V3", False), ("V4b", True),
    ]


@given(
    seed=st.integers(0, 2**32 - 1),
    answerable_mode=st.booleans(),
    reply=st.sampled_from(["q?", "Hence, they are same.", "Hence, they are different."]),
)
@settings(max_examples=300)
def test_suite_stops_at_its_only_strong_failure(seed, answerable_mode, reply):
    rng = random.Random(seed)
    kb = random_kb(rng, max_entities=8)
    q = random_query(rng, kb)
    form = LogicalForm("sparql", "synthetic", q) if rng.random() < 0.9 else lf("not a query")
    question_entities = frozenset(rng.sample(sorted(kb.entities), rng.randint(0, 2)))
    mediators = rng.sample(sorted(kb.classes), rng.randint(0, len(kb.classes)))
    suite = VerifierSuite(answerable_mode, frozenset(mediators))
    gw = RecordingGateway(MockGateway([Matcher("substring", "", reply)]))
    verdicts = run_suite(form, "q?", question_entities, kb, gw, suite).verdicts
    strengths = [v.strength for v in verdicts]
    strong_failures = [i for i, v in enumerate(verdicts) if v.strength == "strong" and not v.passed]
    assert strong_failures in ([], [len(verdicts) - 1])
    if "weak" in strengths:
        first_weak = strengths.index("weak")
        assert all(v.passed for v in verdicts[:first_weak])
        assert strengths[first_weak:] == ["weak"] * (len(verdicts) - first_weak)
    assert bool(gw.log) == (not strong_failures)


def test_strong_verifiers_deterministic(a13_kb):
    bad = lf(
        "SELECT DISTINCT ?x WHERE { ns:m.0123lk0s ns:music.genre.recordings ?x . "
        "?x ns:type.object.type ns:music.genre }"
    )
    first = v2a_type_compatibility(bad, a13_kb)
    second = v2a_type_compatibility(bad, a13_kb)
    assert first == second


def test_channel_separation_execute_never_errors_after_v1_v2c():
    rng = random.Random(777)
    from kbqa_repair.executor import execute

    for _ in range(80):
        kb = random_kb(rng, max_entities=8)
        q = random_query(rng, kb)
        form = LogicalForm("sparql", "synthetic", q)
        if v1_syntax(form).passed and v2a_type_compatibility(form, kb).passed \
                and v2b_schema_presence(form, kb).passed and v2c_literal_casting(form, kb).passed:
            execute(kb, q)  # must not raise

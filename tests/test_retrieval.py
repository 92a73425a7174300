import copy
import gc
import random
import re
import string
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from kbqa_repair import retrieval
from kbqa_repair.kb import DeletionPlan, delete_elements, paths_from_entity
from kbqa_repair.retrieval import (
    RetrievalCaps,
    RetrievalContext,
    lexical_score,
    render_context_fields,
    retrieve_lexical,
    retrieve_union,
)
from kbqa_repair.query import Literal, parse_sparql, render_sparql
from oracles import chain_query
from randgen import random_hub_kb, random_kb


def test_question_token_ranks_matching_class_first(a13_kb):
    ctx = retrieve_lexical(a13_kb, "what is the musical genre of this recording?", [])
    assert ctx.classes[0] == "music.genre"
    assert "music.recording" in ctx.classes


def test_no_overlap_gives_empty_schema_lists(pairs_kb):
    ctx = retrieve_lexical(pairs_kb, "zzz qqq xxx", [])
    assert ctx.classes == () and ctx.relations == ()


def test_equal_scores_tie_break_by_id(fig1_kb3):
    ctx = retrieve_lexical(fig1_kb3, "book", [])
    scores = {}
    for cid, c in fig1_kb3.classes.items():
        scores[cid] = lexical_score("book", c.label, cid)
    tied = sorted(cid for cid in scores if scores[cid] == max(scores.values()))
    ranked_tied = [cid for cid in ctx.classes if cid in tied]
    assert ranked_tied == tied


def test_caps_enforced(fig1_kb3):
    caps = RetrievalCaps(max_classes=2, max_relations=3, max_paths=1)
    ctx = retrieve_lexical(fig1_kb3, "which books did j r hart write?", [("j r hart", "m.0auth")], caps)
    assert len(ctx.classes) <= 2 and len(ctx.relations) <= 3 and len(ctx.paths) <= 1


@pytest.mark.parametrize("field, value, message", [
    ("max_classes", -1, "max_classes must be >= 0"),
    ("max_relations", -1, "max_relations must be >= 0"),
    ("max_paths", -1, "max_paths must be >= 0"),
    ("max_path_len", 0, "max_path_len must be >= 1"),
    ("max_path_len", 5, "max_path_len must be <= 4"),
])
def test_caps_out_of_range_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        RetrievalCaps(**{field: value})


def test_paths_rooted_at_linked_entity(fig1_kb3):
    from kbqa_repair.executor import execute

    ctx = retrieve_lexical(fig1_kb3, "which books did j r hart write?", [("j r hart", "m.0auth")])
    assert ctx.paths
    for path in ctx.paths:
        assert execute(fig1_kb3, parse_sparql(path))
    assert "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }" in ctx.paths


@given(seed=st.integers(0, 2**32 - 1), max_path_len=st.integers(1, 4))
def test_written_paths_are_the_rendered_chain_queries(seed, max_path_len):
    """Every path of every linked entity is kept, so each written path text
    is render_sparql's text of its chain query, and parse_sparql reads it
    back to that query."""
    kb = random_kb(random.Random(seed))
    eids = sorted(kb.entities)[:3]
    caps = RetrievalCaps(max_paths=100_000, max_path_len=max_path_len)
    ctx = retrieve_lexical(kb, "class 1 dom c r0", [("e", eid) for eid in eids], caps)
    queries = {}
    for eid in eids:
        for rels in paths_from_entity(kb, eid, max_path_len):
            query = chain_query(eid, rels)
            queries[render_sparql(query)] = query
    assert sorted(ctx.paths) == sorted(queries)
    for path in ctx.paths:
        parsed = parse_sparql(path)
        assert parsed == queries[path] and parsed.patterns == queries[path].patterns


def test_absent_linked_entities_dropped(fig1_kb1):
    ctx = retrieve_lexical(fig1_kb1, "books?", [("ghost", "m.nope"), ("j r hart", "m.0auth")])
    assert ctx.linked_entities == (("j r hart", "m.0auth"),)


def test_union_single_retriever_identity(fig1_kb3):
    question = "which books did j r hart write?"
    linked = [("j r hart", "m.0auth")]
    alone = retrieve_lexical(fig1_kb3, question, linked)
    union = retrieve_union([retrieve_lexical], fig1_kb3, question, linked)
    assert union == alone


def test_union_merges_and_dedups(fig1_kb3):
    written, influenced, published = (
        f"SELECT DISTINCT ?x WHERE {{ ns:m.0auth ns:book.author.{rid} ?x }}"
        for rid in ("works_written", "influenced", "publisher")
    )

    def fake_a(kb, question, linked, caps):
        return RetrievalContext(classes=("book.author", "award.award"), relations=("book.author.publisher",),
                                paths=(written, influenced))

    def fake_b(kb, question, linked, caps):
        return RetrievalContext(classes=("award.award", "book.publisher"), relations=("book.author.publisher", "book.author.influenced"),
                                paths=(influenced, published))

    union = retrieve_union([fake_a, fake_b], fig1_kb3, "q", [])
    assert union.classes == ("book.author", "award.award", "book.publisher")
    assert union.relations == ("book.author.publisher", "book.author.influenced")
    assert union.paths == (written, influenced, published)


def test_union_needs_a_retriever(fig1_kb3):
    with pytest.raises(ValueError) as err:
        retrieve_union([], fig1_kb3, "q", [])
    assert str(err.value) == "at least one retriever is required"


def test_union_recaps(fig1_kb3):
    def fat(kb, question, linked, caps):
        return RetrievalContext(classes=tuple(f"c.{i}" for i in range(30)))

    union = retrieve_union([fat], fig1_kb3, "q", [])
    assert len(union.classes) == 10


def test_render_context_fields(fig1_kb3):
    ctx = RetrievalContext(
        classes=("book.author",),
        relations=("book.author.works_written",),
        paths=(
            "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x }",
            "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.influenced ?x }",
        ),
        linked_entities=(("j r hart", "m.0auth"),),
    )
    fields = render_context_fields(fig1_kb3, ctx)
    assert fields["entities"] == "j r hart m.0auth"
    assert fields["relations"] == "book.author.works_written (type:book.author R type:book.written_work)"
    assert fields["classes"] == "book.author"
    assert fields["paths"] == (
        "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.works_written ?x } | "
        "SELECT DISTINCT ?x WHERE { ns:m.0auth ns:book.author.influenced ?x }"
    )


def test_a_relation_the_kb_lacks_is_rendered_as_its_id(fig1_kb3):
    """A retriever may return a relation the KB no longer has; the prompt
    then shows its bare id, with no signature."""
    ctx = RetrievalContext(relations=("book.author.works_written", "ghost.relation"))
    assert render_context_fields(fig1_kb3, ctx)["relations"] == (
        "book.author.works_written (type:book.author R type:book.written_work) | ghost.relation"
    )


def test_an_entity_linked_twice_gets_its_paths_once(fig1_kb3):
    """Paths are enumerated per distinct entity, so a second mention of the
    same id takes no path slot; both mentions stay linked."""
    question = "which books did j r hart write?"
    mentions = [("j r hart", "m.0auth"), ("hart", "m.0auth")]
    once = retrieve_union([retrieve_lexical], fig1_kb3, question, mentions[:1])
    twice = retrieve_union([retrieve_lexical], fig1_kb3, question, mentions)
    assert len(once.paths) == 5
    assert twice.paths == once.paths
    assert twice.linked_entities == tuple(mentions)


# ---------------------------------------------------------------------------
# Oracle: retrieve_lexical as it was before schema features were memoized or
# scored through postings, and before paths were enumerated as relation
# sequences
# ---------------------------------------------------------------------------

def _oracle_paths(kb, eid, max_len):
    """(relation-id sequence, SPARQL text) of each chain query rooted at an
    entity, sorted by sequence: path enumeration as it was when it built a
    query for every path, with the text written out here."""
    sequences = set()

    def walk(frontier, prefix):
        if len(prefix) >= max_len:
            return
        next_rels = {}
        for node in frontier:
            for fact in kb.by_subject.get(node, ()):
                targets = next_rels.setdefault(fact.relation, set())
                if not isinstance(fact.obj, Literal):
                    targets.add(fact.obj)
        for rid, targets in next_rels.items():
            seq = prefix + (rid,)
            sequences.add(seq)
            if targets:
                walk(targets, seq)

    walk({eid}, ())
    paths = []
    for seq in sorted(sequences):
        patterns = []
        subject = f"ns:{eid}"
        for hop, rid in enumerate(seq):
            obj = "?x" if hop == len(seq) - 1 else f"?x{hop}"
            patterns.append(f"{subject} ns:{rid} {obj}")
            subject = obj
        paths.append((seq, f"SELECT DISTINCT ?x WHERE {{ {' . '.join(patterns)} }}"))
    return paths


def _oracle_lexical_score(question, label, some_id):
    def tokens(text):
        return frozenset(re.findall(r"[a-z0-9]+", text.lower()))

    def trigrams(text):
        squashed = re.sub(r"[^a-z0-9]+", " ", text.lower()).strip()
        if len(squashed) < 3:
            return frozenset({squashed} if squashed else ())
        return frozenset(squashed[i : i + 3] for i in range(len(squashed) - 2))

    def jaccard(a, b):
        if not a or not b:
            return 0.0
        return len(a & b) / len(a | b)

    candidate = f"{label} {some_id}"
    return jaccard(tokens(question), tokens(candidate)) + jaccard(
        trigrams(question), trigrams(candidate)
    )


def _oracle_retrieve(kb, question, linked_entities, caps=RetrievalCaps()):
    class_scores = {
        c.id: _oracle_lexical_score(question, c.label, c.id) for c in kb.classes.values()
    }
    relation_scores = {
        r.id: _oracle_lexical_score(question, "", r.id) for r in kb.relations.values()
    }
    classes = tuple(
        cid
        for cid, score in sorted(class_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        if score > 0
    )
    relations = tuple(
        rid
        for rid, score in sorted(relation_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        if score > 0
    )
    linked = tuple((m, eid) for m, eid in linked_entities if eid in kb.entities)
    scored_paths = []
    for eid in dict.fromkeys(eid for _, eid in linked):
        for rels, path in _oracle_paths(kb, eid, caps.max_path_len):
            score = sum(relation_scores.get(rid, 0.0) for rid in rels)
            scored_paths.append((-score, rels, path))
    scored_paths.sort(key=lambda item: (item[0], item[1]))
    paths = tuple(path for _, _, path in scored_paths)
    return RetrievalContext(
        classes[: caps.max_classes], relations[: caps.max_relations], paths[: caps.max_paths], linked
    )


CAPS = (
    RetrievalCaps(),
    RetrievalCaps(max_classes=0, max_relations=0, max_paths=0),
    RetrievalCaps(max_classes=1, max_relations=1, max_paths=1, max_path_len=1),
    RetrievalCaps(max_classes=1000, max_relations=1000, max_paths=1000),
    RetrievalCaps(max_path_len=3),
    RetrievalCaps(max_paths=100_000, max_path_len=4),
)
FIXTURE_KBS = ("fig1_kb1", "fig1_kb2", "fig1_kb3", "a13_kb", "pairs_kb")


def _kb_words(kb):
    words = [c.label for c in kb.classes.values()] + list(kb.classes) + list(kb.relations)
    return words + [e.label for e in kb.entities.values()]


def _questions(kb):
    """Arbitrary text, the empty string, one or two characters (the short
    trigram branch), punctuation only, and text built from the KB's own
    labels and ids."""
    return st.one_of(
        st.text(max_size=60),
        st.just(""),
        st.text(min_size=1, max_size=2),
        st.text(alphabet=string.punctuation + " ", max_size=8),
        st.lists(st.sampled_from(_kb_words(kb)), max_size=5).map(" ".join),
    )


def _linked(data, kb):
    """Up to three mentions; an id may be linked under more than one."""
    ids = sorted(kb.entities)[:20] + ["m.ghost"]
    picked = data.draw(st.lists(st.sampled_from(ids), max_size=3))
    return [(f"mention {i}", eid) for i, eid in enumerate(picked)]


def _assert_matches_oracle(kb, question, linked):
    """Every caps' context, and each schema element's score, to the bit,
    from ``lexical_score`` and, when it is not 0, from the KB's postings."""
    for caps in CAPS:
        assert retrieve_lexical(kb, question, linked, caps) == _oracle_retrieve(kb, question, linked, caps)
    table = retrieval._TABLES[kb]
    features = retrieval._tokens(question), retrieval._trigrams(question)
    for index, schema in (
        (table.classes, [(c.label, c.id) for c in kb.classes.values()]),
        (table.relations, [("", rid) for rid in kb.relations]),
    ):
        expected = {some_id: _oracle_lexical_score(question, label, some_id) for label, some_id in schema}
        for label, some_id in schema:
            assert lexical_score(question, label, some_id) == expected[some_id]
        assert retrieval._scores(index, *features) == {
            some_id: score for some_id, score in expected.items() if score > 0
        }


@pytest.mark.parametrize("kb_name", FIXTURE_KBS)
@given(data=st.data())
def test_retrieve_lexical_matches_oracle_on_fixtures(request, kb_name, data):
    kb = request.getfixturevalue(kb_name)
    question = data.draw(_questions(kb))
    _assert_matches_oracle(kb, question, _linked(data, kb))


_SHORT = st.text(alphabet="ab -.", max_size=4)


@given(question=st.one_of(_SHORT, st.text(max_size=20)), label=_SHORT, some_id=_SHORT)
def test_lexical_score_matches_oracle(question, label, some_id):
    assert lexical_score(question, label, some_id) == _oracle_lexical_score(question, label, some_id)


def _deletion(rng, kb):
    choice = rng.choice(("classes", "relations", "entities"))
    pool = sorted(getattr(kb, choice))
    return DeletionPlan(**{choice: (rng.choice(pool),)})


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_retrieve_lexical_matches_oracle_on_random_kbs(seed, data):
    rng = random.Random(seed)
    kb = random_kb(rng)
    deleted = delete_elements(kb, _deletion(rng, kb))
    for this in (kb, deleted):
        question = data.draw(_questions(this))
        _assert_matches_oracle(this, question, _linked(data, this))


@given(data=st.data())
def test_one_question_on_two_kbs_gets_each_oracle_answer(a13_kb, fig1_kb3, data):
    question = data.draw(st.one_of(_questions(a13_kb), _questions(fig1_kb3)))
    for kb in (a13_kb, fig1_kb3, a13_kb):
        linked = [("e", eid) for eid in sorted(kb.entities)[:1]]
        assert retrieve_lexical(kb, question, linked) == _oracle_retrieve(kb, question, linked)


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=20)
def test_retrieve_lexical_matches_oracle_at_hub_scale(seed, data):
    """500 relations whose ids share trigrams, so postings lists are long."""
    kb = random_hub_kb(random.Random(seed))
    _assert_matches_oracle(kb, data.draw(_questions(kb)), _linked(data, kb))


def test_questions_are_not_memoized(fig1_kb3):
    """Only schema strings enter a KB's table; no question text does."""
    retrieve_lexical(fig1_kb3, "warm the table", [])
    table = retrieval._TABLES[fig1_kb3]
    before = copy.deepcopy(table)
    for i in range(5):
        retrieve_lexical(fig1_kb3, f"qqz question never asked before {i}", [])
    assert retrieval._TABLES[fig1_kb3] is table and table == before
    features = {feature for postings, _ in table.classes + table.relations for feature in postings}
    assert not any("qqz" in feature or "never" in feature for feature in features)


def test_a_kb_table_dies_with_its_kb():
    gc.collect()
    held = len(retrieval._TABLES)
    kb = random_kb(random.Random(0))
    retrieve_lexical(kb, "class 1 dom c r0", [])
    assert len(retrieval._TABLES) == held + 1
    ref = weakref.ref(kb)
    del kb
    gc.collect()
    assert ref() is None and len(retrieval._TABLES) == held


def test_a_reduced_kb_gets_its_own_table(fig1_kb3):
    rid = "book.author.works_written"
    question = "which works has this author written?"
    features = retrieval._tokens(question), retrieval._trigrams(question)
    reduced = delete_elements(fig1_kb3, DeletionPlan(relations=(rid,)))
    caps = RetrievalCaps(max_relations=1000)
    assert rid in retrieve_lexical(fig1_kb3, question, [], caps).relations
    assert rid not in retrieve_lexical(reduced, question, [], caps).relations
    assert retrieval._TABLES[reduced] is not retrieval._TABLES[fig1_kb3]
    assert rid not in retrieval._scores(retrieval._TABLES[reduced].relations, *features)
    assert rid in retrieval._scores(retrieval._TABLES[fig1_kb3].relations, *features)
    assert rid in retrieve_lexical(fig1_kb3, question, [], caps).relations


@given(a=st.frozensets(st.integers(0, 40)), b=st.frozensets(st.integers(0, 40)))
def test_jaccard_equals_intersection_over_union(a, b):
    expected = len(a & b) / len(a | b) if a and b else 0.0
    assert retrieval._jaccard(a, b) == expected

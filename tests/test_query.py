import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import FIXTURES
from kbqa_repair.executor import execute
from kbqa_repair import query
from kbqa_repair.query import (
    TYPE_ASSERT,
    Aggregate,
    CanonicalQuery,
    Filter,
    Literal,
    LogicalForm,
    QuerySyntaxError,
    Term,
    UnsupportedQuery,
    cls,
    entity,
    extract_classes,
    extract_entities,
    extract_relations,
    parse,
    parse_sexpr,
    parse_sparql,
    rel,
    render_sparql,
    var,
)
from oracles import (
    SEXPR_TOKEN_RE,
    SPARQL_TOKEN_RE,
    reference_parse_sexpr,
    reference_parse_sparql,
    reference_tokenize,
    render_sexpr,
    whitespace_token_regex,
)
from randgen import random_kb, random_query

GENRE_SPARQL = (
    "SELECT DISTINCT ?x WHERE { ?x ns:music.genre.recordings ns:m.0123lk0s . "
    "?x ns:type.object.type ns:music.genre }"
)
GENRE_SEXPR = "(AND music.genre (JOIN music.genre.recordings m.0123lk0s))"


def test_parse_sparql_two_pattern_query():
    q = parse_sparql(GENRE_SPARQL)
    assert q.projection == "x"
    assert q.distinct
    assert len(q.patterns) == 2
    s, p, o = q.patterns[0]
    assert (s.kind, s.value) == ("var", "x")
    assert (p.kind, p.value) == ("relation", "music.genre.recordings")
    assert (o.kind, o.value) == ("entity", "m.0123lk0s")
    s, p, o = q.patterns[1]
    assert p.kind == "type_assert"
    assert (o.kind, o.value) == ("class", "music.genre")


def test_parse_sparql_unbound_projection_is_syntax_error():
    with pytest.raises(QuerySyntaxError) as err:
        parse_sparql("SELECT ?x WHERE { }")
    assert "?x" in str(err.value)


def test_parse_sparql_unknown_word_mentions_token():
    with pytest.raises(QuerySyntaxError) as err:
        parse_sparql("SELECT ?x AND ?y WHERE { ?x ns:rel.a ?y }")
    assert "AND" in err.value.message


def test_parse_sparql_filter():
    q = parse_sparql("SELECT ?x WHERE { ?x ns:rel.year ?z . FILTER(?z < 2024) }")
    assert q.filters == (Filter("z", "<", Literal(2024, "integer")),)
    assert not q.distinct


def test_parse_sparql_literals():
    q = parse_sparql(
        'SELECT ?x WHERE { ?x ns:rel.a "hello" . ?x ns:rel.b 3.5 . ?x ns:rel.c "2024-01-02"^^xsd:date }'
    )
    objs = [o.value for _, _, o in q.patterns]
    assert objs[0] == Literal("hello", "string")
    assert objs[1] == Literal(3.5, "float")
    assert objs[2] == Literal("2024-01-02", "date")


def test_parse_sparql_count():
    q = parse_sparql("SELECT COUNT(DISTINCT ?x) WHERE { ?x ns:rel.a ns:m.01 }")
    assert q.aggregate.kind == "count"
    assert q.distinct


def test_parse_sexpr_matches_sparql_lowering():
    assert parse_sexpr(GENRE_SEXPR) == parse_sparql(GENRE_SPARQL)


def test_parse_sexpr_inverted_relation():
    q = parse_sexpr("(JOIN (R rel.a) m.01)")
    assert len(q.patterns) == 1
    s, p, o = q.patterns[0]
    assert (s.kind, s.value) == ("entity", "m.01")
    assert (p.kind, p.value) == ("relation", "rel.a")
    assert o == var("x")


def test_parse_sexpr_unknown_function():
    with pytest.raises(QuerySyntaxError) as err:
        parse_sexpr("(FOO x)")
    assert "FOO" in str(err.value)


def test_parse_sexpr_unbalanced_parens():
    with pytest.raises(QuerySyntaxError):
        parse_sexpr("(JOIN rel.a (JOIN rel.b m.01)")


def test_parse_sexpr_comparators_and_aggregates():
    q = parse_sexpr("(AND geo.city (gt geo.city.population 1000))")
    assert q.filters[0].op == ">"
    assert q.filters[0].literal == Literal(1000, "integer")
    count = parse_sexpr("(COUNT (JOIN rel.a m.01))")
    assert count.aggregate.kind == "count"
    extremum = parse_sexpr("(ARGMAX (JOIN rel.a m.01) rel.score)")
    assert extremum.aggregate.kind == "argmax"
    assert extremum.aggregate.path == ("rel.score",)


def test_argmax_not_renderable_as_sparql():
    q = parse_sexpr("(ARGMAX (JOIN rel.a m.01) rel.score)")
    with pytest.raises(UnsupportedQuery):
        render_sparql(q)
    assert parse_sexpr(render_sexpr(q)) == q


def test_roundtrip_sparql_corpus():
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    for pair in pairs:
        q = parse_sparql(pair["sparql"])
        assert parse_sparql(render_sparql(q)) == q


def test_roundtrip_sexpr_corpus():
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    for pair in pairs:
        q = parse_sexpr(pair["sexpr"])
        assert parse_sexpr(render_sexpr(q)) == q


def _random_instance(seed):
    rng = random.Random(seed)
    kb = random_kb(rng)
    return kb, random_query(rng, kb)


# Seed 248 draws a string and a date literal.
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=248)
def test_sparql_roundtrip_property(seed):
    _, q = _random_instance(seed)
    try:
        text = render_sparql(q)
    except UnsupportedQuery:
        assume(False)
    assert parse_sparql(text) == q


# Seeds 85, 316, 486 and 538 draw a self-loop that render_sexpr once
# rendered as a different tree.
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=85)
@example(seed=316)
@example(seed=486)
@example(seed=538)
def test_sexpr_roundtrip_property(seed):
    kb, q = _random_instance(seed)
    try:
        text = render_sexpr(q)
    except UnsupportedQuery:
        assume(False)
    back = parse_sexpr(text)
    assert execute(kb, back) == execute(kb, q)
    assert render_sexpr(back) == text


@pytest.mark.parametrize(
    "patterns",
    [
        "?a ns:r.one ?a . ?a ns:type.object.type ns:c.k",
        "?a ns:type.object.type ns:c.k . ?a ns:r.one ?a",
        "?a ns:r.one ?b . ?b ns:r.two ?a",
    ],
)
def test_render_sexpr_rejects_cycles(patterns):
    q = parse_sparql(f"SELECT DISTINCT ?a WHERE {{ {patterns} }}")
    with pytest.raises(UnsupportedQuery, match="not a tree rooted at the projection"):
        render_sexpr(q)


def test_dialect_agreement_corpus():
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    assert len(pairs) >= 20
    for pair in pairs:
        assert parse_sparql(pair["sparql"]) == parse_sexpr(pair["sexpr"])


def test_extract_sets():
    q = parse_sparql(GENRE_SPARQL)
    assert extract_relations(q) == ("music.genre.recordings",)
    assert extract_entities(q) == ("m.0123lk0s",)
    assert extract_classes(q) == ("music.genre",)
    # Each id once, in first-appearance order over the patterns, which is
    # not the sorted order here.
    q = parse_sparql(
        "SELECT ?x WHERE { ns:m.2 ns:r.b ?x . ?x ns:r.a ns:m.1 . ns:m.2 ns:r.a ?y . "
        "?x ns:type.object.type ns:c.z . ?y ns:type.object.type ns:c.a . ?y ns:r.b ns:m.1 . "
        "?y ns:type.object.type ns:c.z }"
    )
    assert extract_relations(q) == ("r.b", "r.a")
    assert extract_entities(q) == ("m.2", "m.1")
    assert extract_classes(q) == ("c.z", "c.a")
    # The aggregate path comes after the patterns' relations.
    q = parse_sexpr("(ARGMAX (AND c.z (JOIN r.b (JOIN r.a m.2))) r.c r.b)")
    assert extract_relations(q) == ("r.a", "r.b", "r.c")
    assert extract_entities(q) == ("m.2",)
    assert extract_classes(q) == ("c.z",)


def test_extract_empty_entity_set():
    q = parse_sparql("SELECT ?x WHERE { ?x ns:rel.a ?y }")
    assert extract_entities(q) == ()
    assert extract_classes(q) == ()


def test_extract_same_sets_across_dialects():
    sparql = parse_sparql(GENRE_SPARQL)
    sexpr = parse_sexpr(GENRE_SEXPR)
    assert extract_relations(sparql) == extract_relations(sexpr)
    assert extract_entities(sparql) == extract_entities(sexpr)


def test_extract_invariant_under_variable_renaming():
    pairs = json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())
    for pair in pairs:
        text = pair["sparql"]
        renamed = text
        for old, new in (("?x0", "?middle"), ("?x", "?thing")):
            renamed = renamed.replace(old, new)
        a, b = parse_sparql(text), parse_sparql(renamed)
        assert extract_relations(a) == extract_relations(b)
        assert extract_entities(a) == extract_entities(b)


def test_parse_rejects_an_unknown_dialect():
    with pytest.raises(ValueError) as err:
        parse(GENRE_SPARQL, "sql")
    assert str(err.value) == "unknown dialect 'sql'"


def test_a_query_equals_no_value_of_another_type():
    q = parse_sparql(GENRE_SPARQL)
    assert q.__eq__(GENRE_SPARQL) is NotImplemented
    assert q != GENRE_SPARQL and q != None  # noqa: E711


def test_logical_form_from_text():
    lf = LogicalForm.from_text("sparql", GENRE_SPARQL)
    assert lf.parsed and not lf.is_nk
    nk = LogicalForm.from_text("sparql", "NK")
    assert nk.is_nk
    broken = LogicalForm.from_text("sparql", "SELECT gibberish {")
    assert not broken.parsed and broken.parse_error


# One row per parse-error branch: the message is the V1 feedback a model
# repairs against, so each is pinned as written.
PARSE_ERRORS = [
    ("sparql", "SELECT ?x WHERE ?x", "expected '{', found '?x'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y } LIMIT", "unexpected trailing input 'LIMIT'"),
    ("sparql", "SELECT ?x WHERE { ?x ?p ?y }",
     "expected a relation id in predicate position, found '?p'"),
    ("sparql", "SELECT ?x WHERE { 5 ns:a.b ?y }", "expected a subject term, found '5'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b }", "expected an object term, found '}'"),
    ("sparql", "SELECT COUNT(?x WHERE { ?x ns:a.b ?y }", "word WHERE not defined, expected ')'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER ?y > 3 }", "expected '(', found '?y'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?y ns:c 3) }",
     "expected a comparator, found 'ns:c'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?y > ?x) }",
     "expected a literal in FILTER, found '?x'"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y foo }", "word foo not defined"),
    ("sparql", "SELECT ?x WHERE { ?x ns:type.object.type ?y }",
     "object of a type assertion must be a class id"),
    ("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?z > 3) }",
     "filter variable ?z is not bound in any pattern"),
    ("sexpr", "()", "empty expression"),
    ("sexpr", "((JOIN a b) c)", "expression head must be a function name"),
    ("sexpr", "(JOIN a)", "JOIN takes a relation and an argument"),
    ("sexpr", "(AND a)", "AND takes two arguments"),
    ("sexpr", "(AND c.d m.x)", "AND with a class needs a set-valued argument"),
    ("sexpr", "(AND m.x m.y)", "AND arguments must be set-valued"),
    ("sexpr", "(AND m.x (FOO))", "unknown function FOO"),
    ("sexpr", "(lt a)", "lt takes a relation and a literal"),
    ("sexpr", "(AND (COUNT a.b) a.b)", "COUNT is only allowed at the top level"),
    ("sexpr", "(JOIN (X a) m.x)", "expected a relation id or (R relation)"),
    ("sexpr", "(COUNT a b)", "COUNT takes one argument"),
    ("sexpr", "(ARGMAX a)", "ARGMAX takes an expression and a relation path"),
    ("sexpr", "(ARGMAX a.b (R c))", "aggregate relation path must be relation ids"),
    ("sexpr", ")", "unexpected ')'"),
    ("sexpr", "(JOIN (R a.b) 5)", "pattern subject must be a variable or entity, got literal"),
    pytest.param("sexpr", "(JOIN r " * 3000 + "m.x" + ")" * 3000, "expression nested too deeply",
                 id="sexpr-nested-too-deeply"),
    pytest.param("sparql", "SELECT ?x WHERE { ?x ns:a.b " + "9" * 309 + " }", "number out of range",
                 id="sparql-integer-past-float"),
    pytest.param("sparql", "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?y > " + "9" * 5000 + ") }",
                 "number out of range", id="sparql-integer-past-digit-limit"),
    pytest.param("sparql", "SELECT ?x WHERE { ?x ns:a.b -" + "9" * 309 + ".0 }", "number out of range",
                 id="sparql-float-past-float"),
    pytest.param("sexpr", "(lt a.b " + "9" * 5000 + ")", "number out of range",
                 id="sexpr-integer-past-digit-limit"),
]


@pytest.mark.parametrize("dialect, text, message", PARSE_ERRORS)
def test_parse_error_message(dialect, text, message):
    assert LogicalForm.from_text(dialect, text).parse_error == message


def _chain(depth):
    return "(JOIN r " * depth + "m.x" + ")" * depth


def _from_text_frames_down(frames, text):
    if frames:
        return _from_text_frames_down(frames - 1, text)
    return LogicalForm.from_text("sexpr", text)


@pytest.mark.parametrize("frames", [0, 150])
def test_sexpr_depth_bound_is_the_same_at_any_stack_depth(frames):
    assert _from_text_frames_down(frames, _chain(query._MAX_DEPTH)).parsed
    too_deep = _from_text_frames_down(frames, _chain(query._MAX_DEPTH + 1))
    assert too_deep.parse_error == "expression nested too deeply"


def test_sexpr_nested_too_deeply_is_reported_at_the_opening_parenthesis():
    text = _chain(query._MAX_DEPTH + 1)
    with pytest.raises(QuerySyntaxError) as err:
        parse_sexpr(text)
    assert err.value.position == len("(JOIN r ") * query._MAX_DEPTH


def test_number_out_of_range_is_reported_at_the_token():
    number = "1" + "0" * 400
    text = "SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?y < " + number + ") }"
    with pytest.raises(QuerySyntaxError) as err:
        parse_sparql(text)
    assert (err.value.message, err.value.position) == ("number out of range", text.index(number))


@pytest.mark.parametrize("value", [1e-05, 1e20, -2.5e-7, 1e308])
def test_render_sparql_writes_a_float_the_parser_reads_back(value):
    q = parse_sparql("SELECT ?x WHERE { ?x ns:a.b ?y . FILTER(?y > 1.5) }")
    q = CanonicalQuery(q.projection, q.distinct, q.patterns, (Filter("y", ">", Literal(value, "float")),))
    text = render_sparql(q)
    assert "e" not in text.split("FILTER")[1]
    back = parse_sparql(text).filters[0].literal
    assert back == Literal(value, "float") and type(back.value) is float


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**309, -10**309])
def test_a_number_literal_fits_a_float(value):
    for datatype in ("integer", "float") if type(value) is int else ("float",):
        with pytest.raises(ValueError):
            Literal(value, datatype)


# ---------------------------------------------------------------------------
# The scanner against the tokenizer that matched each whitespace run apart
# ---------------------------------------------------------------------------

_FRAGMENTS = (
    "SELECT", "DISTINCT", "WHERE", "FILTER", "COUNT", "{", "}", "(", ")", ".",
    "?x", "?v_1", "ns:m.0auth", "ns:type.object.type", "ns:", "-12", "3.25", "7",
    "<", "<=", ">=", "!=", "=", ">", '"2024-01-05"^^xsd:date', '"1999-12-31"^^date',
    '"a \\" b"', '"unterminated', "JOIN", "(R rel.a)", "m.01", "book.author", "g.x-y",
)


def _scanner_input():
    """Text mixed from SPARQL and s-expression fragments, whitespace of every
    kind, and stray characters."""
    piece = st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2003", min_size=1, max_size=3),
        st.text(max_size=2),
        st.sampled_from("@#$%^&*[]|;,'\\`~"),
    )
    return st.lists(piece, max_size=12).map("".join)


def _scan(tokenize, text):
    """The tokens, or the error's (message, position)."""
    try:
        return tokenize(text)
    except QuerySyntaxError as err:
        return (err.message, err.position)


# Per dialect: the scan regex, and its token grammar with each kind a named
# group.  The scan gives token texts only; the readers find kinds from them,
# and positions only to raise.
_SCANNERS = {
    "sparql": (query._SPARQL_RE, SPARQL_TOKEN_RE),
    "sexpr": (query._SEXPR_RE, SEXPR_TOKEN_RE),
}


@pytest.mark.parametrize("dialect", _SCANNERS)
@given(text=_scanner_input())
def test_tokenize_matches_the_whitespace_token_reference(dialect, text):
    token_re, regex = _SCANNERS[dialect]
    reference = whitespace_token_regex(regex)
    expected = _scan(lambda text: [tok.text for tok in reference_tokenize(reference, text)], text)
    assert _scan(lambda text: query._scan(token_re, text), text) == expected


def test_unexpected_character_is_reported_after_whitespace():
    text = "SELECT ?x WHERE {  @ }"
    with pytest.raises(QuerySyntaxError) as err:
        parse_sparql(text)
    assert err.value.message == "unexpected character '@'"
    assert err.value.position == text.index("@")
    assert LogicalForm.from_text("sparql", text).parse_error == "unexpected character '@'"


# ---------------------------------------------------------------------------
# The SPARQL reader against the token-object reader it replaced
# ---------------------------------------------------------------------------

def _gold_sparql():
    """The SPARQL text of every paired fixture query, every gold query and
    every scripted reply."""
    texts = [pair["sparql"] for pair in json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())]
    for path in sorted(FIXTURES.glob("*/dataset*.jsonl")):
        for line in path.read_text().splitlines():
            gold = json.loads(line)["gold_lf"]
            if gold != "NK" and gold["dialect"] == "sparql":
                texts.append(gold["text"])
    for path in sorted(FIXTURES.glob("*/mock*.json")):
        texts += [rule["reply"] for rule in json.loads(path.read_text())]
    return texts + [
        GENRE_SPARQL,
        'SELECT COUNT(DISTINCT ?x) WHERE { ?x ns:r.a "s" . ?x ns:r.b ?y . FILTER(?y >= -2.5) }',
        'select distinct ?x where { ?x ns:r.d "2024-01-05"^^xsd:date . filter(?x != 7) }',
    ]


_GOLD_SPARQL = _gold_sparql()

# Keywords in any case, ids, variables, literals good and bad, comparators,
# punctuation, characters that start no token (one upper-cases to S) and
# whitespace of every kind.
_SPARQL_FRAGMENTS = (
    "SELECT", "select", "Select", "DISTINCT", "distinct", "WHERE", "wHeRe", "FILTER", "filter",
    "COUNT", "Count", "LIMIT", "ns:m.0auth", "ns:type.object.type", "ns:book.written_work", "ns:",
    "ns", "?", "?x", "?y", "?x0", '"', '"a"', '"\\q"', '"\\u12"', '"a\nb"', '"unterminated',
    '"2024-01-05"^^xsd:date', '"2024-01-05"^^date', "7", "-12", "3.25", "-", "9" * 400, "\u0663",
    "<", "<=", ">=", "!=", "=", ">", "{", "}", "(", ")", ".", "\u017f", "\u017felect", "@",
    " ", "\n", "\t", "\u00a0", "\u2003", "\u3000",
)


def _mutate(rng, text, fragments):
    """``text`` with one to three of ``fragments`` inserted, deleted or
    replaced, at positions drawn evenly over the text."""
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(0, len(text))
        end = rng.randint(start, min(len(text), start + 8))
        edit = rng.choice(("insert", "delete", "replace"))
        fragment = "" if edit == "delete" else rng.choice(fragments)
        text = text[:start] + fragment + text[start if edit == "insert" else end:]
    return text


@st.composite
def _mutated_sparql(draw):
    """A gold query, mutated by ``_mutate``."""
    text = draw(st.sampled_from(_GOLD_SPARQL))
    return _mutate(draw(st.randoms(use_true_random=False)), text, _SPARQL_FRAGMENTS)


def _read(parse_text, text):
    """The query's repr, pattern and filter order included, or the error's
    (message, position)."""
    try:
        return repr(parse_text(text))
    except QuerySyntaxError as err:
        return (err.message, err.position)


@settings(max_examples=1000)
@given(text=st.one_of(st.sampled_from(_GOLD_SPARQL), _mutated_sparql()))
@example(text=" ?x")  # a keyword's place taken by a token that is not a word
@example(text="\u2003 SELECT ?x WHERE { ?x ns:a.b ?y } @")  # an error after leading whitespace
def test_parse_sparql_matches_the_reference_reader(text):
    assert _read(parse_sparql, text) == _read(reference_parse_sparql, text)


_LITERAL_SHELLS = {
    "sparql": ("SELECT ?x WHERE { ?x ns:book.author.works_written ", " }"),
    "sexpr": ("(JOIN book.author.works_written ", ")"),
}


@pytest.mark.parametrize("dialect", _LITERAL_SHELLS)
@given(text=st.text(alphabet='"\\\nqu0 ', max_size=10), inner=st.text(alphabet='\\\nqu0 ', max_size=8))
def test_from_text_never_raises_on_quotes_backslashes_and_newlines(dialect, text, inner):
    """Quotes, backslashes and newlines, alone or as a string literal in a
    query, parse or record why not; invalid escapes and raw newlines too."""
    before, after = _LITERAL_SHELLS[dialect]
    for surface in (text, before + '"' + inner + '"' + after):
        lf = LogicalForm.from_text(dialect, surface)
        assert lf.is_nk or lf.parsed != bool(lf.parse_error)


@pytest.mark.parametrize("literal", ['"\\q"', '"a\nb"', '"\\u12"'], ids=["escape", "newline", "unicode"])
def test_string_literal_json_rejects_is_a_syntax_error(literal):
    for dialect, (before, after) in _LITERAL_SHELLS.items():
        text = before + literal + after
        with pytest.raises(QuerySyntaxError) as err:
            parse(text, dialect)
        assert err.value.message == "bad escape or control character in a string"
        assert err.value.position == text.index(literal)


@given(seed=st.integers(0, 2**32 - 1))
def test_render_sparql_keeps_its_first_text(seed):
    _, q = _random_instance(seed)
    try:
        first = render_sparql(q)
    except UnsupportedQuery:
        assume(False)
    fresh = CanonicalQuery(q.projection, q.distinct, q.patterns, q.filters, q.aggregate)
    assert render_sparql(q) == first
    assert render_sparql(fresh) == first
    assert fresh == q and hash(fresh) == hash(q)


# ---------------------------------------------------------------------------
# The s-expression lowerer against the bottom-up lowerer
# ---------------------------------------------------------------------------

class _BottomUpLowerer:
    """The reference lowering: each node is lowered on a variable of its own,
    and AND renames its right side's variable into its left side's."""

    def __init__(self):
        self.counter = 0
        self.patterns = []
        self.filters = []

    def fresh(self):
        self.counter += 1
        return var(f"v{self.counter}")

    def lower(self, node):
        if isinstance(node, Literal):
            return Term("literal", node)
        if isinstance(node, str):
            if node.startswith(("m.", "g.")):
                return entity(node)
            out = self.fresh()
            self.patterns.append((out, TYPE_ASSERT, cls(node)))
            return out
        if not node:
            raise QuerySyntaxError("empty expression")
        head = node[0]
        if not isinstance(head, str):
            raise QuerySyntaxError("expression head must be a function name")
        if head == "JOIN":
            if len(node) != 3:
                raise QuerySyntaxError("JOIN takes a relation and an argument")
            relation, inverted = self._relation(node[1])
            target = self.lower(node[2])
            out = self.fresh()
            self.patterns.append((target, rel(relation), out) if inverted else (out, rel(relation), target))
            return out
        if head == "AND":
            if len(node) != 3:
                raise QuerySyntaxError("AND takes two arguments")
            left, right = node[1], node[2]
            if isinstance(left, str) and not left.startswith(("m.", "g.")):
                out = self.lower(right)
                if out.kind != "var":
                    raise QuerySyntaxError("AND with a class needs a set-valued argument")
                self.patterns.append((out, TYPE_ASSERT, cls(left)))
                return out
            out = self.lower(left)
            other = self.lower(right)
            if not (out.kind == "var" and other.kind == "var"):
                raise QuerySyntaxError("AND arguments must be set-valued")
            self.patterns = [tuple(out if t == other else t for t in p) for p in self.patterns]
            self.filters = [
                Filter(out.value, f.op, f.literal) if f.variable == other.value else f
                for f in self.filters
            ]
            return out
        if head in query._SEXPR_COMPARATORS:
            if len(node) != 3 or not isinstance(node[1], str) or not isinstance(node[2], Literal):
                raise QuerySyntaxError(f"{head} takes a relation and a literal")
            out = self.fresh()
            value_var = self.fresh()
            self.patterns.append((out, rel(node[1]), value_var))
            self.filters.append(Filter(value_var.value, query._SEXPR_COMPARATORS[head], node[2]))
            return out
        if head in ("COUNT", "ARGMAX", "ARGMIN"):
            raise QuerySyntaxError(f"{head} is only allowed at the top level")
        raise QuerySyntaxError(f"unknown function {head}")

    def _relation(self, node):
        if isinstance(node, str):
            return node, False
        if isinstance(node, list) and len(node) == 2 and node[0] == "R" and isinstance(node[1], str):
            return node[1], True
        raise QuerySyntaxError("expected a relation id or (R relation)")


def _bottom_up_parse_sexpr(text):
    tokens = query._scan(query._SEXPR_RE, text) + [""]
    if not tokens[0]:
        raise QuerySyntaxError("empty input")
    tree, i = query._read_sexpr(text, tokens, 0, 0)
    if tokens[i]:
        query._fail_at(query._SEXPR_RE, text, i, "unexpected trailing input")
    aggregate = None
    if isinstance(tree, list) and tree and tree[0] == "COUNT":
        if len(tree) != 2:
            raise QuerySyntaxError("COUNT takes one argument")
        aggregate, tree = Aggregate("count"), tree[1]
    elif isinstance(tree, list) and tree and tree[0] in ("ARGMAX", "ARGMIN"):
        if len(tree) < 3:
            raise QuerySyntaxError(f"{tree[0]} takes an expression and a relation path")
        if not all(isinstance(p, str) for p in tree[2:]):
            raise QuerySyntaxError("aggregate relation path must be relation ids")
        aggregate, tree = Aggregate(tree[0].lower(), tuple(tree[2:])), tree[1]
    lowerer = _BottomUpLowerer()
    out = lowerer.lower(tree)
    if out.kind != "var":
        raise QuerySyntaxError("top-level expression must be set-valued")
    q = CanonicalQuery(out.value, True, tuple(lowerer.patterns), tuple(lowerer.filters), aggregate)
    q = query._canonicalize_variables(q)
    q.validate()
    return q


_SEXPR_RELATIONS = st.sampled_from(["rel.a", "rel.b", "geo.pop"])
_SEXPR_LITERALS = st.sampled_from(["5", "-2", "2.5", '"s"', '"2024-01-05"^^date'])


def _sexpr_nodes(children):
    """JOIN, AND and comparator nodes, and malformed nodes of any head and arity."""
    relation = st.one_of(_SEXPR_RELATIONS, _SEXPR_RELATIONS.map(lambda r: ["R", r]))
    return st.one_of(
        st.tuples(st.just("JOIN"), relation, children).map(list),
        st.tuples(st.just("AND"), children, children).map(list),
        st.tuples(st.sampled_from(sorted(query._SEXPR_COMPARATORS)), _SEXPR_RELATIONS, _SEXPR_LITERALS).map(list),
        st.tuples(
            st.one_of(st.sampled_from(["JOIN", "AND", "R", "lt", "COUNT", "ARGMAX", "FOO"]), children),
            st.lists(st.one_of(children, relation), max_size=3),
        ).map(lambda t: [t[0], *t[1]]),
    )


_SEXPR_TREES = st.recursive(
    st.one_of(st.sampled_from(["m.x", "g.y", "c.d", "geo.city", "rel.a", "()", "FOO"]), _SEXPR_LITERALS),
    _sexpr_nodes,
    max_leaves=12,
)


def _sexpr_text(node):
    return "(" + " ".join(map(_sexpr_text, node)) + ")" if isinstance(node, list) else node


def _lowered(parse_sexpr_text, text):
    """The canonical query with its pattern and filter order, or the error message."""
    try:
        q = parse_sexpr_text(text)
    except QuerySyntaxError as err:
        return err.message
    return (q.projection, q.distinct, q.patterns, q.filters, q.aggregate)


@settings(max_examples=500)
@given(tree=st.one_of(
    _SEXPR_TREES,
    _SEXPR_TREES.map(lambda t: ["COUNT", t]),
    st.tuples(st.sampled_from(["ARGMAX", "ARGMIN"]), _SEXPR_TREES, st.lists(_SEXPR_RELATIONS, max_size=2))
    .map(lambda t: [t[0], t[1], *t[2]]),
))
@example(tree=["AND", "m.x", ["FOO"]])
@example(tree=["AND", "c.d", ["AND", ["JOIN", "rel.a", "m.x"], ["lt", "geo.pop", "5"]]])
@example(tree=["COUNT", ["AND", ["JOIN", ["R", "rel.b"], ["AND", "geo.city", "c.d"]], ["JOIN", "rel.a", "g.y"]]])
def test_sexpr_lowering_matches_the_bottom_up_lowerer(tree):
    text = _sexpr_text(tree)
    assert _lowered(parse_sexpr, text) == _lowered(_bottom_up_parse_sexpr, text)


# ---------------------------------------------------------------------------
# The s-expression reader against the kind-tagged token reader it replaced
# ---------------------------------------------------------------------------

_PAIRED_SEXPR = [pair["sexpr"] for pair in json.loads((FIXTURES / "pairs/paired_dialects.json").read_text())]

# Parentheses, symbols, a sign and a dot that start no symbol, characters
# that start no token, literals good and bad (a number past the int digit
# limit, bad string escapes, a date with either tag) and whitespace of every
# kind.
_SEXPR_FRAGMENTS = (
    "(", ")", "()", "JOIN", "AND", "R", "COUNT", "ARGMAX", "lt", "FOO", "m.x", "g.y-z", "geo.city",
    "_a", "5x", "-", ".", "@", "\u00e9", "9" * 400, "-2", "2.5", "1.", '"', '"s"', '"\\q"',
    '"\\u12"', '"a\nb"', '"unterminated', '"2024-01-05"^^date', '"2024-01-05"^^xsd:date',
    " ", "\n", "\t", "\u00a0", "\u2003", "\u3000",
)


@st.composite
def _mutated_sexpr(draw):
    """A paired fixture s-expression or a drawn tree's text, mutated by ``_mutate``."""
    text = draw(st.one_of(st.sampled_from(_PAIRED_SEXPR), _SEXPR_TREES.map(_sexpr_text)))
    return _mutate(draw(st.randoms(use_true_random=False)), text, _SEXPR_FRAGMENTS)


@settings(max_examples=300)
@given(text=st.one_of(st.sampled_from(_PAIRED_SEXPR), _mutated_sexpr()))
@example(text="(JOIN r m.x")  # unbalanced, reported at the opening parenthesis
@example(text="(" * 101 + ")" * 101)  # nested too deeply
@example(text="\u2003 (JOIN r m.x)  m.y")  # an error after leading whitespace
def test_parse_sexpr_matches_the_reference_reader(text):
    assert _read(parse_sexpr, text) == _read(reference_parse_sexpr, text)

"""Test oracles: reference implementations that exist only to check the
package against, and the s-expression renderer only tests and
tools/make_fixtures.py use.

``brute_force_execute`` defines query semantics by enumerating every variable
assignment over the KB's terms; keep it dumb.  ``pruned_execute`` gives the
same answers by backtracking, and is fast enough for criterion 3's 500 cases.
Both share the engine's literal comparison (``_compare``, ``_values_equal``),
so the engines agree on one rule for comparing literals.  ``same_as``
compares two knowledge bases by value, ``reference_indexes`` rebuilds a
KB's lookup indexes one key at a time, and ``reference_paths`` finds an
entity's relation paths by scanning every fact at each hop;
``chain_query`` is the query of one such path.
``reference_load_data`` reads a data file by ``kb.check`` alone, the route
``load_data``'s inline tests shortcut.  ``reference_tokenize`` is the
tokenizer that spent one regex match on each whitespace run and tagged each
token with its kind (a named group of ``SPARQL_TOKEN_RE`` or
``SEXPR_TOKEN_RE``, built from the package's grammars) and position.  The two
reference readers read those tokens by kind, a literal too:
``reference_parse_sparql`` is the SPARQL reader that read them through parser
methods, and ``reference_parse_sexpr`` the s-expression reader that read them
into a tree, raising at a token's position as it found each error, and
lowered the tree through the package's lowerer.
``render_sexpr`` writes a canonical query as an s-expression.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from kbqa_repair.executor import _NUMERIC, _compare, _values_equal
from kbqa_repair.kb import Entity, Fact, FormatError, KnowledgeBase, check, read_jsonl
from kbqa_repair.query import (
    _MAX_DEPTH,
    _SEXPR_COMPARATORS,
    _SEXPR_TOKENS,
    _SPARQL_TOKENS,
    TYPE_ASSERT,
    TYPE_ASSERT_ID,
    Aggregate,
    CanonicalQuery,
    Filter,
    Literal,
    Pattern,
    QuerySyntaxError,
    Term,
    UnsupportedQuery,
    _canonicalize_variables,
    _is_set,
    _render_literal,
    _SexprLowerer,
    cls,
    entity,
    rel,
    var,
)


class SizeLimit(Exception):
    """Brute-force enumeration would exceed the configured bound."""


def _domain(kb: KnowledgeBase) -> list[object]:
    """Every entity id plus every literal appearing in a fact."""
    domain: list[object] = sorted(kb.entities)
    seen_literals = set()
    for fact in kb.facts:
        if fact.obj_is_literal and fact.obj not in seen_literals:
            seen_literals.add(fact.obj)
            domain.append(fact.obj)
    return domain


def _ground(term: Term, assignment: dict) -> object:
    if term.kind == "var":
        return assignment[term.value]
    return term.value


def _pattern_holds(kb: KnowledgeBase, pattern, assignment: dict) -> bool:
    s, p, o = pattern
    subject = _ground(s, assignment)
    if p.kind == "type_assert":
        if not isinstance(subject, str):
            return False
        ent = kb.entities.get(subject)
        return ent is not None and o.value in ent.classes
    return _fact_holds(kb, subject, p.value, _ground(o, assignment))


def _filter_holds(f, assignment: dict) -> bool:
    value = assignment.get(f.variable)
    return isinstance(value, Literal) and _compare(value, f.op, f.literal)


def _answer(kb: KnowledgeBase, q: CanonicalQuery, projected: set) -> frozenset:
    if q.aggregate is None:
        return frozenset(projected)
    if q.aggregate.kind == "count":
        return frozenset({Literal(len(projected), "integer")})
    return _brute_force_extremum(kb, q.aggregate, projected)


def brute_force_execute(kb: KnowledgeBase, q: CanonicalQuery, limit: int = 5_000_000) -> frozenset:
    """Reference semantics by exhaustive assignment enumeration.

    The variable domain is every entity id plus every literal appearing in a
    fact.  Raises SizeLimit when the assignment space exceeds ``limit``.
    """
    domain = _domain(kb)
    variables = q.variables()
    if len(domain) ** len(variables) > limit:
        raise SizeLimit(
            f"{len(domain)}^{len(variables)} assignments exceed the bound of {limit}"
        )

    projected = set()
    for combo in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all(_pattern_holds(kb, p, assignment) for p in q.patterns) and all(
            _filter_holds(f, assignment) for f in q.filters
        ):
            projected.add(assignment[q.projection])
    return _answer(kb, q, projected)


def pruned_execute(kb: KnowledgeBase, q: CanonicalQuery) -> frozenset:
    """``brute_force_execute`` by backtracking over ``q.variables()``.

    Each pattern and filter is checked as soon as its last variable is bound,
    by the same checks, so a failed check skips every assignment that extends
    the partial one.  It reads only ``kb.entities`` and ``kb.facts``, never
    the executor's indexes.
    """
    domain = _domain(kb)
    variables = q.variables()
    depth = {name: i for i, name in enumerate(variables)}
    patterns_at: list[list] = [[] for _ in variables]
    filters_at: list[list] = [[] for _ in variables]
    for pattern in q.patterns:
        names = [t.value for t in (pattern[0], pattern[2]) if t.kind == "var"]
        patterns_at[max((depth[n] for n in names), default=0)].append(pattern)
    for f in q.filters:
        filters_at[depth[f.variable]].append(f)

    projected = set()
    assignment: dict = {}

    def extend(level: int) -> None:
        if level == len(variables):
            projected.add(assignment[q.projection])
            return
        for value in domain:
            assignment[variables[level]] = value
            if all(_pattern_holds(kb, p, assignment) for p in patterns_at[level]) and all(
                _filter_holds(f, assignment) for f in filters_at[level]
            ):
                extend(level + 1)
        del assignment[variables[level]]

    extend(0)
    return _answer(kb, q, projected)


def _fact_holds(kb: KnowledgeBase, subject: object, relation: str, obj: object) -> bool:
    for fact in kb.facts:
        if fact.relation != relation:
            continue
        if not _values_equal(subject, fact.subject):
            continue
        if _values_equal(obj, fact.obj):
            return True
    return False


def _brute_force_extremum(kb: KnowledgeBase, agg: Aggregate, projected: set) -> frozenset:
    scores = {}
    for value in projected:
        frontier = {value} if isinstance(value, str) else set()
        for rid in agg.path[:-1]:
            frontier = {
                f.obj
                for f in kb.facts
                if f.relation == rid and f.subject in frontier and not f.obj_is_literal
            }
        numbers = [
            float(f.obj.value)
            for f in kb.facts
            if f.relation == agg.path[-1]
            and f.subject in frontier
            and f.obj_is_literal
            and f.obj.datatype in _NUMERIC
        ]
        if numbers:
            scores[value] = max(numbers) if agg.kind == "argmax" else min(numbers)
    if not scores:
        return frozenset()
    best = max(scores.values()) if agg.kind == "argmax" else min(scores.values())
    return frozenset(v for v, s in scores.items() if s == best)


def same_as(a: KnowledgeBase, b: KnowledgeBase) -> bool:
    return (
        a.classes == b.classes
        and a.relations == b.relations
        and a.entities == b.entities
        and a.facts == b.facts
    )


def reference_indexes(kb: KnowledgeBase) -> dict[str, dict]:
    """A KB's four indexes, by attribute name, rebuilt from ``kb.entities``
    and ``kb.facts`` one key at a time.  Keys come in order of first
    appearance (an entity's classes in sorted order); class members are
    sorted, and facts keep ``kb.facts``' order."""
    entities, facts = list(kb.entities.values()), kb.facts
    class_ids = dict.fromkeys(cid for ent in entities for cid in sorted(ent.classes))
    subjects = dict.fromkeys(f.subject for f in facts)
    objects = dict.fromkeys(f.obj for f in facts if not f.obj_is_literal)
    relations = dict.fromkeys(f.relation for f in facts)
    return {
        "by_class": {c: tuple(sorted(e.id for e in entities if c in e.classes)) for c in class_ids},
        "by_subject": {s: tuple(f for f in facts if f.subject == s) for s in subjects},
        "by_object": {o: tuple(f for f in facts if not f.obj_is_literal and f.obj == o) for o in objects},
        "by_relation": {r: tuple(f for f in facts if f.relation == r) for r in relations},
    }


def reference_paths(kb: KnowledgeBase, eid: str, max_len: int) -> list[tuple[str, ...]]:
    """The sorted relation-id sequences of the chains of 1 to ``max_len``
    facts from ``eid``, each fact's subject the previous fact's object.  A
    literal is never a subject, so chains pass only through entity objects."""
    found: set[tuple[str, ...]] = set()
    chains = {((), eid)}
    for _ in range(max_len):
        chains = {
            (rels + (f.relation,), f.obj) for rels, node in chains for f in kb.facts if f.subject == node
        }
        found.update(rels for rels, _ in chains)
    return sorted(found)


def chain_query(eid: str, rels: tuple[str, ...]) -> CanonicalQuery:
    """``?x`` along the relations ``rels`` from entity ``eid``, through the
    hops ``?x0 ?x1 ...``."""
    nodes = [entity(eid), *(var(f"x{hop}") for hop in range(len(rels) - 1)), var("x")]
    return CanonicalQuery("x", True, tuple(zip(nodes, map(rel, rels), nodes[1:])))


def reference_load_data(path: str) -> tuple[list[Entity], list[Fact]]:
    """A data file's entities and facts, each line checked by ``check``
    against SHAPES: the data record, then the entity or fact, then the entity
    or literal object; then ``Literal`` checks a literal's value."""
    entities, facts = [], []
    for lineno, record in read_jsonl(path):
        if "id" in check(record, "data record", lineno):
            check(record, "entity", lineno)
            classes = frozenset(record.get("classes", ()))
            entities.append(Entity(record["id"], record.get("label", ""), classes))
        elif "s" in record:
            obj = check(record, "fact", lineno)["o"]
            if "entity" in obj:
                target = check(obj, "entity object", lineno)["entity"]
            elif "literal" in obj:
                check(obj, "literal object", lineno)
                try:
                    target = Literal(obj["literal"], obj.get("type", "string"))
                except ValueError as err:
                    raise FormatError(str(err), lineno) from err
            else:
                raise FormatError("fact object must be {entity: id} or {literal, type}", lineno)
            facts.append(Fact(record["s"], record["r"], target))
        else:
            raise FormatError("record is neither an entity ({id,...}) nor a fact ({s,r,o})", lineno)
    return entities, facts


# ---------------------------------------------------------------------------
# Tokenizer reference
# ---------------------------------------------------------------------------

def whitespace_token_regex(regex: re.Pattern) -> re.Pattern:
    """The same token alternatives as ``regex``, whose pattern is
    ``\\s*(?:...)``, after a ``ws`` group instead of the ``\\s*`` prefix."""
    body = regex.pattern.strip()
    assert body.startswith(r"\s*(?:"), body
    return re.compile(r"(?P<ws>\s+)|" + body[len(r"\s*"):], regex.flags)


@dataclass(frozen=True)
class ReferenceTok:
    kind: str
    text: str
    pos: int


def reference_tokenize(regex: re.Pattern, text: str) -> list[ReferenceTok]:
    """Split text into the regex's named groups, dropping whitespace.
    ``regex`` has a ``ws`` group, as ``whitespace_token_regex`` builds."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = regex.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(ReferenceTok(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _named_token_re(tokens: tuple[tuple[str, str], ...]) -> re.Pattern:
    """A token grammar's regex with each kind a named group."""
    return re.compile(r"\s*(?:" + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in tokens) + ")")


SPARQL_TOKEN_RE = _named_token_re(_SPARQL_TOKENS)
SEXPR_TOKEN_RE = _named_token_re(_SEXPR_TOKENS)
_SPARQL_WS_RE = whitespace_token_regex(SPARQL_TOKEN_RE)
_SEXPR_WS_RE = whitespace_token_regex(SEXPR_TOKEN_RE)


# ---------------------------------------------------------------------------
# SPARQL reader reference
# ---------------------------------------------------------------------------

class _ReferenceSparqlParser:
    def __init__(self, text: str):
        self.toks = reference_tokenize(_SPARQL_WS_RE, text) + [ReferenceTok("eof", "", len(text))]
        self.i = 0

    def peek(self) -> ReferenceTok:
        return self.toks[self.i]

    def next(self) -> ReferenceTok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> None:
        raise QuerySyntaxError(message, self.peek().pos)

    def accept(self, want: str) -> bool:
        """Consume the next token if it is the keyword (any case) or punctuation ``want``."""
        tok = self.peek()
        if tok.kind == "word" and tok.text.upper() == want or tok.kind == "punct" and tok.text == want:
            self.i += 1
            return True
        return False

    def expect(self, want: str) -> None:
        if self.accept(want):
            return
        tok = self.peek()
        shown = want if want.isalpha() else repr(want)
        if tok.kind == "word":
            self.fail(f"word {tok.text} not defined, expected {shown}")
        self.fail(f"expected {shown}, found {tok.text or 'end of input'!r}")

    def parse(self) -> CanonicalQuery:
        self.expect("SELECT")
        distinct = self.accept("DISTINCT")
        aggregate = None
        if self.accept("COUNT"):
            self.expect("(")
            distinct = self.accept("DISTINCT") or distinct
            projection = self._variable()
            self.expect(")")
            aggregate = Aggregate("count")
        else:
            projection = self._variable()
        self.accept("WHERE")
        self.expect("{")
        patterns: list[Pattern] = []
        filters: list[Filter] = []
        while not self.accept("}"):
            if self.accept("."):
                continue
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unexpected end of input, expected '}'")
            if self.accept("FILTER"):
                filters.append(self._filter())
            elif tok.kind == "word":
                self.fail(f"word {tok.text} not defined")
            else:
                patterns.append(self._triple())
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        query = CanonicalQuery(projection, distinct, tuple(patterns), tuple(filters), aggregate)
        query.validate()
        return query

    def _variable(self) -> str:
        tok = self.peek()
        if tok.kind != "var":
            self.fail(f"expected a variable, found {tok.text or 'end of input'!r}")
        self.next()
        return tok.text[1:]

    def _triple(self) -> Pattern:
        subject = self._node(position="subject")
        predicate = self._predicate()
        obj = self._node(position="object", typed=predicate.kind == "type_assert")
        return (subject, predicate, obj)

    def _predicate(self) -> Term:
        tok = self.peek()
        if tok.kind != "id":
            self.fail(f"expected a relation id in predicate position, found {tok.text!r}")
        self.next()
        rid = tok.text[3:]
        if rid == TYPE_ASSERT_ID:
            return TYPE_ASSERT
        return rel(rid)

    def _node(self, position: str, typed: bool = False) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return var(tok.text[1:])
        if tok.kind == "id":
            self.next()
            return cls(tok.text[3:]) if typed else entity(tok.text[3:])
        literal = _reference_literal(tok) if position == "object" else None
        if literal is not None:
            self.next()
            return Term("literal", literal)
        article = "an" if position[0] in "aeiou" else "a"
        self.fail(f"expected {article} {position} term, found {tok.text or 'end of input'!r}")

    def _filter(self) -> Filter:
        self.expect("(")
        variable = self._variable()
        tok = self.peek()
        if tok.kind != "op":
            self.fail(f"expected a comparator, found {tok.text!r}")
        self.next()
        op = tok.text
        literal = _reference_literal(self.peek())
        if literal is None:
            self.fail(f"expected a literal in FILTER, found {self.peek().text!r}")
        self.next()
        self.expect(")")
        return Filter(variable, op, literal)


def _reference_literal(tok: ReferenceTok) -> Literal | None:
    """The literal a number, date or string token denotes; None for any other token."""
    if tok.kind == "number":
        try:
            if "." in tok.text:
                return Literal(float(tok.text), "float")
            return Literal(int(tok.text), "integer")
        except ValueError:  # past the int digit limit, or no float holds it
            raise QuerySyntaxError("number out of range", tok.pos) from None
    if tok.kind == "date":
        return Literal(tok.text[1:11], "date")
    if tok.kind == "string":
        try:
            return Literal(json.loads(tok.text), "string")
        except json.JSONDecodeError as err:
            raise QuerySyntaxError("bad escape or control character in a string", tok.pos) from err
    return None


def reference_parse_sparql(text: str) -> CanonicalQuery:
    """Parse the supported SPARQL subset into a canonical query."""
    return _ReferenceSparqlParser(text).parse()


# ---------------------------------------------------------------------------
# S-expression reader reference
# ---------------------------------------------------------------------------

def _reference_read_sexpr(tokens: list[ReferenceTok], i: int, depth: int) -> tuple[object, int]:
    tok = tokens[i]
    if tok.kind == "open":
        if depth == _MAX_DEPTH:
            raise QuerySyntaxError("expression nested too deeply", tok.pos)
        items = []
        i += 1
        while True:
            if i >= len(tokens):
                raise QuerySyntaxError("unexpected end of input, unbalanced parentheses", tok.pos)
            if tokens[i].kind == "close":
                return items, i + 1
            item, i = _reference_read_sexpr(tokens, i, depth + 1)
            items.append(item)
    if tok.kind == "close":
        raise QuerySyntaxError("unexpected ')'", tok.pos)
    literal = _reference_literal(tok)
    return (tok.text if literal is None else literal), i + 1


def reference_parse_sexpr(text: str) -> CanonicalQuery:
    """Parse an s-expression and lower it to a canonical query."""
    tokens = reference_tokenize(_SEXPR_WS_RE, text)
    if not tokens:
        raise QuerySyntaxError("empty input")
    tree, i = _reference_read_sexpr(tokens, 0, 0)
    if i != len(tokens):
        raise QuerySyntaxError("unexpected trailing input", tokens[i].pos)

    aggregate = None
    if isinstance(tree, list) and tree and tree[0] == "COUNT":
        if len(tree) != 2:
            raise QuerySyntaxError("COUNT takes one argument")
        aggregate = Aggregate("count")
        tree = tree[1]
    elif isinstance(tree, list) and tree and tree[0] in ("ARGMAX", "ARGMIN"):
        if len(tree) < 3:
            raise QuerySyntaxError(f"{tree[0]} takes an expression and a relation path")
        path = tree[2:]
        if not all(isinstance(p, str) for p in path):
            raise QuerySyntaxError("aggregate relation path must be relation ids")
        aggregate = Aggregate(tree[0].lower(), tuple(path))
        tree = tree[1]

    if not _is_set(tree):
        raise QuerySyntaxError("top-level expression must be set-valued")
    lowerer = _SexprLowerer()
    out = lowerer.fresh()
    lowerer.bind(tree, out)
    query = CanonicalQuery(
        out.value, True, tuple(lowerer.patterns), tuple(lowerer.filters), aggregate
    )
    query = _canonicalize_variables(query)
    query.validate()
    return query


# ---------------------------------------------------------------------------
# S-expression rendering
# ---------------------------------------------------------------------------

def _sexpr_literal(literal: Literal) -> str:
    """A literal as SPARQL writes it, but with the s-expression date tag."""
    if literal.datatype == "date":
        return f'"{literal.value}"^^date'
    return _render_literal(literal)


def render_sexpr(q: CanonicalQuery) -> str:
    """Render a tree-shaped canonical query as an s-expression.

    Raises UnsupportedQuery when the pattern graph is not a tree rooted at
    the projection variable (s-expressions cannot express such queries).
    """
    consumed: set[int] = set()
    filters_by_var: dict[str, list[Filter]] = {}
    for f in q.filters:
        filters_by_var.setdefault(f.variable, []).append(f)
    consumed_filters: set[int] = set()
    rendered: set[str] = set()

    def edges_of(name: str) -> list[tuple[int, Pattern]]:
        found = []
        for idx, (s, p, o) in enumerate(q.patterns):
            if idx in consumed:
                continue
            if (s.kind == "var" and s.value == name) or (o.kind == "var" and o.value == name):
                found.append((idx, (s, p, o)))
        return found

    def render_term(term: Term) -> str:
        if term.kind == "entity":
            return term.value
        if term.kind == "literal":
            return _sexpr_literal(term.value)
        raise UnsupportedQuery(f"cannot render {term.kind} term as an s-expression leaf")

    def comparator_part(name: str, idx: int, pattern: Pattern) -> str | None:
        # Pattern (name, r, z) where z is only used in one filter -> (op r lit).
        s, p, o = pattern
        if not (s.kind == "var" and s.value == name and o.kind == "var" and p.kind == "relation"):
            return None
        z = o.value
        if len(edges_of(z)) != 1 or len(filters_by_var.get(z, [])) != 1:
            return None
        f = filters_by_var[z][0]
        op_name = {v: k for k, v in _SEXPR_COMPARATORS.items()}.get(f.op)
        if op_name is None:
            return None
        consumed.add(idx)
        consumed_filters.add(id(f))
        value = _sexpr_literal(f.literal)
        return f"({op_name} {p.value} {value})"

    def expr_for(name: str) -> str:
        # A tree reaches each variable once; reaching one again is a cycle.
        if name in rendered:
            raise UnsupportedQuery("pattern graph is not a tree rooted at the projection")
        rendered.add(name)
        parts: list[str] = []
        for idx, (s, p, o) in edges_of(name):
            if p.kind == "type_assert":
                consumed.add(idx)
                parts.append(o.value)
                continue
            comp = comparator_part(name, idx, (s, p, o))
            if comp is not None:
                parts.append(comp)
                continue
            consumed.add(idx)
            if s.kind == "var" and s.value == name:
                target = expr_for(o.value) if o.kind == "var" else render_term(o)
                parts.append(f"(JOIN {p.value} {target})")
            else:
                target = expr_for(s.value) if s.kind == "var" else render_term(s)
                parts.append(f"(JOIN (R {p.value}) {target})")
        if not parts:
            raise UnsupportedQuery(f"variable ?{name} has no constraints to render")
        # Classes first so (AND class expr) reads naturally.
        parts.sort(key=lambda part: (part.startswith("("), part))
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = f"(AND {part} {out})"
        return out

    body = expr_for(q.projection)
    if len(consumed) != len(q.patterns):
        raise UnsupportedQuery("pattern graph is not a tree rooted at the projection")
    for f in q.filters:
        if id(f) not in consumed_filters:
            raise UnsupportedQuery("filter variable is not a leaf of the pattern tree")
    if q.aggregate is not None:
        if q.aggregate.kind == "count":
            return f"(COUNT {body})"
        return f"({q.aggregate.kind.upper()} {body} {' '.join(q.aggregate.path)})"
    return body

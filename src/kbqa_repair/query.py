"""Query dialects and the canonical query AST.

Two surface dialects (a SPARQL subset and s-expressions) parse into one
canonical form so that verification, execution and scoring never care which
dialect a logical form arrived in.  A logical form may also be the ``NK``
sentinel, meaning "no valid query exists for this KB".
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

TYPE_ASSERT_ID = "type.object.type"

LITERAL_DATATYPES = ("integer", "float", "string", "date")

_SEXPR_COMPARATORS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}

NK_TEXT = "NK"

# The Python types a literal's value may have, by datatype; a bool is never
# a number, a number fits a float (so NaN and the infinities do not), and a
# date is ISO ``YYYY-MM-DD`` text.
_VALUE_TYPES = {"integer": int, "float": (int, float), "string": str, "date": str}
_FLOAT_MAX = sys.float_info.max
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")


def shorten(text: str, width: int = 80) -> str:
    """``text`` as an error message shows it: cut to ``width`` characters,
    the last three "...", when it is longer."""
    return text if len(text) <= width else text[:width - 3] + "..."


class QuerySyntaxError(Exception):
    """Raised when surface text cannot be parsed.

    ``message`` is human readable (it becomes verifier feedback); ``position``
    is a character offset into the input where the problem was detected.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.message = message
        self.position = position


class UnsupportedQuery(Exception):
    """The canonical query cannot be rendered in the requested dialect."""


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value: integer, float, string or date (ISO text)."""

    value: object
    datatype: str

    def __post_init__(self):
        if self.datatype not in LITERAL_DATATYPES:
            raise ValueError(f"unknown literal datatype {self.datatype!r}")
        value = self.value
        if (
            not isinstance(value, _VALUE_TYPES[self.datatype])
            or isinstance(value, bool)
            or (self.datatype in ("integer", "float") and not -_FLOAT_MAX <= value <= _FLOAT_MAX)
            or (self.datatype == "date" and _DATE_RE.fullmatch(value) is None)
        ):
            raise ValueError(f"{self.datatype} literal has value {shorten(repr(value))}")


@dataclass(frozen=True)
class Term:
    """One position of a triple pattern: a kind and one value.

    ``kind`` is one of ``var``, ``entity``, ``class``, ``relation``,
    ``literal``, ``type_assert``.  ``value`` is the variable name or the id,
    and a literal term's ``value`` is its ``Literal``.
    """

    kind: str
    value: str | Literal


def var(name: str) -> Term:
    return Term("var", name)


def entity(eid: str) -> Term:
    return Term("entity", eid)


def cls(cid: str) -> Term:
    return Term("class", cid)


def rel(rid: str) -> Term:
    return Term("relation", rid)


def lit(value: object, datatype: str) -> Term:
    return Term("literal", Literal(value, datatype))


TYPE_ASSERT = Term("type_assert", TYPE_ASSERT_ID)

Pattern = tuple[Term, Term, Term]


@dataclass(frozen=True)
class Filter:
    variable: str
    op: str
    literal: Literal


@dataclass(frozen=True)
class Aggregate:
    kind: str  # "count" | "argmax" | "argmin"
    path: tuple[str, ...] = ()  # relation ids, argmax/argmin only


@dataclass(frozen=True, eq=False)
class CanonicalQuery:
    projection: str
    distinct: bool
    patterns: tuple[Pattern, ...]
    filters: tuple[Filter, ...] = ()
    aggregate: Aggregate | None = None

    def _key(self):
        # Pattern and filter ORDER is presentation, not meaning: equality and
        # hashing treat them as sets.
        return (
            self.projection,
            self.distinct,
            frozenset(self.patterns),
            frozenset(self.filters),
            self.aggregate,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalQuery):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def variables(self) -> list[str]:
        """Variable names in first-appearance order over the patterns; a valid
        query binds every filter variable in a pattern."""
        seen: list[str] = []
        for s, _, o in self.patterns:
            for term in (s, o):
                if term.kind == "var" and term.value not in seen:
                    seen.append(term.value)
        return seen

    def validate(self) -> None:
        pattern_vars = set()
        for s, p, o in self.patterns:
            if s.kind not in ("var", "entity"):
                raise QuerySyntaxError(f"pattern subject must be a variable or entity, got {s.kind}")
            if p.kind == "type_assert" and o.kind != "class":
                raise QuerySyntaxError("object of a type assertion must be a class id")
            for term in (s, o):
                if term.kind == "var":
                    pattern_vars.add(term.value)
        if self.projection not in pattern_vars:
            raise QuerySyntaxError(
                f"projection variable ?{self.projection} is not bound in the query body"
            )
        for f in self.filters:
            if f.variable not in pattern_vars:
                raise QuerySyntaxError(f"filter variable ?{f.variable} is not bound in any pattern")


@dataclass(frozen=True)
class LogicalForm:
    """Surface text in a dialect plus its canonical query, or the NK sentinel.

    When the surface text does not parse, ``canonical`` is None and
    ``parse_error`` carries the parser message (consumed by the syntax
    verifier, not raised).
    """

    dialect: str
    surface: str
    canonical: CanonicalQuery | None = None
    is_nk: bool = False
    parse_error: str | None = None

    @classmethod
    def nk(cls) -> "LogicalForm":
        return cls(dialect="sparql", surface=NK_TEXT, is_nk=True)

    @classmethod
    def from_text(cls, dialect: str, text: str) -> "LogicalForm":
        """Parse surface text; parse failure is recorded, not raised."""
        stripped = text.strip()
        if stripped.strip('"\'' ) == NK_TEXT:
            return cls.nk()
        try:
            canonical = parse(stripped, dialect)
            return cls(dialect=dialect, surface=stripped, canonical=canonical)
        except QuerySyntaxError as err:
            return cls(dialect=dialect, surface=stripped, parse_error=err.message)

    @property
    def parsed(self) -> bool:
        return self.canonical is not None


# ---------------------------------------------------------------------------
# SPARQL subset
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<date>"(\d{4}-\d{2}-\d{2})"\^\^xsd:date)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<id>ns:[A-Za-z0-9_][A-Za-z0-9_.\-]*)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[{}().])
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    )
    """,
    re.VERBOSE,
)

_SPACE_RE = re.compile(r"\s*")


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(regex: re.Pattern, text: str) -> list[_Tok]:
    """Split text into the regex's named groups.

    Each token pattern starts with ``\\s*``, so one match consumes a token
    and the whitespace before it.  When no token matches, the scan has
    reached the end of the text or an unexpected character after some
    whitespace."""
    tokens = []
    match = regex.match
    pos = 0
    while (m := match(text, pos)) is not None:
        kind = m.lastgroup
        tokens.append(_Tok(kind, m[kind], m.start(kind)))
        pos = m.end()
    pos = _SPACE_RE.match(text, pos).end()
    if pos < len(text):
        raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
    return tokens


class _SparqlParser:
    def __init__(self, text: str):
        self.toks = _tokenize(_TOKEN_RE, text) + [_Tok("eof", "", len(text))]
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
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
        literal = _literal(tok) if position == "object" else None
        if literal is not None:
            self.next()
            return Term("literal", literal)
        self.fail(f"expected a {position} term, found {tok.text or 'end of input'!r}")

    def _filter(self) -> Filter:
        self.expect("(")
        variable = self._variable()
        tok = self.peek()
        if tok.kind != "op":
            self.fail(f"expected a comparator, found {tok.text!r}")
        self.next()
        op = tok.text
        literal = _literal(self.peek())
        if literal is None:
            self.fail(f"expected a literal in FILTER, found {self.peek().text!r}")
        self.next()
        self.expect(")")
        return Filter(variable, op, literal)


def _literal(tok: _Tok) -> Literal | None:
    """The literal a number, date or string token denotes (both dialects);
    None for any other token."""
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


def parse_sparql(text: str) -> CanonicalQuery:
    """Parse the supported SPARQL subset into a canonical query."""
    return _SparqlParser(text).parse()


def render_sparql(q: CanonicalQuery) -> str:
    """The query's SPARQL text."""
    if q.aggregate is not None and q.aggregate.kind in ("argmax", "argmin"):
        raise UnsupportedQuery("argmax/argmin cannot be rendered in the sparql dialect")
    if q.aggregate is not None and q.aggregate.kind == "count":
        proj = f"COUNT(DISTINCT ?{q.projection})" if q.distinct else f"COUNT(?{q.projection})"
        head = f"SELECT {proj}"
    else:
        head = "SELECT "
        if q.distinct:
            head += "DISTINCT "
        head += f"?{q.projection}"
    term = _render_sparql_term
    parts = [" . ".join([f"{term(s)} {term(p)} {term(o)}" for s, p, o in q.patterns])]
    for f in q.filters:
        value = _render_literal(f.literal)
        parts.append(f"FILTER(?{f.variable} {f.op} {value})")
    body = " . ".join(part for part in parts if part)
    return f"{head} WHERE {{ {body} }}"


def _render_sparql_term(term: Term) -> str:
    if term.kind == "var":
        return f"?{term.value}"
    if term.kind == "literal":
        return _render_literal(term.value)
    return f"ns:{term.value}"


def _render_literal(literal: Literal) -> str:
    if literal.datatype == "integer":
        return str(literal.value)
    if literal.datatype == "float":  # positional, as the number token reads it: 1e-05 is 0.00001
        text = format(Decimal(repr(literal.value)), "f")
        return text if "." in text else text + ".0"
    if literal.datatype == "date":
        return f'"{literal.value}"^^xsd:date'
    return json.dumps(literal.value)


# ---------------------------------------------------------------------------
# S-expressions
# ---------------------------------------------------------------------------

_SEXPR_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<open>\()
  | (?P<close>\))
  | (?P<date>"(\d{4}-\d{2}-\d{2})"\^\^date)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<symbol>[A-Za-z0-9_][A-Za-z0-9_.\-]*)
    )
    """,
    re.VERBOSE,
)


# Parentheses an s-expression may nest, so the text alone decides whether it
# parses, not the caller's stack depth; this bounds the lowerer's recursion too.
_MAX_DEPTH = 100


def _read_sexpr(tokens: list[_Tok], i: int, depth: int) -> tuple[object, int]:
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
            item, i = _read_sexpr(tokens, i, depth + 1)
            items.append(item)
    if tok.kind == "close":
        raise QuerySyntaxError("unexpected ')'", tok.pos)
    literal = _literal(tok)
    return (tok.text if literal is None else literal), i + 1


def _is_set(node: object) -> bool:
    """Whether an s-expression node denotes a set: anything but a literal or
    a machine id (m./g. prefix), which each denote one value."""
    return not (isinstance(node, Literal) or isinstance(node, str) and node.startswith(("m.", "g.")))


class _SexprLowerer:
    """Lower a parsed s-expression tree to the canonical query form.

    Bare symbols follow the Freebase convention: machine ids (m./g. prefix)
    denote entities, dotted names denote classes read as instance sets.
    ``bind(node, out)`` adds the patterns and filters that put the variable
    ``out`` in the set ``node`` denotes; a JOIN gives its argument a fresh
    variable only when that argument is a set.
    """

    def __init__(self):
        self.counter = 0
        self.patterns: list[Pattern] = []
        self.filters: list[Filter] = []

    def fresh(self) -> Term:
        self.counter += 1
        return var(f"v{self.counter}")

    def bind(self, node: object, out: Term) -> None:
        """``node`` is a set (see ``_is_set``): a class symbol or an expression."""
        if isinstance(node, str):
            self.patterns.append((out, TYPE_ASSERT, cls(node)))
            return
        if not node:
            raise QuerySyntaxError("empty expression")
        head = node[0]
        if not isinstance(head, str):
            raise QuerySyntaxError("expression head must be a function name")
        if head == "JOIN":
            if len(node) != 3:
                raise QuerySyntaxError("JOIN takes a relation and an argument")
            relation, inverted = self._relation(node[1])
            arg = node[2]
            if _is_set(arg):
                target = self.fresh()
                self.bind(arg, target)
            else:
                target = Term("literal" if isinstance(arg, Literal) else "entity", arg)
            self.patterns.append((target, rel(relation), out) if inverted else (out, rel(relation), target))
            return
        if head == "AND":
            if len(node) != 3:
                raise QuerySyntaxError("AND takes two arguments")
            left, right = node[1], node[2]
            # A class narrows its argument, and its type pattern comes after the
            # argument's: _canonicalize_variables names variables in pattern order.
            narrows = isinstance(left, str) and _is_set(left)
            for side in (right, left) if narrows else (left, right):
                if _is_set(side):
                    self.bind(side, out)
            if not (_is_set(left) and _is_set(right)):
                raise QuerySyntaxError(
                    "AND with a class needs a set-valued argument" if narrows
                    else "AND arguments must be set-valued"
                )
            return
        if head in _SEXPR_COMPARATORS:
            if len(node) != 3 or not isinstance(node[1], str) or not isinstance(node[2], Literal):
                raise QuerySyntaxError(f"{head} takes a relation and a literal")
            value_var = self.fresh()
            self.patterns.append((out, rel(node[1]), value_var))
            self.filters.append(Filter(value_var.value, _SEXPR_COMPARATORS[head], node[2]))
            return
        if head in ("COUNT", "ARGMAX", "ARGMIN"):
            raise QuerySyntaxError(f"{head} is only allowed at the top level")
        raise QuerySyntaxError(f"unknown function {head}")

    def _relation(self, node: object) -> tuple[str, bool]:
        if isinstance(node, str):
            return node, False
        if isinstance(node, list) and len(node) == 2 and node[0] == "R" and isinstance(node[1], str):
            return node[1], True
        raise QuerySyntaxError("expected a relation id or (R relation)")


def parse_sexpr(text: str) -> CanonicalQuery:
    """Parse an s-expression and lower it to a canonical query.

    Supported functions: AND, JOIN, R, COUNT, ARGMAX, ARGMIN and the
    comparators lt/le/gt/ge.  Anything else is a syntax error.
    """
    tokens = _tokenize(_SEXPR_TOKEN_RE, text)
    if not tokens:
        raise QuerySyntaxError("empty input")
    tree, i = _read_sexpr(tokens, 0, 0)
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


def _canonicalize_variables(q: CanonicalQuery) -> CanonicalQuery:
    """Rename variables to x (projection) then x0, x1, ... by appearance."""
    mapping = {q.projection: "x"}
    counter = 0
    for name in q.variables():
        if name not in mapping:
            mapping[name] = f"x{counter}"
            counter += 1

    def rename(term: Term) -> Term:
        if term.kind == "var":
            return var(mapping[term.value])
        return term

    patterns = tuple((rename(s), p, rename(o)) for s, p, o in q.patterns)
    filters = tuple(Filter(mapping[f.variable], f.op, f.literal) for f in q.filters)
    return CanonicalQuery("x", q.distinct, patterns, filters, q.aggregate)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def parse(text: str, dialect: str) -> CanonicalQuery:
    if dialect == "sparql":
        return parse_sparql(text)
    if dialect == "sexpr":
        return parse_sexpr(text)
    raise ValueError(f"unknown dialect {dialect!r}")


def extract_relations(q: CanonicalQuery) -> tuple[str, ...]:
    """Relation ids used by the query (type assertions excluded), each once,
    in first-appearance order over the patterns, then the aggregate path."""
    found = [p.value for _, p, _ in q.patterns if p.kind == "relation"]
    if q.aggregate is not None:
        found += q.aggregate.path
    return tuple(dict.fromkeys(found))


def extract_entities(q: CanonicalQuery) -> tuple[str, ...]:
    """Entity ids used by the query (class objects of type assertions
    excluded), each once, in first-appearance order over the patterns."""
    return tuple(dict.fromkeys(
        term.value for s, _, o in q.patterns for term in (s, o) if term.kind == "entity"
    ))


def extract_classes(q: CanonicalQuery) -> tuple[str, ...]:
    """Class ids asserted by the query, each once, in first-appearance order."""
    return tuple(dict.fromkeys(o.value for _, p, o in q.patterns if p.kind == "type_assert"))

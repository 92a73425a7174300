"""Query dialects and the canonical query AST.

Two surface dialects (a SPARQL subset and s-expressions) parse into one
canonical form so that verification, execution and scoring never care which
dialect a logical form arrived in.  A logical form may also be the ``NK``
sentinel, meaning "no valid query exists for this KB".

Both dialects are read alike: one scan gives each token's text, the reader
tells a token's kind from that text, and positions are found only to raise.
"""

from __future__ import annotations

import json
import re
import string
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import NoReturn

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
# Token scan, shared by both dialects
# ---------------------------------------------------------------------------

def _token_re(tokens: tuple[tuple[str, str], ...]) -> re.Pattern:
    """The scan of (kind, pattern) pairs: a match is a token and the whitespace
    before it, or a character that starts no token, which findall reads as ''."""
    return re.compile(r"\s*(?:(" + "|".join(pattern for _, pattern in tokens) + r")|\S)")


def _scan(token_re: re.Pattern, text: str) -> list[str]:
    """The text of each token in ``text``, in one scan."""
    tokens = token_re.findall(text)
    if "" in tokens:
        pos = next(m for m in token_re.finditer(text) if m[1] is None).end() - 1
        raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
    return tokens


def _fail_at(token_re: re.Pattern, text: str, i: int, message: str) -> NoReturn:
    """Raise ``message`` at token ``i`` of ``text``, or at its end if it has no
    token ``i``: only an error needs positions, so the same scan finds them here."""
    starts = [m.start(1) for m in token_re.finditer(text)]
    raise QuerySyntaxError(message, starts[i] if i < len(starts) else len(text))


def _literal(text: str) -> Literal | None:
    """The literal a number, date or string token's text denotes; None for
    any other token.  A number that no literal holds and a string that is not
    a JSON string raise a QuerySyntaxError that the caller places at the token."""
    first = text[:1]
    if first == '"':
        if text[-1] != '"':  # "YYYY-MM-DD"^^xsd:date, or ^^date in an s-expression
            return Literal(text[1:11], "date")
        try:
            return Literal(json.loads(text), "string")
        except json.JSONDecodeError as err:
            raise QuerySyntaxError("bad escape or control character in a string") from err
    if first == "-" or first.isdigit():
        try:
            if "." in text:
                return Literal(float(text), "float")
            return Literal(int(text), "integer")
        except ValueError:  # past the int digit limit, or no float holds it
            raise QuerySyntaxError("number out of range") from None
    return None


# ---------------------------------------------------------------------------
# SPARQL subset
# ---------------------------------------------------------------------------

# The SPARQL tokens by kind, in the order the scan tries them.  The reader
# tells a token's kind from its text alone, as ``parse_sparql`` says.
_SPARQL_TOKENS = (
    ("date", r'"\d{4}-\d{2}-\d{2}"\^\^xsd:date'),
    ("string", r'"(?:[^"\\]|\\.)*"'),
    ("id", r"ns:[A-Za-z0-9_][A-Za-z0-9_.\-]*"),
    ("var", r"\?[A-Za-z_][A-Za-z0-9_]*"),
    ("number", r"-?\d+\.\d+|-?\d+"),
    ("op", r"<=|>=|!=|=|<|>"),
    ("punct", r"[{}().]"),
    ("word", r"[A-Za-z_][A-Za-z0-9_.]*"),
)
_SPARQL_RE = _token_re(_SPARQL_TOKENS)

_WORD_START = frozenset(string.ascii_letters + "_")
_COMPARATORS = frozenset(dict(_SPARQL_TOKENS)["op"].split("|"))


def _fail_expected(text: str, tokens: list[str], i: int, want: str) -> NoReturn:
    """Raise the error for a missing keyword or punctuation ``want`` at token ``i``."""
    tok = tokens[i]
    shown = want if want.isalpha() else repr(want)
    if tok[:1] in _WORD_START and tok[:3] != "ns:":
        _fail_at(_SPARQL_RE, text, i, f"word {tok} not defined, expected {shown}")
    _fail_at(_SPARQL_RE, text, i, f"expected {shown}, found {tok or 'end of input'!r}")


def parse_sparql(text: str) -> CanonicalQuery:
    """Parse the supported SPARQL subset into a canonical query.

    One scan reads every token's text, and the reader tells a token's kind
    from it: ``?`` starts a variable, ``ns:`` an id, ``"`` a string or a
    date, a digit or ``-`` a number; punctuation and comparators are
    themselves, and anything else is a word, which is a keyword in any case.
    A token's position is worked out only to raise at it.
    """
    toks = _scan(_SPARQL_RE, text)
    toks.append("")  # the end of input, the one '' in the list
    tok = toks[0]
    if not (tok[:1] in _WORD_START and tok.upper() == "SELECT"):
        _fail_expected(text, toks, 0, "SELECT")
    tok = toks[1]
    distinct = tok[:1] in _WORD_START and tok.upper() == "DISTINCT"
    i = 2 if distinct else 1
    aggregate = None
    tok = toks[i]
    if tok[:1] in _WORD_START and tok.upper() == "COUNT":
        if toks[i + 1] != "(":
            _fail_expected(text, toks, i + 1, "(")
        i += 2
        tok = toks[i]
        if tok[:1] in _WORD_START and tok.upper() == "DISTINCT":
            distinct = True
            i += 1
        aggregate = Aggregate("count")
    tok = toks[i]
    if tok[:1] != "?":
        _fail_at(_SPARQL_RE, text, i, f"expected a variable, found {tok or 'end of input'!r}")
    projection = tok[1:]
    i += 1
    if aggregate is not None:
        if toks[i] != ")":
            _fail_expected(text, toks, i, ")")
        i += 1
    tok = toks[i]
    if tok[:1] in _WORD_START and tok.upper() == "WHERE":
        i += 1
    if toks[i] != "{":
        _fail_expected(text, toks, i, "{")
    i += 1
    patterns: list[Pattern] = []
    filters: list[Filter] = []
    while True:
        tok = toks[i]
        first = tok[:1]
        if first == "?" or tok[:3] == "ns:":  # a triple pattern
            subject = Term("var", tok[1:]) if first == "?" else Term("entity", tok[3:])
            tok = toks[i + 1]
            if tok[:3] != "ns:":
                _fail_at(_SPARQL_RE, text, i + 1, f"expected a relation id in predicate position, found {tok!r}")
            rid = tok[3:]
            typed = rid == TYPE_ASSERT_ID
            predicate = TYPE_ASSERT if typed else Term("relation", rid)
            i += 2
            tok = toks[i]
            if tok[:1] == "?":
                obj = Term("var", tok[1:])
            elif tok[:3] == "ns:":
                obj = Term("class" if typed else "entity", tok[3:])
            else:
                try:
                    literal = _literal(tok)
                except QuerySyntaxError as err:
                    _fail_at(_SPARQL_RE, text, i, err.message)
                if literal is None:
                    _fail_at(_SPARQL_RE, text, i, f"expected an object term, found {tok or 'end of input'!r}")
                obj = Term("literal", literal)
            patterns.append((subject, predicate, obj))
            i += 1
        elif tok == "}":
            break
        elif tok == ".":
            i += 1
        elif first in _WORD_START:
            if tok.upper() != "FILTER":
                _fail_at(_SPARQL_RE, text, i, f"word {tok} not defined")
            if toks[i + 1] != "(":
                _fail_expected(text, toks, i + 1, "(")
            i += 2
            tok = toks[i]
            if tok[:1] != "?":
                _fail_at(_SPARQL_RE, text, i, f"expected a variable, found {tok or 'end of input'!r}")
            variable = tok[1:]
            op = toks[i + 1]
            if op not in _COMPARATORS:
                _fail_at(_SPARQL_RE, text, i + 1, f"expected a comparator, found {op!r}")
            i += 2
            tok = toks[i]
            try:
                literal = _literal(tok)
            except QuerySyntaxError as err:
                _fail_at(_SPARQL_RE, text, i, err.message)
            if literal is None:
                _fail_at(_SPARQL_RE, text, i, f"expected a literal in FILTER, found {tok!r}")
            if toks[i + 1] != ")":
                _fail_expected(text, toks, i + 1, ")")
            filters.append(Filter(variable, op, literal))
            i += 2
        elif not tok:
            _fail_at(_SPARQL_RE, text, i, "unexpected end of input, expected '}'")
        else:
            _fail_at(_SPARQL_RE, text, i, f"expected a subject term, found {tok!r}")
    i += 1
    if toks[i]:
        _fail_at(_SPARQL_RE, text, i, f"unexpected trailing input {toks[i]!r}")
    query = CanonicalQuery(projection, distinct, tuple(patterns), tuple(filters), aggregate)
    query.validate()
    return query


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

# The s-expression tokens by kind, in the order the scan tries them.  The
# reader tells a token's kind from its text alone, as ``parse_sexpr`` says.
_SEXPR_TOKENS = (
    ("open", r"\("),
    ("close", r"\)"),
    ("date", r'"\d{4}-\d{2}-\d{2}"\^\^date'),
    ("string", r'"(?:[^"\\]|\\.)*"'),
    ("number", r"-?\d+\.\d+|-?\d+"),
    ("symbol", r"[A-Za-z0-9_][A-Za-z0-9_.\-]*"),
)
_SEXPR_RE = _token_re(_SEXPR_TOKENS)

# Parentheses an s-expression may nest, so the text alone decides whether it
# parses, not the caller's stack depth; this bounds the lowerer's recursion too.
_MAX_DEPTH = 100


def _read_sexpr(text: str, tokens: list[str], i: int, depth: int) -> tuple[object, int]:
    """The node at token ``i`` and the index after it; ``tokens`` end with ''."""
    tok = tokens[i]
    if tok == "(":
        if depth == _MAX_DEPTH:
            _fail_at(_SEXPR_RE, text, i, "expression nested too deeply")
        items = []
        j = i + 1
        while (tok := tokens[j]) != ")":
            if not tok:
                _fail_at(_SEXPR_RE, text, i, "unexpected end of input, unbalanced parentheses")
            item, j = _read_sexpr(text, tokens, j, depth + 1)
            items.append(item)
        return items, j + 1
    if tok == ")":
        _fail_at(_SEXPR_RE, text, i, "unexpected ')'")
    try:
        literal = _literal(tok)
    except QuerySyntaxError as err:
        _fail_at(_SEXPR_RE, text, i, err.message)
    return (tok if literal is None else literal), i + 1


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
    comparators lt/le/gt/ge.  Anything else is a syntax error.  Tokens are
    read as in ``parse_sparql``: ``(`` and ``)`` are themselves, ``"`` starts a
    string or a date, a digit or ``-`` a number, and anything else a symbol.
    """
    tokens = _scan(_SEXPR_RE, text) + [""]  # '' is the end of input
    if not tokens[0]:
        raise QuerySyntaxError("empty input")
    tree, i = _read_sexpr(text, tokens, 0, 0)
    if tokens[i]:
        _fail_at(_SEXPR_RE, text, i, "unexpected trailing input")

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

"""Retrieval context assembly for generation prompts.

A retrieval context holds the top classes, relations and entity-rooted data
paths for a question, plus the linked entities; each path is the SPARQL text
of a chain query, as the generation prompt shows it.  Retrievers are pluggable:
any in-process callable ``retriever(kb, question, linked_entities, caps) ->
context`` works, and ``retrieve_union`` merges several.  The built-in
baseline is purely lexical.

The baseline reads each KB through a table built on the first retrieval
against that KB: postings from each token and trigram of a class or
relation to the candidates that hold it, and each relation's signature as
the prompt shows it.  The table is held under a weak reference to its KB,
so it lives as long as the KB does; ``delete_elements``' reduced KB gets
its own.  Only schema strings enter it, never a question.  Two workers may
build one KB's table at once: the builds are equal, and the last one
stored wins.  A kept path's text is written from its entity id and
relation ids, the bytes ``query.render_sparql`` gives its chain query; no
query is built.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

from .kb import KnowledgeBase, paths_from_entity


# The longest path retrieval walks.  The paths from an entity grow
# exponentially with their length (on a 7-entity KB, 169 sequences of up to
# 8 relations and 5,554 of up to 16), so a larger cap would stall the run.
_MAX_PATH_LEN = 4


@dataclass(frozen=True)
class RetrievalCaps:
    max_classes: int = 10
    max_relations: int = 10
    max_paths: int = 5
    max_path_len: int = 2

    def __post_init__(self):
        for name in ("max_classes", "max_relations", "max_paths"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_path_len < 1:
            raise ValueError("max_path_len must be >= 1")
        if self.max_path_len > _MAX_PATH_LEN:
            raise ValueError(f"max_path_len must be <= {_MAX_PATH_LEN}")


@dataclass(frozen=True)
class RetrievalContext:
    classes: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()  # SPARQL text
    linked_entities: tuple[tuple[str, str], ...] = ()  # (mention, entity id)


_WORD = re.compile(r"[a-z0-9]+")
_NON_WORD = re.compile(r"[^a-z0-9]+")


def _tokens(text: str) -> set[str]:
    return set(_WORD.findall(text.lower()))


def _trigrams(text: str) -> set[str]:
    squashed = _NON_WORD.sub(" ", text.lower()).strip()
    if len(squashed) < 3:
        return {squashed} if squashed else set()
    return {squashed[i : i + 3] for i in range(len(squashed) - 2)}


def _jaccard(a: set, b: set) -> float:
    """|a & b| / |a | b|, without building the union."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def lexical_score(question: str, label: str, some_id: str) -> float:
    """Token overlap plus character-trigram similarity against label and id."""
    candidate = f"{label} {some_id}"
    return _jaccard(_tokens(question), _tokens(candidate)) + _jaccard(
        _trigrams(question), _trigrams(candidate)
    )


# For tokens, then trigrams: postings from each feature to the ids of the
# candidates that hold it, and each candidate's feature count.
_Index = tuple[tuple[dict[str, list[str]], dict[str, int]], ...]


def _index(candidates: list[tuple[str, str]]) -> _Index:
    """The index of ``(id, text)`` candidates."""
    fields = []
    for featurize in (_tokens, _trigrams):
        postings: dict[str, list[str]] = {}
        counts: dict[str, int] = {}
        for some_id, text in candidates:
            features = featurize(text)
            counts[some_id] = len(features)
            for feature in features:
                postings.setdefault(feature, []).append(some_id)
        fields.append((postings, counts))
    return tuple(fields)


def _scores(index: _Index, q_tokens: set, q_trigrams: set) -> dict[str, float]:
    """``lexical_score`` of each candidate that shares a token or a trigram
    with the question; every other candidate scores 0 and is left out.  The
    arithmetic is ``_jaccard``'s, tokens first, so each score is the same
    float."""
    scores: dict[str, float] = {}
    for (postings, counts), features in zip(index, (q_tokens, q_trigrams)):
        shared = Counter(chain.from_iterable(filter(None, map(postings.get, features))))
        size = len(features)
        for some_id, k in shared.items():
            scores[some_id] = scores.get(some_id, 0.0) + k / (size + counts[some_id] - k)
    return scores


@dataclass(frozen=True)
class _Table:
    """What retrieval reads of one KB: the index of its classes and of its
    relations, and each relation's signature as the prompt shows it."""

    classes: _Index
    relations: _Index
    signatures: dict[str, str]


_TABLES: weakref.WeakKeyDictionary[KnowledgeBase, _Table] = weakref.WeakKeyDictionary()


def _table(kb: KnowledgeBase) -> _Table:
    table = _TABLES.get(kb)
    if table is None:
        table = _TABLES[kb] = _Table(
            _index([(c.id, f"{c.label} {c.id}") for c in kb.classes.values()]),
            _index([(rid, f" {rid}") for rid in kb.relations]),
            {rid: f"{rid} (type:{rd.domain} R type:{rd.range})" for rid, rd in kb.relations.items()},
        )
    return table


def retrieve_lexical(
    kb: KnowledgeBase,
    question: str,
    linked_entities: list[tuple[str, str]],
    caps: RetrievalCaps = RetrievalCaps(),
) -> RetrievalContext:
    """Lexical baseline: rank schema elements by label/id similarity to the
    question, rank entity paths by summed relation scores.  A class or
    relation that shares no token or trigram with the question scores zero
    and is dropped; ties break by id.  Each distinct linked entity's paths
    are enumerated once, as relation-id sequences, and only the top
    ``caps.max_paths`` are written out as SPARQL text."""
    table = _table(kb)
    q_tokens, q_trigrams = _tokens(question), _trigrams(question)
    relation_scores = _scores(table.relations, q_tokens, q_trigrams)
    classes = _ranked(_scores(table.classes, q_tokens, q_trigrams))[: caps.max_classes]
    relations = _ranked(relation_scores)[: caps.max_relations]

    linked = tuple((m, eid) for m, eid in linked_entities if eid in kb.entities)
    scored_paths = []
    for eid in dict.fromkeys(eid for _, eid in linked):
        for rels in paths_from_entity(kb, eid, caps.max_path_len):
            score = sum([relation_scores.get(rid, 0.0) for rid in rels])
            scored_paths.append((-score, rels, eid))
    scored_paths.sort(key=itemgetter(0, 1))
    paths = []
    for _, rels, eid in scored_paths[: caps.max_paths]:
        # render_sparql's text of the chain query: ?x along rels from the
        # entity, through the hops ?x0 ?x1 ...
        hops = "".join([f" ns:{rid} ?x{hop} . ?x{hop}" for hop, rid in enumerate(rels[:-1])])
        paths.append(f"SELECT DISTINCT ?x WHERE {{ ns:{eid}{hops} ns:{rels[-1]} ?x }}")

    return RetrievalContext(tuple(classes), tuple(relations), tuple(paths), linked)


def _ranked(scores: dict[str, float]) -> list[str]:
    """The ids, best score first, ties by id (the sort is stable)."""
    return sorted(sorted(scores), key=scores.__getitem__, reverse=True)


def retrieve_union(
    retrievers: list,
    kb: KnowledgeBase,
    question: str,
    linked_entities: list[tuple[str, str]],
    caps: RetrievalCaps = RetrievalCaps(),
) -> RetrievalContext:
    """Per-field union across retrievers, each called with ``caps``;
    first-retriever rank priority, deduplicated at first occurrence, then
    re-capped."""
    if not retrievers:
        raise ValueError("at least one retriever is required")
    # Dicts keep first-occurrence order.
    classes: dict[str, None] = {}
    relations: dict[str, None] = {}
    paths: dict[str, None] = {}
    linked: dict[tuple[str, str], None] = {}
    for retriever in retrievers:
        ctx = retriever(kb, question, linked_entities, caps)
        classes.update(dict.fromkeys(ctx.classes))
        relations.update(dict.fromkeys(ctx.relations))
        paths.update(dict.fromkeys(ctx.paths))
        linked.update(dict.fromkeys(ctx.linked_entities))
    return RetrievalContext(
        tuple(islice(classes, caps.max_classes)),
        tuple(islice(relations, caps.max_relations)),
        tuple(islice(paths, caps.max_paths)),
        tuple(linked),
    )


# ---------------------------------------------------------------------------
# Prompt rendering of context fields
# ---------------------------------------------------------------------------

def render_context_fields(kb: KnowledgeBase, ctx: RetrievalContext) -> dict:
    """Bindings for the generation prompt template.  A relation the KB lacks
    is shown as its bare id."""
    signatures = _table(kb).signatures
    entities = " | ".join(f"{m} {eid}" for m, eid in ctx.linked_entities)
    paths = " | ".join(ctx.paths)
    classes = " | ".join(ctx.classes)
    relations = " | ".join([signatures.get(r, r) for r in ctx.relations])
    return {
        "entities": entities,
        "paths": paths,
        "classes": classes,
        "relations": relations,
    }

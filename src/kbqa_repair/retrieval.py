"""Retrieval context assembly for generation prompts.

A retrieval context holds the top classes, relations and entity-rooted data
paths for a question, plus the linked entities; each path is the SPARQL text
of a chain query, as the generation prompt shows it.  Retrievers are pluggable:
any in-process callable ``retriever(kb, question, linked_entities, caps) ->
context`` works, and ``retrieve_union`` merges several.  The built-in
baseline is purely lexical.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .kb import KnowledgeBase, paths_from_entity
from .query import CanonicalQuery, Term, entity, rel, render_sparql, var


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

    def capped(self, caps: RetrievalCaps) -> "RetrievalContext":
        return RetrievalContext(
            self.classes[: caps.max_classes],
            self.relations[: caps.max_relations],
            self.paths[: caps.max_paths],
            self.linked_entities,
        )


_WORD = re.compile(r"[a-z0-9]+")
_NON_WORD = re.compile(r"[^a-z0-9]+")


def _tokens(text: str) -> frozenset[str]:
    return frozenset(_WORD.findall(text.lower()))


def _trigrams(text: str) -> frozenset[str]:
    squashed = _NON_WORD.sub(" ", text.lower()).strip()
    if len(squashed) < 3:
        return frozenset({squashed} if squashed else ())
    return frozenset(squashed[i : i + 3] for i in range(len(squashed) - 2))


def _jaccard(a: frozenset, b: frozenset) -> float:
    """|a & b| / |a | b|, without building the union."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


@functools.lru_cache(maxsize=None)
def _features(text: str) -> tuple[frozenset[str], frozenset[str]]:
    """Tokens and trigrams of a schema candidate string, computed once per
    process.  Only schema strings come here, so the memo is bounded by the
    schemas loaded; questions are unbounded and are never memoized."""
    return _tokens(text), _trigrams(text)


def _score(q_tokens: frozenset, q_trigrams: frozenset, candidate: str) -> float:
    c_tokens, c_trigrams = _features(candidate)
    return _jaccard(q_tokens, c_tokens) + _jaccard(q_trigrams, c_trigrams)


def lexical_score(question: str, label: str, some_id: str) -> float:
    """Token overlap plus character-trigram similarity against label and id.

    ``label`` and ``some_id`` name a schema element, so their features are
    memoized; the question's never are."""
    return _score(_tokens(question), _trigrams(question), f"{label} {some_id}")


def retrieve_lexical(
    kb: KnowledgeBase,
    question: str,
    linked_entities: list[tuple[str, str]],
    caps: RetrievalCaps = RetrievalCaps(),
) -> RetrievalContext:
    """Lexical baseline: rank schema elements by label/id similarity to the
    question, rank entity paths by summed relation scores.  Zero-scoring
    classes and relations are dropped; ties break by id.  Each distinct
    linked entity's paths are enumerated once, as relation-id sequences, and
    a chain query is built and rendered only for each of the top
    ``caps.max_paths``."""
    q_tokens, q_trigrams = _tokens(question), _trigrams(question)
    class_scores = {
        c.id: _score(q_tokens, q_trigrams, f"{c.label} {c.id}") for c in kb.classes.values()
    }
    relation_scores = {
        r.id: _score(q_tokens, q_trigrams, f" {r.id}") for r in kb.relations.values()
    }
    classes = _ranked(class_scores)
    relations = _ranked(relation_scores)

    linked = tuple((m, eid) for m, eid in linked_entities if eid in kb.entities)
    scored_paths = []
    for eid in dict.fromkeys(eid for _, eid in linked):
        root = entity(eid)
        for rels in paths_from_entity(kb, eid, caps.max_path_len):
            score = sum(relation_scores.get(rid, 0.0) for rid in rels)
            scored_paths.append((-score, rels, root))
    scored_paths.sort(key=lambda item: (item[0], item[1]))
    variables = [var(f"x{hop}") for hop in range(caps.max_path_len - 1)] + [var("x")]
    paths = tuple(
        render_sparql(_chain_query(root, rels, variables))
        for _, rels, root in scored_paths[: caps.max_paths]
    )

    return RetrievalContext(classes, relations, paths, linked).capped(caps)


def _ranked(scores: dict[str, float]) -> tuple[str, ...]:
    """The ids that score above zero, best first, ties by id."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(some_id for some_id, score in ranked if score > 0)


def _chain_query(root: Term, rels: tuple[str, ...], variables: list[Term]) -> CanonicalQuery:
    """``?x`` along ``rels`` from the entity term ``root``; ``variables``
    holds the intermediate hops' ``?x0 ?x1 ...`` and then ``?x``."""
    nodes = [root, *variables[: len(rels) - 1], variables[-1]]
    return CanonicalQuery("x", True, tuple(zip(nodes, map(rel, rels), nodes[1:])))


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
        tuple(classes), tuple(relations), tuple(paths), tuple(linked)
    ).capped(caps)


# ---------------------------------------------------------------------------
# Prompt rendering of context fields
# ---------------------------------------------------------------------------

def render_relation_signature(kb: KnowledgeBase, rid: str) -> str:
    rd = kb.relations.get(rid)
    if rd is None:
        return rid
    return f"{rid} (type:{rd.domain} R type:{rd.range})"


def render_context_fields(kb: KnowledgeBase, ctx: RetrievalContext) -> dict:
    """Bindings for the generation prompt template."""
    entities = " | ".join(f"{m} {eid}" for m, eid in ctx.linked_entities)
    paths = " | ".join(ctx.paths)
    classes = " | ".join(ctx.classes)
    relations = " | ".join(render_relation_signature(kb, r) for r in ctx.relations)
    return {
        "entities": entities,
        "paths": paths,
        "classes": classes,
        "relations": relations,
    }

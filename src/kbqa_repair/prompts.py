"""Prompt template catalog.

Templates are plain text files with ``${name}`` placeholders, shipped as
package data under ``templates/`` and edited there in place.  Rendering
substitutes every placeholder or fails loudly; output never contains an
unsubstituted marker.
"""

from __future__ import annotations

import string
from importlib import resources

TEMPLATE_IDS = (
    "pun-header",
    "pun-nk-exemplar",
    "pun-question",
    "fb-syntax",
    "fb-kb-inconsistency",
    "fb-qlf-disagreement",
    "fb-empty-answer",
    "fb-intermediate-node",
    "fb-answer-entity",
    "v3-naturalize",
    "v3-backtranslate",
    "v3-equivalence",
    "scun-select",
)


class UnknownTemplate(Exception):
    pass


class UnboundPlaceholder(Exception):
    pass


_cache: dict[str, str] = {}


def template_text(template_id: str) -> str:
    """Raw template text from the package data, read once per process."""
    if template_id not in TEMPLATE_IDS:
        raise UnknownTemplate(f"no template named {template_id!r}")
    if template_id not in _cache:
        path = resources.files("kbqa_repair") / "templates" / f"{template_id}.txt"
        _cache[template_id] = path.read_text(encoding="utf-8")
    return _cache[template_id]


def render_prompt(template_id: str, bindings: dict | None = None) -> str:
    """Render a template with every placeholder substituted."""
    text = template_text(template_id)
    try:
        return string.Template(text).substitute(bindings or {})
    except KeyError as err:
        raise UnboundPlaceholder(f"template {template_id} placeholder {err.args[0]!r} is unbound") from err
    except ValueError as err:
        raise UnboundPlaceholder(f"template {template_id}: {err}") from err

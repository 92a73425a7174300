"""Prompt template catalog.

Templates are plain text files with ``${name}`` placeholders, shipped as
package data under ``templates/`` and edited there in place.  Each template
is read and split into literal and placeholder pieces once per process;
rendering joins the pieces with the bindings.  It substitutes every
placeholder or fails loudly; output never contains an unsubstituted marker.
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


# Template id -> (text, pieces).  ``pieces`` alternates literal text (even
# indexes) and placeholder names (odd), split once per process; it is None
# for a text with an invalid placeholder, which string.Template reports.
_cache: dict[str, tuple[str, tuple[str, ...] | None]] = {}


def _split(text: str) -> tuple[str, ...] | None:
    pieces: list[str] = []
    literal = ""
    last = 0
    for m in string.Template.pattern.finditer(text):
        literal += text[last:m.start()]
        last = m.end()
        if m.group("invalid") is not None:
            return None
        if m.group("escaped") is not None:
            literal += "$"
        else:
            pieces += [literal, m.group("named") or m.group("braced")]
            literal = ""
    return (*pieces, literal + text[last:])


def template_text(template_id: str) -> str:
    """Raw template text from the package data, read once per process."""
    if template_id not in TEMPLATE_IDS:
        raise UnknownTemplate(f"no template named {template_id!r}")
    if template_id not in _cache:
        path = resources.files("kbqa_repair") / "templates" / f"{template_id}.txt"
        text = path.read_text(encoding="utf-8")
        _cache[template_id] = (text, _split(text))
    return _cache[template_id][0]


def render_prompt(template_id: str, bindings: dict | None = None) -> str:
    """Render a template with every placeholder substituted, exactly as
    ``string.Template(text).substitute(bindings)`` would."""
    text = template_text(template_id)
    pieces = _cache[template_id][1]
    bindings = bindings or {}
    try:
        if pieces is None:
            return string.Template(text).substitute(bindings)
        out = list(pieces)
        for i in range(1, len(out), 2):
            out[i] = str(bindings[out[i]])
        return "".join(out)
    except KeyError as err:
        raise UnboundPlaceholder(f"template {template_id} placeholder {err.args[0]!r} is unbound") from err
    except ValueError as err:
        raise UnboundPlaceholder(f"template {template_id}: {err}") from err

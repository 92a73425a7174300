"""Prompt template catalog.

Templates are plain text files with ``${name}`` placeholders, shipped as
package data under ``templates/`` and edited there in place; the directory
is the catalogue, so a template id is a file name without ``.txt``.  Each
template is read and split into literal and placeholder pieces once per
process; rendering joins the pieces with the bindings.  It substitutes every
placeholder or fails loudly; output never contains an unsubstituted marker.
"""

from __future__ import annotations

import string
from importlib import resources


class UnboundPlaceholder(Exception):
    pass


# Template id -> (text, pieces).  ``pieces`` alternates literal text (even
# indexes) and placeholder names (odd), split once per process.
_cache: dict[str, tuple[str, tuple[str, ...]]] = {}


def _split(template_id: str, text: str) -> tuple[str, ...]:
    """The text's pieces; a ``$`` that string.Template rejects fails here, at read."""
    pieces: list[str] = []
    literal = ""
    last = 0
    for m in string.Template.pattern.finditer(text):
        literal += text[last:m.start()]
        last = m.end()
        if m.group("invalid") is not None:
            lines = text[:m.end()].splitlines()  # counted as string.Template counts them
            raise UnboundPlaceholder(f"template {template_id}: Invalid placeholder in string: "
                                     f"line {len(lines)}, col {len(lines[-1])}")
        if m.group("escaped") is not None:
            literal += "$"
        else:
            pieces += [literal, m.group("named") or m.group("braced")]
            literal = ""
    return (*pieces, literal + text[last:])


def template_text(template_id: str) -> str:
    """Raw template text from the package data, read once per process."""
    if template_id not in _cache:
        path = resources.files("kbqa_repair") / "templates" / f"{template_id}.txt"
        text = path.read_text(encoding="utf-8")
        _cache[template_id] = (text, _split(template_id, text))
    return _cache[template_id][0]


def render_prompt(template_id: str, bindings: dict | None = None) -> str:
    """Render a template with every placeholder substituted, exactly as
    ``string.Template(text).substitute(bindings)`` would."""
    template_text(template_id)
    out = list(_cache[template_id][1])
    bindings = bindings or {}
    try:
        for i in range(1, len(out), 2):
            out[i] = str(bindings[out[i]])
    except KeyError as err:
        raise UnboundPlaceholder(f"template {template_id} placeholder {err.args[0]!r} is unbound") from err
    return "".join(out)

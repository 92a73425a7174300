import re
import string
from collections import defaultdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from kbqa_repair import prompts
from kbqa_repair.prompts import UnboundPlaceholder, render_prompt, template_text

# The templates directory is the catalogue.
SHIPPED_IDS = sorted(path.stem for path in (Path(prompts.__file__).parent / "templates").glob("*.txt"))


def test_header_renders_with_no_bindings():
    text = render_prompt("pun-header")
    assert text.startswith("Translate the following question to sparql for Freebase")
    assert text.endswith("entity types, specific entities and relations.")
    assert 'return "NK"' not in text and 'return "NK"' in text


def test_empty_answer_feedback_string():
    assert render_prompt("fb-empty-answer") == (
        "The generated sparql gives an empty answer when executed on freebase KG, Please "
        "generate again a different executable sparql using the same context and constraints."
    )


def test_feedback_templates_carry_repair_instruction():
    kb_inc = render_prompt("fb-kb-inconsistency", {"description": "X."})
    assert kb_inc.startswith("The generated sparql has a semantic issue warning:  X.")
    assert kb_inc.endswith("DO NOT APOLOGIZE - just return the best you can try.")
    qlf = render_prompt("fb-qlf-disagreement", {"answered": "A?", "asked": "B?"})
    assert 'You have answered the question "A?" but you were asked to answer "B?"' in qlf
    assert "NOT same as what you've been asked for!" in qlf


def test_missing_binding_raises_naming_placeholder():
    with pytest.raises(UnboundPlaceholder) as err:
        render_prompt("fb-syntax", {"dialect": "sparql", "query": "SELECT"})
    assert "error" in str(err.value)


def test_unknown_template():
    with pytest.raises(FileNotFoundError) as err:
        render_prompt("fb-nonexistent")
    assert "fb-nonexistent.txt" in str(err.value)


def test_no_unsubstituted_markers_in_any_rendered_template():
    bindings = {
        "dialect": "sparql",
        "query": "SELECT ?x WHERE { ?x ns:a.b ?y }",
        "sparql": "SELECT ?x WHERE { ?x ns:a.b ?y }",
        "error": "err",
        "description": "desc",
        "answered": "a?",
        "asked": "b?",
        "answer": "thing",
        "question": "q?",
        "entities": "e",
        "paths": "p",
        "classes": "c",
        "relations": "r",
        "options": "1. pred_nl: x",
        "count": "2",
    }
    for template_id in SHIPPED_IDS:
        rendered = render_prompt(template_id, bindings)
        assert not re.search(r"\$\{?[a-z_]+\}?", rendered), template_id


def test_equivalence_template_has_both_verdict_exemplars():
    text = template_text("v3-equivalence")
    assert "Hence, they are same." in text
    assert "Hence, they are different." in text
    assert text.endswith("explanation: ")


PLACEHOLDERS = (
    "dialect", "query", "sparql", "error", "description", "answered", "asked", "answer", "question",
    "entities", "paths", "classes", "relations", "options", "count",
)


@given(bindings=st.dictionaries(
    st.sampled_from(PLACEHOLDERS),
    st.one_of(
        st.text(max_size=8),
        st.sampled_from(["$", "${", "$$", "${sparql}", "$error", "$$x"]),
        st.integers(),
    ),
))
def test_render_prompt_equals_string_template(bindings):
    """For every template: the same text as string.Template, or the same
    message for a missing key.  Values that look like placeholders are
    inserted as they are."""
    for template_id in SHIPPED_IDS:
        try:
            expected = string.Template(template_text(template_id)).substitute(bindings)
        except KeyError as err:
            expected = f"template {template_id} placeholder {err.args[0]!r} is unbound"
        try:
            got = render_prompt(template_id, bindings)
        except UnboundPlaceholder as err:
            got = str(err)
        assert got == expected, template_id


@given(
    text=st.lists(st.sampled_from(
        ["a", " ", "\n", "\r", "\x0c", "{", "}", "$", "$$", "${", "$a", "${a}", "$b_1", "${b_1}", "$1"],
    )).map("".join),
    bindings=st.dictionaries(st.sampled_from(["a", "b_1"]), st.sampled_from(["x", "$", "${a}", "$$"])),
)
def test_split_pieces_render_as_string_template(text, bindings):
    """Template text the shipped files do not have: escapes and braces render,
    or fail, as string.Template does; an invalid placeholder fails when the
    text is read, with string.Template's message."""
    try:
        string.Template(text).substitute(defaultdict(str))  # reports any invalid placeholder
        expected = string.Template(text).substitute(bindings)
    except KeyError as err:
        expected = f"template fb-syntax placeholder {err.args[0]!r} is unbound"
    except ValueError as err:
        expected = f"template fb-syntax: {err}"
    try:
        with mock.patch.dict(prompts._cache, {"fb-syntax": (text, prompts._split("fb-syntax", text))}):
            got = render_prompt("fb-syntax", bindings)
    except UnboundPlaceholder as err:
        got = str(err)
    assert got == expected

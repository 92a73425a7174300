"""Checks on the program's source text."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kbqa_repair"

# No program code calls it, but the benchmark's tracer names it, so it
# leaves with a change to the benchmark.
UNUSED_ALLOWED = {"retrieval.lexical_score"}


def _named(node) -> set[str]:
    """Every name ``node`` reads: variables, attributes, imported names and
    strings (such as the entries of ``__all__``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _defined(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_every_top_level_definition_is_named_elsewhere_in_src():
    """A definition that no other statement in src/ names is dead code:
    line coverage runs its definition line, but nothing uses it.  Dunder
    names are read by Python itself."""
    statements = [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    named = [_named(node) for _, node in statements]
    unused = sorted(
        f"{module}.{name}"
        for i, (module, node) in enumerate(statements)
        for name in _defined(node)
        if not re.fullmatch(r"__\w+__", name)
        and not any(name in names for j, names in enumerate(named) if j != i)
    )
    assert unused == sorted(UNUSED_ALLOWED)

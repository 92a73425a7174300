"""Checks on the program's source text."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kbqa_repair"

# No program code calls it, but the benchmark's tracer names it, so it
# leaves with a change to the benchmark.
UNUSED_ALLOWED = {"retrieval.lexical_score"}


def _named(node) -> Counter[str]:
    """How often ``node`` reads each name: variables, attributes, imported
    names and the string entries of ``__all__``.  Any other string is text,
    not a use: a tag such as ``"lit"`` names no definition."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
        elif isinstance(sub, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in sub.targets):
            names.update(entry.value for entry in ast.walk(sub.value)
                         if isinstance(entry, ast.Constant) and isinstance(entry.value, str))
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


MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
NAMED = sum((_named(tree) for tree in MODULES.values()), Counter())


def _unused(definitions) -> list[str]:
    """The qualified names of the ``(qualified name, name, statement)``
    definitions, dunders aside, whose name src/ reads only inside their own
    statement."""
    return sorted(
        qualified
        for qualified, name, node in definitions
        if not re.fullmatch(r"__\w+__", name) and NAMED[name] == _named(node)[name]
    )


def test_every_top_level_definition_is_named_elsewhere_in_src():
    """A definition that no other statement in src/ names is dead code:
    line coverage runs its definition line, but nothing uses it.  Dunder
    names are read by Python itself."""
    unused = _unused(
        (f"{module}.{name}", name, node)
        for module, tree in MODULES.items()
        for node in tree.body
        for name in _defined(node)
    )
    assert unused == sorted(UNUSED_ALLOWED)


def test_every_method_is_named_elsewhere_in_src():
    """A method, a property included, whose name src/ reads only inside its
    own body is dead code too; the check above passes it, since its class is
    named."""
    unused = _unused(
        (f"{module}.{node.name}.{method.name}", method.name, method)
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    assert unused == []


def _opens_for_writing(tree) -> list[int]:
    """The lines of ``tree`` that call ``open``, as a name or a method, with
    a mode that is not a string constant or that writes, appends or creates."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
            continue
        modes = node.args[1:2] + [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
        if any(not isinstance(mode, ast.Constant) or not set(str(mode.value)).isdisjoint("wax+")
               for mode in modes):
            lines.append(node.lineno)
    return lines


def test_only_kb_opens_a_file_for_writing():
    """``kb.write_text`` writes every whole file and ``kb.jsonl_writer``
    streams the rest, so a file is written whole or not at all in one place."""
    writers = [f"{module}.py:{line}" for module, tree in MODULES.items() if module != "kb"
               for line in _opens_for_writing(tree)]
    assert writers == []
    assert len(_opens_for_writing(MODULES["kb"])) == 2

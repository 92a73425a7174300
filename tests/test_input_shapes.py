"""Every input file is checked against kb.SHAPES before it is used.

The first property takes one record of a fixture file (schema, data, plan,
dataset, mock, config, predictions or traces), replaces one field or one list
element with a value of another JSON type, and runs the command that reads
the file through ``cli.main``.  The second flips, deletes or inserts bytes
in one fig1 input and runs four commands that read them.  Each command
exits 0, or exits 2 with exactly one ``error: ...`` line; it never raises
and never exits 1.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from kbqa_repair.cli import main

FIG1 = FIXTURES / "fig1"
A13 = FIXTURES / "a13"
GOLDEN = FIXTURES / "golden_runs"
CONFIG = {
    "max_classes": 10, "max_relations": 10, "max_paths": 5, "max_path_len": 2,
    "mediator_classes": ["book.written_work"],
}


# Each entry: (the fixture file, or None for CONFIG; a setup that, given a
# scratch directory, returns where the edited file goes and the command).
def _kb_file(kb, name):
    """A KB file, read by `kb validate` on a copy of its KB directory."""
    def setup(tmp):
        shutil.copytree(kb, tmp / "kb")
        return tmp / "kb" / name, ("kb", "validate", "--kb", tmp / "kb")
    return kb / name, setup


def _file(source, name, *argv):
    """``source`` written to ``name`` under the scratch directory, read by
    ``argv``, in which "FILE" stands for it and "OUT" for an output path."""
    def setup(tmp):
        path = tmp / name
        return path, tuple(path if a == "FILE" else tmp / "out" if a == "OUT" else a for a in argv)
    return source, setup


def _run(kb, dataset, **flags):
    return ("run", "--kb", kb, "--dataset", dataset, "--n-iter", "1",
            *(item for flag, value in flags.items() for item in (f"--{flag}", value)), "--out", "OUT")


FILES = {
    **{f"{where}-{name}": _kb_file(kb, name)
       for where, kb in (("fig1-kb1", FIG1 / "kb1"), ("fig1-kb2", FIG1 / "kb2"),
                         ("fig1-kb3", FIG1 / "kb3"), ("a13", A13 / "kb"),
                         ("pairs", FIXTURES / "pairs"))
       for name in ("schema.json", "data.jsonl")},
    **{f"fig1-{plan}": _file(FIG1 / f"{plan}.json", "plan.json",
                             "dataset", "inject", "--kb", FIG1 / "kb3", "--split",
                             FIG1 / "dataset_kb3.jsonl", "--plan", "FILE", "--out", "OUT")
       for plan in ("plan_kb1", "plan_kb2")},
    **{f"fig1-dataset_{kb}": _file(FIG1 / f"dataset_{kb}.jsonl", "split.jsonl", "dataset", "inject",
                                   "--kb", FIG1 / kb, "--split", "FILE", "--seed", "0", "--out", "OUT")
       for kb in ("kb1", "kb2", "kb3")},
    "a13-dataset": _file(A13 / "dataset.jsonl", "split.jsonl", "dataset", "inject",
                         "--kb", A13 / "kb", "--split", "FILE", "--seed", "0", "--out", "OUT"),
    **{f"fig1-{mock}": _file(FIG1 / f"{mock}.json", "mock.json",
                             *_run(FIG1 / "kb3", FIG1 / "dataset_kb3.jsonl", mock="FILE"))
       for mock in ("mock", "mock_repeat")},
    "a13-mock": _file(A13 / "mock.json", "mock.json",
                      *_run(A13 / "kb", A13 / "dataset.jsonl", mock="FILE")),
    "config": _file(None, "config.json",
                    *_run(FIG1 / "kb3", FIG1 / "dataset_kb3.jsonl", mock=FIG1 / "mock.json",
                         config="FILE")),
    **{f"{run}-predictions": _file(GOLDEN / run / "outcomes.jsonl", "pred.jsonl", "eval",
                                   "--kb", kb, "--pred", "FILE", "--gold", dataset)
       for run, kb, dataset in (
           ("fig1_kb1", FIG1 / "kb1", FIG1 / "dataset_kb1.jsonl"),
           ("fig1_kb3", FIG1 / "kb3", FIG1 / "dataset_kb3.jsonl"),
           ("a13", A13 / "kb", A13 / "dataset.jsonl"))},
    "a13-traces": _file(GOLDEN / "a13" / "traces.jsonl", "traces.jsonl",
                        "trace", "show", "--trace", "FILE"),
}

# One value of each JSON type, and an empty one of each container.
VALUES = (None, True, 7, 2.5, "", "x", [], ["x"], [1], {}, {"x": 1})


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _read(source: Path | None):
    """The file's records, a JSON Lines file's as a list of its lines'
    values; CONFIG when there is no file."""
    if source is None:
        return CONFIG
    text = source.read_text(encoding="utf-8")
    if source.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def _slots(value, path=()):
    """The path to each field and list element under ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _pattern(path) -> tuple:
    return tuple("*" if isinstance(key, int) else key for key in path)


@pytest.mark.parametrize("name", FILES)
@settings(max_examples=8)
@given(data=st.data())
def test_a_value_of_another_json_type_exits_0_or_2(name, data):
    source, setup = FILES[name]
    doc = _read(source)
    by_pattern = {}
    for path in _slots(doc):
        by_pattern.setdefault(_pattern(path), []).append(path)
    # Each kind of slot is as likely as any other, however many records share it.
    pattern = data.draw(st.sampled_from(sorted(by_pattern, key=repr)), label="pattern")
    path = data.draw(st.sampled_from(by_pattern[pattern]), label="path")
    parent = doc = json.loads(json.dumps(doc))
    for key in path[:-1]:
        parent = parent[key]
    kind = _json_type(parent[path[-1]])
    parent[path[-1]] = data.draw(st.sampled_from([v for v in VALUES if _json_type(v) != kind]))

    with tempfile.TemporaryDirectory() as scratch:
        target, argv = setup(Path(scratch))
        if target.suffix == ".jsonl":
            text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in doc)
        else:
            text = json.dumps(doc, ensure_ascii=False)
        target.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    message = err.getvalue()
    assert code == 0 or (code == 2 and message.startswith("error: ") and message.count("\n") == 1), message


# The inputs of four commands over fig1: where each file's copy goes in the
# scratch directory, and the file it is copied from.
BYTE_INPUTS = {
    "kb/schema.json": FIG1 / "kb3" / "schema.json",
    "kb/data.jsonl": FIG1 / "kb3" / "data.jsonl",
    "split.jsonl": FIG1 / "dataset_kb3.jsonl",
    "plan.json": FIG1 / "plan_kb1.json",
    "pred.jsonl": GOLDEN / "fig1_kb3" / "outcomes.jsonl",
    "traces.jsonl": GOLDEN / "fig1_kb3" / "traces.jsonl",
}
# "@" marks a path in the scratch directory.
BYTE_COMMANDS = (
    ("kb", "validate", "--kb", "@kb"),
    ("dataset", "inject", "--kb", "@kb", "--split", "@split.jsonl", "--plan", "@plan.json",
     "--out", "@out"),
    ("eval", "--kb", "@kb", "--pred", "@pred.jsonl", "--gold", "@split.jsonl"),
    ("trace", "show", "--trace", "@traces.jsonl"),
)
EDITS = st.lists(st.tuples(st.sampled_from(("flip", "delete", "insert")),
                           st.integers(0, 2**16), st.integers(1, 255)), min_size=1, max_size=4)


def _edit(data: bytes, edits) -> bytes:
    """``data`` with each edit applied in turn: a byte XORed with a nonzero
    mask, a byte deleted, or a byte inserted, at a position taken modulo the
    length."""
    data = bytearray(data)
    for op, position, byte in edits:
        if op == "insert":
            data.insert(position % (len(data) + 1), byte)
        elif data and op == "flip":
            data[position % len(data)] ^= byte
        elif data:
            del data[position % len(data)]
    return bytes(data)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(BYTE_INPUTS)), edits=EDITS)
def test_a_byte_edited_input_never_crashes_a_command(name, edits):
    """One fig1 input with bytes flipped, deleted or inserted: each command
    that reads the inputs exits 0, or 2 with one error line."""
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        (tmp / "kb").mkdir()
        for target, source in BYTE_INPUTS.items():
            data = source.read_bytes()
            (tmp / target).write_bytes(_edit(data, edits) if target == name else data)
        for argv in BYTE_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([str(tmp / a[1:]) if a.startswith("@") else a for a in argv])
            message = err.getvalue()
            assert code == 0 or (code == 2 and message.startswith("error: ")
                                 and message.count("\n") == 1), (argv, message)

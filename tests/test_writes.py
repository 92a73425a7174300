"""Every whole-file writer replaces its file whole or not at all.

Each case runs a writer once cleanly, counting the writes to files opened
for writing, and then once for each k with the k-th write raising
``OSError``.  After a failure the file being written holds its old bytes, or
is absent if it was absent; each file written before it holds its new
bytes; and no ``.tmp`` is left.  ``run`` streams ``outcomes.jsonl`` and
``traces.jsonl`` in place, so a failure inside them is not a case here.
"""

import builtins
import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from kbqa_repair.cli import main
from kbqa_repair.dataset import load_split, save_split
from kbqa_repair.kb import load_kb, load_plan, save_kb, save_plan, write_json, write_text

FIG1 = FIXTURES / "fig1"
STREAMED = {"outcomes.jsonl", "traces.jsonl"}


def _cli(*argv):
    return lambda out: main([str(arg).format(out=out) for arg in argv])


def _save_kb(out):
    save_kb(load_kb(str(FIG1 / "kb3" / "schema.json"), str(FIG1 / "kb3" / "data.jsonl")),
            str(out / "schema.json"), str(out / "data.jsonl"))


# Each case: (the writer, given its output directory; the files it writes
# whole, each with the bytes it holds before, or None where it is absent).
CASES = {
    "write_json": (lambda out: write_json(str(out / "doc.json"), {"a": ["é", 1.5, None]}),
                   {"doc.json": b"[]\n"}),
    "save_kb": (_save_kb, {"schema.json": b"{}\n", "data.jsonl": None}),
    "save_plan": (lambda out: save_plan(load_plan(str(FIG1 / "plan_kb1.json")), str(out / "plan.json")),
                  {"plan.json": b"{}\n"}),
    "save_split": (lambda out: save_split(load_split(str(FIG1 / "dataset_kb3.jsonl")), str(out / "split.jsonl")),
                   {"split.jsonl": b"{}\n"}),
    "dataset inject": (
        _cli("dataset", "inject", "--kb", FIG1 / "kb3", "--split", FIG1 / "dataset_kb3.jsonl",
             "--plan", FIG1 / "plan_kb2.json", "--out", "{out}"),
        {"schema.json": b"{}\n", "data.jsonl": b'{"id": "m.0old"}\n', "split.jsonl": None, "plan.json": b"{}\n"},
    ),
    "eval --out --csv": (
        _cli("eval", "--kb", FIG1 / "kb3", "--pred", FIXTURES / "golden_runs" / "fig1_kb3" / "outcomes.jsonl",
             "--gold", FIG1 / "dataset_kb3.jsonl", "--out", "{out}/report.json", "--csv", "{out}/records.csv"),
        {"report.json": b"{}\n", "records.csv": None},
    ),
    # run removes an earlier log.txt before it starts, so log.txt is absent.
    "run": (
        _cli("run", "--kb", FIG1 / "kb3", "--dataset", FIG1 / "dataset_kb3.jsonl",
             "--mock", FIG1 / "mock.json", "--n-iter", "3", "--out", "{out}"),
        {"manifest.json": b"{}\n", "log.txt": None},
    ),
}


class _Writes:
    """Patches ``open`` so that each file opened for writing counts its
    writes, names the file of each, and raises at the ``fail_at``-th."""

    def __init__(self, monkeypatch, fail_at=None):
        self.files: list[str] = []
        self.fail_at = fail_at
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return handle if "w" not in mode else _Handle(handle, Path(file).name.removesuffix(".tmp"), self)

        monkeypatch.setattr(builtins, "open", counting_open)

    def count(self, name: str) -> None:
        self.files.append(name)
        if len(self.files) == self.fail_at:
            raise OSError(28, "No space left on device")


class _Handle:
    def __init__(self, handle, name, writes):
        self._handle, self._name, self._writes = handle, name, writes

    def write(self, text):
        self._writes.count(self._name)
        return self._handle.write(text)

    def __getattr__(self, attr):
        return getattr(self._handle, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)


def _state(out: Path, before: dict) -> dict:
    for name, old in before.items():
        if old is not None:
            (out / name).write_bytes(old)
    return {name: (out / name).read_bytes() if (out / name).exists() else None for name in before}


def _call(writer, out) -> int:
    try:
        return writer(out) or 0
    except OSError:
        return 2


@pytest.mark.parametrize("case", CASES)
def test_a_failed_write_leaves_each_file_whole_or_as_it_was(tmp_path, monkeypatch, capsys, case):
    writer, before = CASES[case]
    clean = tmp_path / "clean"
    clean.mkdir()
    with monkeypatch.context() as patch:
        writes = _Writes(patch)
        assert _call(writer, clean) == 0
    new = {name: (clean / name).read_bytes() for name in before}
    failing = [k for k, name in enumerate(writes.files, start=1) if name not in STREAMED]
    assert {writes.files[k - 1] for k in failing} == set(before)
    for k in failing:
        out = tmp_path / str(k)
        out.mkdir()
        old = _state(out, before)
        with monkeypatch.context() as patch:
            writes = _Writes(patch, fail_at=k)
            assert _call(writer, out) == 2, k
        done = set(writes.files[:-1]) - {writes.files[-1]}
        for name in before:
            expected = new[name] if name in done else old[name]
            assert ((out / name).read_bytes() if (out / name).exists() else None) == expected, (k, name)
        assert not [path.name for path in out.iterdir() if path.suffix == ".tmp"], k
    capsys.readouterr()


def test_write_text_writes_utf8_and_a_lone_surrogate_as_its_escape_with_no_newline_translation(tmp_path):
    path = tmp_path / "text"
    write_text(str(path), "é\r\n\n\ud800")
    assert path.read_bytes() == "é\r\n\n".encode() + b"\\ud800"


def test_write_text_replaces_a_symlink_rather_than_following_it(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("kept")
    link.symlink_to(target)
    write_text(str(link), "new")
    assert not link.is_symlink() and link.read_text() == "new" and target.read_text() == "kept"


def test_eval_csv_has_crlf_line_ends_and_six_decimal_scores(tmp_path, capsys):
    assert main(["eval", "--kb", str(FIG1 / "kb3"),
                 "--pred", str(FIXTURES / "golden_runs" / "fig1_kb3" / "outcomes.jsonl"),
                 "--gold", str(FIG1 / "dataset_kb3.jsonl"), "--csv", str(tmp_path / "records.csv")]) == 0
    assert (tmp_path / "records.csv").read_bytes() == (
        b"index,label,category,em_s,f1_r,f1_l\r\n"
        b"0,answerable,n/a,1,1.000000,1.000000\r\n"
    )


def test_manifest_escapes_a_non_ascii_dataset_path_and_sorts_its_keys(tmp_path, capsys):
    dataset = tmp_path / "données — \U0001d11e.jsonl"
    dataset.write_bytes((FIG1 / "dataset_kb3.jsonl").read_bytes())
    assert main(["run", "--kb", str(FIG1 / "kb3"), "--dataset", str(dataset),
                 "--mock", str(FIG1 / "mock.json"), "--n-iter", "3", "--out", str(tmp_path / "out")]) == 0
    schema, data, mock = (json.dumps(str(path)) for path in (
        FIG1 / "kb3" / "schema.json", FIG1 / "kb3" / "data.jsonl", FIG1 / "mock.json"))
    dataset = json.dumps(str(tmp_path))[:-1] + '/donn\\u00e9es \\u2014 \\ud834\\udd1e.jsonl"'
    assert (tmp_path / "out" / "manifest.json").read_bytes() == f"""{{
  "answerable_mode": false,
  "backend": "mock",
  "caps": {{
    "max_classes": 10,
    "max_path_len": 2,
    "max_paths": 5,
    "max_relations": 10
  }},
  "config": null,
  "dataset": {dataset},
  "endpoint": null,
  "fewshots": null,
  "kb": {{
    "data": {data},
    "schema": {schema}
  }},
  "mediator_classes": [],
  "mock": {mock},
  "model": null,
  "n_iter": 3,
  "workers": 1
}}
""".encode("ascii")

#!/usr/bin/env python3
"""Run tier-1 under a line hook and print each line of src/ it never runs.

A line counts as executable when some code object compiled from its file
lists it in `co_lines()`. The hook is `sys.settrace` plus
`threading.settrace`, so lines run on worker and server threads count too.
Python unsets a hook that raises, as it does when a test recurses to the
stack's limit, so the hook is set again before each test.
The hooked run is about three times slower than tier-1.

Run from the repo root: python tools/linecov.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
hit: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(SRC)) else None


class _Rearm:
    @staticmethod
    def pytest_runtest_call(item):
        sys.settrace(_call)


def _executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.settrace(_call)
    threading.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[_Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        lines = _executable(compile(text, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in hit:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable src/ lines never run (tier-1 exit {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

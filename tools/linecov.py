#!/usr/bin/env python3
"""Run tier-1 under a line hook and print each line of src/ it never runs.

A line counts as executable when some code object compiled from its file
lists it in `co_lines()`. The hook is `sys.settrace` plus
`threading.settrace`, so lines run on worker and server threads count too.
The hooked run is about three times slower than tier-1.

Exits 1 when tier-1 fails or when a line no test runs is not one of the
two that none can: the entry point's `sys.exit(main())` and the body of
the gateway's abstract `_complete`.

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
UNREACHABLE = {
    ("src/kbqa_repair/cli.py", "sys.exit(main())"),
    ("src/kbqa_repair/gateway.py", "raise NotImplementedError"),
}


def _line(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(SRC)) else None


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
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = unexpected = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        lines = _executable(compile(text, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in hit:
                name, code = path.relative_to(ROOT).as_posix(), source[line - 1].strip()
                missed += 1
                unexpected += (name, code) not in UNREACHABLE
                print(f"{name}:{line}: {code}")
    print(f"{missed} of {total} executable src/ lines never run (tier-1 exit {status})")
    return 1 if status or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

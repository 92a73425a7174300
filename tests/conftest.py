import pytest

from pathlib import Path

from hypothesis import settings

from kbqa_repair.kb import load_kb

# Property tests draw the same examples on every run, with no wall-clock
# deadline and no example database, so tier-1 gives one result everywhere.
settings.register_profile("kbqa-repair", derandomize=True, deadline=None, database=None)
settings.load_profile("kbqa-repair")

FIXTURES = Path(__file__).parent / "fixtures"

CRITERION_TITLES = {
    1: "three-KB golden suite reproduces the narrated outcomes",
    2: "music-recording golden trace replays with exact feedback strings",
    3: "executor matches the brute-force oracle on 500 random cases",
    4: "schema-presence and type-compatibility verifier properties",
    5: "consensus threshold arithmetic and branch rules",
    6: "metric invariants and cross-dialect equivalence",
    7: "unanswerability injection soundness and reproducibility",
    8: "answerable mode never pairs a concrete query with NA",
    9: "end-to-end byte-identical reruns",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in name:
                continue
            number = int(name.split("test_criterion_")[1].split("_")[0])
            verdict = "PASS" if status == "passed" else "FAIL"
            lines[number] = f"criterion {number} {verdict}: {CRITERION_TITLES[number]}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])


@pytest.fixture(scope="session")
def fig1_kb3():
    return load_kb(str(FIXTURES / "fig1/kb3/schema.json"), str(FIXTURES / "fig1/kb3/data.jsonl"))


@pytest.fixture(scope="session")
def fig1_kb2():
    return load_kb(str(FIXTURES / "fig1/kb2/schema.json"), str(FIXTURES / "fig1/kb2/data.jsonl"))


@pytest.fixture(scope="session")
def fig1_kb1():
    return load_kb(str(FIXTURES / "fig1/kb1/schema.json"), str(FIXTURES / "fig1/kb1/data.jsonl"))


@pytest.fixture(scope="session")
def a13_kb():
    return load_kb(str(FIXTURES / "a13/kb/schema.json"), str(FIXTURES / "a13/kb/data.jsonl"))


@pytest.fixture(scope="session")
def pairs_kb():
    return load_kb(str(FIXTURES / "pairs/schema.json"), str(FIXTURES / "pairs/data.jsonl"))

"""Every byte the fixed CLI cases of ``tools/cli_digest.py`` emit, against the committed ledger."""

import importlib.util
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "cli_ledger.txt"


def _digest_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(expected: list[str], got: list[str]) -> list[str]:
    """One line per case whose ledger line differs: the case, then both lines' results."""
    before = dict(line.split(" | ", 1) for line in expected)
    after = dict(line.split(" | ", 1) for line in got)
    return [f"{case}: ledger {before.get(case)!r}, now {after.get(case)!r}"
            for case in dict.fromkeys(list(before) + list(after))
            if before.get(case) != after.get(case)]


def test_cli_bytes_match_the_committed_ledger(monkeypatch):
    tool = _digest_tool()
    header, *expected = LEDGER.read_text(encoding="utf-8").splitlines()
    assert header == tool.versions(), (
        f"the ledger was made with {header[2:]!r} but this is {tool.versions()[2:]!r}; "
        f"regenerate it with: python tools/cli_digest.py . > tests/cli_ledger.txt")
    monkeypatch.delenv("CLONE_SIM_CONFIG", raising=False)
    moved = _moved(expected, tool.case_lines())
    assert not moved, "CLI output moved:\n" + "\n".join(moved)


def test_the_ledger_names_a_moved_case_and_its_digests():
    expected = ["run --theta 1 | exit=0 out=aa err=bb", "sweep -n 2 | exit=0 out=cc err=dd"]
    got = ["run --theta 1 | exit=0 out=aa err=bb", "sweep -n 2 | exit=0 out=ce err=dd"]
    assert _moved(expected, got) == [
        "sweep -n 2: ledger 'exit=0 out=cc err=dd', now 'exit=0 out=ce err=dd'"]
    assert _moved(expected, expected[:1]) == ["sweep -n 2: ledger 'exit=0 out=cc err=dd', now None"]
    assert np.__version__ in _digest_tool().versions()

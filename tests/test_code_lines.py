"""``tools/code_lines.py`` counts code lines, leaving out docstrings, comments and blank lines."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment


class Shape:
    """A class docstring."""

    sides = 4


def root(x):
    """A function docstring."""
    label = """a string that is code"""
    return math.sqrt(
        x), label
'''


def test_code_lines_counts_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text("")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    tool.main()
    # import, class, sides, def, label, return and its continuation line
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py", "     7  pkg/shapes.py", "     7  total"]

"""python tools/code_lines.py SRC: code lines per module under SRC, and their total.

A code line is a source line that holds at least one token other than a
comment, a docstring or the line breaks and indents around them; blank
lines count for nothing.  A docstring is a string that stands alone as a
statement at the start of a module, class or function body.  Modules are
the ``*.py`` files under SRC, listed by path relative to it.
"""

import ast
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines in the module at ``path``."""
    with tokenize.open(path) as handle:
        source = handle.read()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type in _LAYOUT or token.start[0] in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    root = pathlib.Path(sys.argv[1])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

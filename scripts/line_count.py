"""Raw and code lines of each module under src/, and their totals.

A code line is a line that holds part of a token of the program: blank
lines, comment-only lines and the lines of docstrings (the string that
opens a module, class or function body, found by ast) are not code lines,
and a line is counted once however many tokens it holds (found by
tokenize).  A change to a docstring then moves the raw count only, and a
change of code the code count too.

    python scripts/line_count.py [SRC]

SRC defaults to the src/ directory of this repository.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of the first token of every docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(text: str) -> int:
    """The number of code lines of the Python source text."""
    docstrings, lines = docstring_starts(ast.parse(text)), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        # ast's column is in UTF-8 bytes, tokenize's in characters
        start = (tok.start[0], len(tok.line[: tok.start[1]].encode("utf-8")))
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(src: Path) -> list[tuple[str, int, int]]:
    """(module path under src, raw lines, code lines) of every module, sorted."""
    rows = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.relative_to(src).as_posix(), len(text.splitlines()), code_lines(text)))
    return rows


def main(argv: list[str]) -> int:
    rows = count(Path(argv[0]) if argv else ROOT / "src")
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

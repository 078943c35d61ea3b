"""Count each module of src/rankfolio by kind of line: code, docstring,
comment and blank, and print the counts as a markdown table.

    python tools/source_size.py

A line that a module, class or function docstring spans counts as
docstring. Of the other lines, a whitespace-only line is blank, a line
whose first non-blank character is ``#`` is a comment, and the rest are
code. A module's four counts add up to its ``wc -l``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankfolio"
KINDS = ("code", "docstrings", "comments", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The number of lines of each kind in the module at ``path``; like
    ``wc -l``, a last line without a newline is not counted."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        if lineno in docs:
            counts["docstrings"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif line.lstrip().startswith("#"):
            counts["comments"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    rows = [(f"`{path.name}`", count(path)) for path in SRC.glob("*.py")]
    rows.sort(key=lambda row: (-sum(row[1].values()), row[0]))
    rows.append(("total", {kind: sum(c[kind] for _, c in rows)
                           for kind in KINDS}))
    print("| module | " + " | ".join(KINDS) + " | total |")
    print("| --- " * (len(KINDS) + 2) + "|")
    for name, counts in rows:
        cells = [*counts.values(), sum(counts.values())]
        print(f"| {name} | " + " | ".join(f"{n:,}" for n in cells) + " |")


if __name__ == "__main__":
    main()

"""Count the code lines of the package: non-blank lines outside docstrings.

Usage, from the repository root::

    python3 tools/size.py [DIR]

For each module of ``DIR`` (by default ``src/fdareg``), in name order, it
prints the number of lines that are neither blank nor part of a docstring,
then their total. A docstring is the string statement that opens a module,
a class or a function, and ``ast`` gives its first and last line; comments
count as code lines.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(source: str) -> set[int]:
    """The line numbers, from 1, that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The non-blank lines of ``source`` outside its docstrings."""
    skip = docstring_lines(source)
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and number not in skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=str(ROOT / "src" / "fdareg"))
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(args.directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

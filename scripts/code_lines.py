#!/usr/bin/env python3
"""Count the code lines of Python sources: lines that are not blank, not
comments and not docstrings.

Usage::

    python3 scripts/code_lines.py src/mapflow

Each argument is a ``.py`` file or a directory searched for them.  The
script prints one ``<lines> <path>`` line per file, sorted by path, and a
last ``<lines> total`` line.  A docstring is the string that opens a
module, class or function body; every line it spans is left out, as is
every line that holds only a comment.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skipped = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skipped)


def _sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in _sources(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

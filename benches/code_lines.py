"""Code lines of each ``src/hyperfit`` module, and their total.

A code line holds at least one token that is not a comment and not part of
a docstring; blank lines, comment-only lines and docstring lines are not
counted.  A docstring is the string that opens a module, class or function
body.  Every line a token covers counts, so a multi-line string that is not
a docstring counts in full.  Prints one ``name lines`` row per module, then the total:

    python benches/code_lines.py
    python benches/code_lines.py --root /path/to/other/tree
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="tree whose src/hyperfit is counted (default: this one)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.root / "src" / "hyperfit").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<22} {n:>5}")
    print(f"{'total':<22} {total:>5,}")


if __name__ == "__main__":
    main()

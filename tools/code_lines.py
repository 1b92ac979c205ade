"""Count the code lines of the chipfire package, per module and in total.

A code line is a line that holds a token other than a comment or a
docstring: blank lines, comment lines and the lines of module, class
and function docstrings do not count.  Run from anywhere:

    python tools/code_lines.py [package directory]

The directory defaults to the repository's src/chipfire.  The script
only reports; it exits 0 whatever the count.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    docstrings = _docstring_lines(ast.parse(path.read_bytes()))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "chipfire"
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:>12} {count:>6,}")
    print(f"{'total':>12} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])

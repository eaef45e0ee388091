"""Code lines of the package under src/mdirand and of the tests under
tests/: one table each, per module and in total, of the lines that are not
blank, not comment-only and not inside a module, class or function
docstring. Code moved between the two shows on both sides.

    python tests/code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC, TESTS = ROOT / "src" / "mdirand", ROOT / "tests"


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold a token other than a comment,
    outside the docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    for directory in (SRC, TESTS):
        print(f"{directory.relative_to(ROOT)}/")
        total = 0
        for path in sorted(directory.glob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"  {path.name:28} {n:5}")
        print(f"  {'total':28} {total:5}")


if __name__ == "__main__":
    main()

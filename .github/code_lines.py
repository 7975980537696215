"""Print the code-line count of a package directory and its change against a commit.

Usage: python3 .github/code_lines.py DIR REV

Code lines are the lines of the directory's *.py files that hold a token
other than a comment, leaving out blank lines and docstrings (the string
that opens a module, class or function body). The count at REV reads the
same files from git, so the checkout needs that commit. A wrong argument
count, or a REV at which git cannot read DIR, prints one line to stderr and
exits 2.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    directory, rev = argv
    now = sum(code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(Path(directory).glob("*.py")))
    try:
        names = _git("ls-tree", "--name-only", f"{rev}:{directory}").split()
        before = sum(code_lines(_git("show", f"{rev}:{directory}/{name}"))
                     for name in names if name.endswith(".py"))
    except subprocess.CalledProcessError as e:
        why = (e.stderr.strip().splitlines() or [str(e)])[-1]  # git's last line says why
        print(f"cannot read {directory} at {rev}: {why}", file=sys.stderr)
        return 2
    print(f"{directory}: {now} code lines (no docstrings, comments or blank lines); "
          f"against {rev}: {before}, net {now - before:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

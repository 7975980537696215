"""The CI's code-line count leaves out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / ".github" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    x = """not a docstring,
    but a value"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_only_code_lines():
    # import, class, x (two lines), def, return (two lines)
    assert code_lines.code_lines(SOURCE) == 7

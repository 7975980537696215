"""The package exports only what its own code or README.md uses.

A name that setkernel/__init__.py imports must be referenced by code in a
module of the package other than __init__.py, or be named in README.md. A
mention in a docstring or comment is not a reference: only the code's names
and attribute names count. So a wrapper that only tests call cannot be
exported unnoticed.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setkernel"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def names_in_code() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_by_the_package_or_named_in_readme():
    exported = exported_names()
    assert len(exported) > 20
    used = names_in_code()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in exported if name not in used
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


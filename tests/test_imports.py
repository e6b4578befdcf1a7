"""Every module in src/ and tests/ uses each name it imports, and every
name the package exports exists.

A stdlib-`ast` stand-in for a linter's unused-import check: a name bound
by an import must appear as a name somewhere in the module, or be listed
in its `__all__`.  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import richardson

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_check_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport os.path\n"
           "from json import dumps as d, loads\n__all__ = ['loads']\n")
    assert unused_imports(src) == [(3, "os"), (4, "d")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_all_resolves():
    # the unused-import check exempts __all__, so a name removed from the
    # package but still listed there would pass it
    assert len(set(richardson.__all__)) == len(richardson.__all__)
    assert [n for n in richardson.__all__ if not hasattr(richardson, n)] == []
    namespace = {}
    exec("from richardson import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(richardson.__all__)

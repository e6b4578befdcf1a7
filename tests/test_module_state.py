"""No module in src/ keeps results between calls in state of its own.

A stdlib-`ast` check in the style of `test_env_knobs.py`.  It flags

- every memoizing decorator (`lru_cache`, `cache`, `cached_property`, by
  attribute or by name) except the one on `solver._single_level_roots`,
  which the benchmark clears before every pass;
- every module-level name bound to a dict, list or set, by a display, a
  comprehension or a bare `dict()`, `list()` or `set()` call, except
  `__all__`.

So a memo, such as the scans `verify` shares between its branches, lives
in an object its caller creates and drops, and no command or benchmark
pass reuses the work of an earlier one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
MEMOIZERS = {"lru_cache", "cache", "cached_property"}
ALLOWED_MEMO = {("solver.py", "_single_level_roots")}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)


def _memoizer(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)
    return name in MEMOIZERS


def _container(value):
    return isinstance(value, CONTAINERS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in {"dict", "list", "set"})


def _module_level(body):
    """Statements run at import: the module body and the bodies of its
    if, try, with and loop blocks, not those of functions or classes."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def module_state(source, filename="module.py"):
    """(line, name) of each memoizing decorator and module-level container
    the module holds beyond the allowed ones."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                (filename, node.name) not in ALLOWED_MEMO:
            found += [(node.lineno, node.name)
                      for dec in node.decorator_list if _memoizer(dec)]
    for node in _module_level(tree.body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None or not _container(value):
            continue
        found += [(node.lineno, t.id) for t in targets
                  if isinstance(t, ast.Name) and t.id != "__all__"]
    return sorted(found)


def test_check_sees_module_state():
    src = ("import functools\nfrom functools import cache\n"
           "__all__ = ['f']\nLIMIT = 3\nSEEN = {}\n"
           "if LIMIT:\n    ORDER: list = [1]\n"
           "NAMES = set()\nSQUARES = {k: k * k for k in range(3)}\n"
           "@functools.lru_cache(maxsize=8)\ndef f(x):\n"
           "    local = {}\n    return local\n"
           "@cache\ndef _single_level_roots(x):\n    return x\n"
           "class C:\n    TABLE = {}\n")
    assert module_state(src) == [
        (5, "SEEN"), (7, "ORDER"), (8, "NAMES"), (9, "SQUARES"), (11, "f"),
        (15, "_single_level_roots")]
    assert module_state(src, "solver.py")[-1] == (11, "f")


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_state(path):
    assert module_state(path.read_text(), path.name) == []

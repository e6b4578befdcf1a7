"""No module in src/ intercepts or re-issues warnings: a scan returns its
issues with its points (`critical.ScanResult.issues`), so no caller has to
record warnings to learn what went wrong, and each warning reaches the
caller's filters once, from the line that called the scan.

A stdlib-`ast` check in the style of `test_env_knobs.py`: it flags any use
of `warnings.catch_warnings` or `warnings.warn_explicit`, by attribute or
by a `from warnings import`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
INTERCEPTS = {"catch_warnings", "warn_explicit"}


def warning_intercepts(source):
    """(line, name) of each place the module records or re-issues
    warnings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in INTERCEPTS and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "warnings":
            found.append((node.lineno, f"warnings.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in INTERCEPTS]
    return sorted(found)


def test_check_sees_a_warning_intercept():
    src = ("import warnings\nfrom warnings import warn, warn_explicit\n"
           "with warnings.catch_warnings(record=True):\n    pass\n"
           "warnings.warn('x')\nwarn_explicit('y', UserWarning, 'f', 1)\n")
    assert warning_intercepts(src) == [(2, "warn_explicit"),
                                       (3, "warnings.catch_warnings")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_warning_intercepts(path):
    assert warning_intercepts(path.read_text()) == []

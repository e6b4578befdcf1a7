"""No module in src/ reads the environment: the package has no environment
knob, so every setting is a function argument or a CLI flag.

A stdlib-`ast` check in the style of `test_imports.py`: it flags any use of
`os.environ`, `os.environb`, `os.getenv` or `os.getenvb`, by attribute or
by a `from os import`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """(line, name) of each place the module reaches the environment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENV_NAMES]
    return sorted(found)


def test_check_sees_an_environment_read():
    src = ("import os\nfrom os import getenv, path\n"
           "a = os.environ.get('X', '')\nb = getenv('Y')\nc = os.getcwd()\n")
    assert environment_reads(src) == [(2, "getenv"), (3, "os.environ")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []

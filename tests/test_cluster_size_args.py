"""The cluster size M_k = 1 - 2 d_k belongs to the level, so no function in
src/ takes it as an argument, and the CLI reaches no private name of
`critical`.

A stdlib-`ast` check in the style of `test_env_knobs.py`.  The cluster
matrix and chi take P_n and know no level, so `cluster.cluster_matrix` and
`cluster.chi_ratios` keep their `m_k`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
TAKES_P_N = {("cluster.py", "cluster_matrix"), ("cluster.py", "chi_ratios")}


def m_k_parameters(source, filename):
    """(line, function) of each function that has a parameter named m_k,
    outside TAKES_P_N."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs}
            name = getattr(node, "name", "<lambda>")
            if "m_k" in names and (filename, name) not in TAKES_P_N:
                found.append((node.lineno, name))
    return sorted(found)


def private_uses(source, module):
    """(line, name) of each `module._name` the source reaches."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == module)


def test_check_sees_an_m_k_parameter():
    src = ("def f(problem, k, m_k):\n    pass\n"
           "def cluster_matrix(g, pn, m_k):\n    pass\n"
           "g = lambda *, m_k: m_k\n"
           "def h(m_k_other):\n    pass\n")
    assert m_k_parameters(src, "x.py") == [
        (1, "f"), (3, "cluster_matrix"), (5, "<lambda>")]
    assert m_k_parameters(src, "cluster.py") == [(1, "f"), (5, "<lambda>")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_function_takes_the_cluster_size(path):
    assert m_k_parameters(path.read_text(), path.name) == []


def test_cli_reaches_no_private_name_of_critical():
    assert private_uses("critical._walk(x)\ncritical.scan(y)\n",
                        "critical") == [(1, "_walk")]
    cli = ROOT / "src" / "richardson" / "cli.py"
    assert private_uses(cli.read_text(), "critical") == []

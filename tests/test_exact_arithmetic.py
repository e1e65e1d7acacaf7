"""No module of the package computes in floats.

Results are exact ``Fraction``s and integers, so no ``src/menurank/*.py``
imports a float-valued ``math`` function, and ``float(`` appears only as the
assignment solver's infinite comparison sentinel.  Each module is parsed
with ``ast``, as in the unused-import check.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "menurank"
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_MATH = {"log", "log1p", "log2", "log10", "exp", "sqrt", "pow"}
# the one float the package makes: a sentinel that is compared, never added
SENTINEL = ("assignment.py", 'float("inf")')


def float_math_imports(source: str) -> list[str]:
    """The float-valued ``math`` functions ``source`` imports or reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [alias.name for alias in node.names if alias.name in FLOAT_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append(node.attr)
    return found


def float_calls(source: str) -> list[str]:
    """The source text of every ``float(...)`` call in ``source``."""
    return [
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_float_math(path):
    assert float_math_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_makes_no_float_but_the_sentinel(path):
    expected = [SENTINEL[1]] if path.name == SENTINEL[0] else []
    assert float_calls(path.read_text(encoding="utf-8")) == expected


def test_the_checks_see_floats():
    source = (
        "import math\nfrom math import comb, log1p, sqrt\n"
        "def f(x):\n    return math.exp(x) + float(comb(x, 2))\n"
    )
    assert float_math_imports(source) == ["log1p", "sqrt", "exp"]
    assert float_calls(source) == ["float(comb(x, 2))"]

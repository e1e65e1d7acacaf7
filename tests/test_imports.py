"""Every name a module of the package, a test or a demo imports is used in
that file.

No linter ships with the test tools, so this is the unused-import check: each
``src/menurank/*.py`` but ``__init__.py`` (which imports to re-export), each
``tests/*.py`` and each ``demos/*.py`` is parsed with ``ast``, and every name
bound by an ``import`` or ``from ... import`` must be read as a name
somewhere in the file.  ``__future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "menurank"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import sys\nfrom array import array\nfrom operator import add, lshift\n"
        "def f(x: int) -> int:\n    return add(x, sys.maxsize)\n"
    )
    assert unused_imports(source) == ["array", "lshift"]

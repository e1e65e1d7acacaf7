"""Every private helper of the package is used by the package.

Beside the unused-import check in ``test_imports.py``: each module-level
function or class of ``src/menurank`` whose name starts with one underscore
must be read, as a name or as an attribute, somewhere in ``src/menurank``
outside its own body, so a helper whose last caller went is caught.  The
attributes the perf harness wraps (``WRAP_POINTS`` in
``perfbench/tracing.py``, loaded read-only as ``test_trace_points.py`` does)
are exempt: the harness reads them by name.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "menurank"
TRACING = ROOT / "perfbench" / "tracing.py"


def dead_helpers(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module.name`` of each private module-level function or class in
    ``sources`` (module name to source text) that no code outside its own
    body reads, bar the names in ``exempt``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in read_names(tree))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in exempt
        and everywhere[node.name] == read_names(node).count(node.name)
    ]


def read_names(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads, and every attribute it looks up."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def wrapped_attributes() -> frozenset[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return frozenset(attr for _, attr, _ in tracing.WRAP_POINTS)


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_helpers(sources, wrapped_attributes()) == []


def test_the_check_sees_an_unused_helper():
    sources = {
        "a": (
            "def _used(x):\n    return x\n"
            "def _only_itself(x):\n    return _only_itself(x - 1) if x else 0\n"
            "def _unused():\n    pass\n"
            "class _Wrapped:\n    pass\n"
            "def public():\n    return _used(1)\n"
        ),
        "b": "from . import a\nclass _Read:\n    pass\nvalue = a._Read\n",
    }
    assert dead_helpers(sources) == ["a._only_itself", "a._unused", "a._Wrapped"]
    assert dead_helpers(sources, frozenset({"_Wrapped"})) == ["a._only_itself", "a._unused"]

"""Every private helper of the package is used by the package, and every
public name has a reader.

Beside the unused-import check in ``test_imports.py``: each module-level
function or class of ``src/menurank`` whose name starts with one underscore
must be read somewhere in ``src/menurank`` outside its own body, so a helper
whose last caller went is caught.  A read is a name, or an attribute looked
up on a name the file binds to a module (``import x``, ``import x as y``,
``from . import x as y``): ``obj.helper`` on any other object is not a read
of a module-level ``helper``.  The attributes the perf harness wraps
(``WRAP_POINTS`` in ``perfbench/tracing.py``, loaded read-only as
``test_trace_points.py`` does) are exempt: the harness reads them by name.

Each name in ``menurank.__all__`` must be read the same way in
``src/menurank`` outside ``__init__.py`` and outside its own body, or be read
in ``demos/`` or ``perfbench/``, or appear in backticks in README, or be one
of ``KEPT_PUBLIC``, each kept for the reason beside it: so a public helper
that only the tests read is caught.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import menurank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "menurank"
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
READERS = (ROOT / "demos", ROOT / "perfbench")

# public names that nothing but the tests reads, each kept for its reason
KEPT_PUBLIC = {
    "format_profile": "the writer of the documented profile format, which parse_profile reads back",
    "identity": "the unit of the group product that Permutation.compose documents",
    "is_between": "the paper's betweenness, which axioms A1 and A3 quantify over",
    "kendall_count": "Kendall's inversion count, which the kendall preset's distance doubles",
    "ptas_weights": "the weight rules ptas_depth answers for in closed form; the acceptance suite reads it",
}


def dead_helpers(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module.name`` of each private module-level function or class in
    ``sources`` (module name to source text) that no code outside its own
    body reads, bar the names in ``exempt``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    modules = {module: module_names(tree) for module, tree in trees.items()}
    everywhere = Counter(
        name for module, tree in trees.items() for name in read_names(tree, modules[module]))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in exempt
        and everywhere[node.name] == read_names(node, modules[module]).count(node.name)
    ]


def module_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` binds to modules: by ``import x``, ``import x as
    y`` and relative ``from . import x as y``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }


def read_names(tree: ast.AST, modules=frozenset()) -> list[str]:
    """Every name ``tree`` reads, and every attribute it looks up on a chain
    that starts at one of the module names ``modules``."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        or isinstance(node, ast.Attribute) and chain_base(node) in modules
    ]


def chain_base(node: ast.Attribute) -> str | None:
    """The name an attribute chain such as ``a.b.c`` starts at, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def unread_public_names(
    public, package: dict[str, str], readers: list[str], readme: str, keep=frozenset()
) -> list[str]:
    """Each name of ``public`` that no source of ``package`` (module name to
    source text) reads outside the body defining it, no source of
    ``readers`` reads, no backtick span of ``readme`` names and ``keep``
    does not hold."""
    trees = [(tree, module_names(tree)) for tree in map(ast.parse, package.values())]
    own_reads = Counter({
        node.name: read_names(node, modules).count(node.name)
        for tree, modules in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    })
    in_package = Counter(name for tree, modules in trees for name in read_names(tree, modules))
    elsewhere = {
        name
        for tree in map(ast.parse, readers)
        for name in read_names(tree, module_names(tree))
    }
    in_readme = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", readme))))
    return [
        name
        for name in public
        if name not in keep and name not in elsewhere and name not in in_readme
        and in_package[name] == own_reads[name]
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


def test_the_check_reads_attributes_of_modules_only():
    # an attribute of some object is not a read of the module-level helper
    # of that name; an attribute of a module bound in the file is
    helper = "def _helper():\n    pass\n"
    on_object = {"a": helper, "b": "def f(obj):\n    return obj._helper()\n"}
    assert dead_helpers(on_object) == ["a._helper"]
    for binding in ("from . import a", "from . import a as alias", "import a as alias"):
        base = binding.split()[-1]
        on_module = {"a": helper, "b": f"{binding}\nvalue = {base}._helper()\n"}
        assert dead_helpers(on_module) == []


def test_every_public_name_has_a_reader():
    package = {
        path.stem: path.read_text(encoding="utf-8")
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    }
    readers = [path.read_text(encoding="utf-8") for root in READERS for path in root.rglob("*.py")]
    readme = README.read_text(encoding="utf-8")
    assert unread_public_names(menurank.__all__, package, readers, readme, KEPT_PUBLIC) == []


def test_the_check_sees_an_unread_public_name():
    package = {
        "a": (
            "def used():\n    return 1\n"
            "def only_itself(x):\n    return only_itself(x - 1) if x else 0\n"
            "def unread():\n    pass\n"
            "def kept():\n    pass\n"
            "def in_readme():\n    pass\n"
            "def in_demo():\n    pass\n"
        ),
        "b": "from .a import used\nvalue = used()\n",
    }
    readers = ["from a import in_demo\nin_demo()\n"]
    readme = "Call `in_readme(x)` first; unread is named outside backticks."
    public = ["used", "only_itself", "unread", "kept", "in_readme", "in_demo"]
    assert unread_public_names(public, package, readers, readme) == [
        "only_itself", "unread", "kept"]
    assert unread_public_names(public, package, readers, readme, {"kept": "why"}) == [
        "only_itself", "unread"]

"""Every name a fakebm module imports is used there or re-exported, and
every private module-level name it defines is used somewhere in fakebm.

Re-exports are the names a module lists in __all__, and everything the
package __init__ imports from its own submodules: that is the package API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fakebm"


def _unused_imports(tree: ast.Module, package_init: bool = False) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if package_init and node.level > 0:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ are re-exports
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert _unused_imports(tree, package_init=path.name == "__init__.py") == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from a import b as c, d\n"
        "__all__ = ['d']\n"
        "x = math.pi\n"
    )
    assert _unused_imports(tree) == ["os (line 2)", "c (line 3)"]
    init = ast.parse("import math\nfrom .a import b\n")
    assert _unused_imports(init, package_init=True) == ["math (line 1)"]


def _defined_private(node: ast.stmt) -> list[str]:
    """Private names a module-level statement defines (dunders excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(node: ast.AST) -> set[str]:
    """Names a statement reads, imports or reads as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _dead_private_names(trees: dict) -> list[str]:
    """module:name of each private module-level name that no other
    module-level statement of any of the modules references."""
    statements = [(mod, node, _referenced(node)) for mod, tree in trees.items() for node in tree.body]
    dead = []
    for mod, node, _ in statements:
        for name in _defined_private(node):
            if not any(name in refs for _, other, refs in statements if other is not node):
                dead.append(f"{mod}:{name}")
    return dead


def test_no_dead_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_dead_private_name_check_sees_an_unused_name():
    a = ast.parse(
        "_USED = 1\n"
        "_DEAD = 2\n"
        "def _loop(n):\n"
        "    return _loop(n - 1)\n"
        "def _helper():\n"
        "    return _USED\n"
        "def __dunder__():\n"
        "    pass\n"
    )
    b = ast.parse("from .a import _helper\nx = _helper()\n")
    assert _dead_private_names({"a": a, "b": b}) == ["a:_DEAD", "a:_loop"]

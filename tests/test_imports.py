"""Every name a fakebm module imports is used there or re-exported.

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

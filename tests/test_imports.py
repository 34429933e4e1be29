"""Every name a bohmstat module imports is used in that module (no linter is
a dependency, so the check parses the source with ast)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bohmstat"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no Name node reads and
    `__all__` does not export, with their line numbers."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(source) == [("os", 2), ("d", 3)]
    assert unused_imports(source + "os.sep, d\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []

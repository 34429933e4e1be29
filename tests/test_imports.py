"""Every name a bohmstat module imports is used in that module, every
module-level private name is read somewhere in the package, and so is every
dataclass field (no linter is a dependency, so the checks parse the source
with ast)."""

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


def private_definitions(source: str) -> list:
    """Module-level `_name`s (functions, classes, assignments) a source
    defines, with their line numbers; dunders excluded."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets
                        if isinstance(t, ast.Name)]
    return [(name, line) for name, line in defined
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Names a source reads: loaded names and attributes, and the names its
    `from` imports bind."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def dead_private_names(sources: dict) -> list:
    """(module, name, line) of each module-level private name that no source
    in `sources` (module name -> source) reads."""
    read = set().union(*(names_read(src) for src in sources.values()))
    return [(module, name, line) for module, src in sources.items()
            for name, line in private_definitions(src) if name not in read]


def test_scan_finds_a_dead_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n__all__ = []\n\ndef _used():\n    return _LIMIT\n\n"
                 "def _dead():\n    pass\n\nclass _Box:\n    pass\n"),
        "b.py": "from .a import _used\n_used()\n",
    }
    assert dead_private_names(sources) == [("a.py", "_dead", 7), ("a.py", "_Box", 10)]
    sources["b.py"] += "import a\na._dead, _Box\n"
    assert dead_private_names(sources) == []


def test_every_private_name_is_read():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert dead_private_names(sources) == []


def dataclass_fields(source: str) -> list:
    """(class, field, line) of each annotated field of each class a source
    decorates with `dataclass` or `dataclass(...)`."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators):
            fields += [(node.name, stmt.target.id, stmt.lineno)
                       for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)]
    return fields


def unread_fields(sources: dict) -> list:
    """(module, class, field, line) of each dataclass field that no source in
    `sources` (module name -> source) reads as an attribute."""
    read = {node.attr for src in sources.values() for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(module, cls, name, line) for module, src in sources.items()
            for cls, name, line in dataclass_fields(src) if name not in read]


def test_scan_finds_an_unread_field():
    sources = {
        "a.py": ("import dataclasses\nfrom dataclasses import dataclass\n\n"
                 "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n"
                 "    z = 3\n\n@dataclasses.dataclass\nclass Q:\n    u: float\n\n"
                 "class R:\n    v: int\n\ndef f(p, q):\n    p.y = 1\n"
                 "    return p.x\n"),
        "b.py": "from a import P\n",
    }
    assert unread_fields(sources) == [("a.py", "P", "y", 7), ("a.py", "Q", "u", 12)]
    sources["b.py"] += "print(q.y, q.u)\n"
    assert unread_fields(sources) == []


def test_every_dataclass_field_is_read():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert unread_fields(sources) == []

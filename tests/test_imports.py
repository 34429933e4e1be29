"""Every name a bohmstat module imports is used in that module; every
module-level private name, every public function, class, method and property,
and every dataclass field is read somewhere in the package, so no code is
left that only the tests call (no linter is a dependency, so the checks parse
the source with ast).  The four public file readers are the one exception:
the tests are their only callers inside the repository."""

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


# the public readers of the output formats: nothing in the package reads its
# own files back
ALLOWED_UNREAD = ("read_field", "read_rdm", "read_trajectories", "read_ensemble")


def public_definitions(source: str) -> list:
    """(name, line) of each public module-level function and class a source
    defines, and ("Class.name", line) of each public method and property of
    its module-level classes."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defined += [(f"{node.name}.{stmt.name}", stmt.lineno)
                        for stmt in node.body if isinstance(stmt, ast.FunctionDef)]
    return [(name, line) for name, line in defined
            if not name.rpartition(".")[2].startswith("_")]


def unread_public_names(sources: dict, allowed=()) -> list:
    """(module, name, line) of each public definition that no source in
    `sources` (module name -> source) reads, unless its name is in
    `allowed`."""
    read = set(allowed).union(*(names_read(src) for src in sources.values()))
    return [(module, name, line) for module, src in sources.items()
            for name, line in public_definitions(src)
            if name.rpartition(".")[2] not in read]


def test_scan_finds_a_public_name_only_tests_read():
    sources = {
        "a.py": ("def used():\n    return Box().size\n\n"
                 "def tested():\n    pass\n\n"
                 "def read_thing(path):\n    pass\n\n"
                 "class Box:\n    @property\n    def size(self):\n        return 1\n\n"
                 "    def tested_method(self):\n        pass\n\n"
                 "    def _helper(self):\n        pass\n"),
        "b.py": "from a import used\nused()\n",
    }
    test_source = "from a import Box, tested\ntested(), Box().tested_method()\n"
    assert unread_public_names(sources, allowed=("read_thing",)) == [
        ("a.py", "tested", 4), ("a.py", "Box.tested_method", 15)]
    assert unread_public_names(dict(sources, test_a=test_source),
                               allowed=("read_thing",)) == []
    assert ("a.py", "read_thing", 7) in unread_public_names(sources)


def test_every_public_name_is_read():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert unread_public_names(sources, ALLOWED_UNREAD) == []


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


def _annotated_class(node, classes):
    """The class in `classes` that an annotation names (a name, the last part
    of a dotted name, or a string), else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in classes else None


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.Lambda,)


def _bindings(scope, classes, self_class=None) -> dict:
    """name -> what each binding in `scope` (a module or function; its nested
    functions and classes excluded) assigns to it: an expression, a class
    name, or None where the source does not say.  `self` is self_class in a
    method, and an annotated parameter its annotation's class."""
    bound = {}
    if isinstance(scope, SCOPES):
        a = scope.args
        for i, arg in enumerate(a.posonlyargs + a.args + a.kwonlyargs
                                + [v for v in (a.vararg, a.kwarg) if v]):
            bound[arg.arg] = [self_class if i == 0 and arg.arg == "self"
                              else _annotated_class(arg.annotation, classes)]
    body = [scope.body] if isinstance(scope, ast.Lambda) else scope.body
    nodes = list(body)
    typed = {}                       # id(target Name) -> what it is bound to
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Assign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            typed.update((id(target), node.value) for target in targets)
        elif isinstance(node, ast.AnnAssign):
            typed[id(node.target)] = _annotated_class(node.annotation, classes)
        names = []
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names = [(node.id, typed.get(id(node)))]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [((a.asname or a.name).split(".")[0], None) for a in node.names]
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names = [(name, None) for name in node.names]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names = [(node.name, None)]
        elif isinstance(node, SCOPES + (ast.ClassDef,)):
            bound.setdefault(getattr(node, "name", None), []).append(None)
            continue
        for name, what in names:
            bound.setdefault(name, []).append(what)
        nodes += ast.iter_child_nodes(node)
    return bound


def attribute_reads(trees) -> tuple:
    """(resolved, unresolved) over the module ASTs `trees`: the (class,
    attribute) of each attribute read whose receiver resolves to a class the
    trees define, and the attribute of every other read.

    A receiver resolves where the source states its class: `self` in a
    method; an annotated parameter; a constructor call, or a call whose
    return annotation names the class; a field, annotated with a class, of a
    resolved receiver (`sf.rho.grid`); and a name whose every binding in its
    scope resolves to the same class."""
    classes = {n.name for t in trees for n in t.body if isinstance(n, ast.ClassDef)}
    fields, returned = {}, {}
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields[node.name, stmt.target.id] = _annotated_class(
                        stmt.annotation, classes)
        elif isinstance(node, FUNCTIONS):
            returned.setdefault(node.name, set()).add(
                _annotated_class(node.returns, classes))
    returns = {name: cls.pop() if len(cls) == 1 else None
               for name, cls in returned.items()}

    def resolve(expr, chain, seen=frozenset()):
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value, chain, seen)
            return fields.get((owner, expr.attr)) if owner else None
        if isinstance(expr, ast.Call):
            name = getattr(expr.func, "id", getattr(expr.func, "attr", None))
            return name if name in classes else returns.get(name)
        if not isinstance(expr, ast.Name):
            return None
        for depth in range(len(chain), 0, -1):         # innermost scope first
            bound = chain[depth - 1]
            if expr.id in bound:
                if (id(bound), expr.id) in seen:
                    return None
                inner = seen | {(id(bound), expr.id)}
                found = {resolve(w, chain[:depth], inner) if isinstance(w, ast.AST)
                         else w for w in bound[expr.id]}
                return found.pop() if len(found) == 1 else None
        return None

    resolved, unresolved = set(), set()

    def visit(node, chain, self_class=None):
        if isinstance(node, SCOPES):
            chain = chain + [_bindings(node, classes, self_class)]
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = resolve(node.value, chain)
            if owner:
                resolved.add((owner, node.attr))
            else:
                unresolved.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, chain, node.name if isinstance(node, ast.ClassDef) else None)

    for tree in trees:
        visit(tree, [_bindings(tree, classes)])
    return resolved, unresolved


def unread_fields(sources: dict) -> list:
    """(module, class, field, line) of each dataclass field that no source in
    `sources` (module name -> source) reads as an attribute.  A read counts
    for its receiver's class alone where `attribute_reads` resolves the
    receiver, and for every class where it does not."""
    resolved, unresolved = attribute_reads([ast.parse(s) for s in sources.values()])
    return [(module, cls, name, line) for module, src in sources.items()
            for cls, name, line in dataclass_fields(src)
            if name not in unresolved and (cls, name) not in resolved]


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


def test_scan_resolves_the_receiver_of_a_read():
    # every .grid read has a receiver whose class the source states, and
    # none of them is a TrajectoryEnsemble
    source = (
        "from dataclasses import dataclass\n\n"
        "class Grid:\n    pass\n\n"
        "@dataclass\nclass ScalarField:\n    grid: Grid\n    values: list\n\n"
        "@dataclass\nclass FieldFrame:\n    rho: ScalarField\n\n"
        "@dataclass\nclass TrajectoryEnsemble:\n    grid: Grid\n    paths: list\n\n"
        "class Advection:\n"
        "    def __init__(self, grid: Grid):\n        self.grid = grid\n\n"
        "    def ensemble(self) -> TrajectoryEnsemble:\n"
        "        return TrajectoryEnsemble(self.grid, [])\n\n"
        "def load() -> ScalarField:\n    return ScalarField(Grid(), [])\n\n"
        "def use(rho: ScalarField, frame: FieldFrame, adv: Advection):\n"
        "    built = ScalarField(Grid(), [])\n    loaded = load()\n"
        "    ens = adv.ensemble()\n"
        "    return (rho.grid, frame.rho.grid, built.grid, loaded.grid,\n"
        "            loaded.values, ens.paths)\n")
    assert unread_fields({"a.py": source}) == [
        ("a.py", "TrajectoryEnsemble", "grid", 17)]
    # a read whose receiver's class the source does not state counts for all
    assert unread_fields({"a.py": source + "\ndef f(x):\n    return x.grid\n"}) == []
    # so does a name bound to two different classes
    rebound = source.replace("    loaded = load()\n",
                             "    loaded = load()\n    loaded = adv.ensemble()\n")
    assert unread_fields({"a.py": rebound}) == []


def test_every_dataclass_field_is_read():
    sources = {module: (SRC / module).read_text() for module in MODULES}
    assert unread_fields(sources) == []

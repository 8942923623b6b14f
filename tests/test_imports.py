"""Every name a module of the package imports is referenced in that module,
and every private name defined at module level or in a class body is
referenced somewhere in the package.

No linter is a dependency, so this reads each module with ast: an imported
name counts as used when the module loads it as a name anywhere or lists it
in __all__. The package's __init__ imports names only to re-export them, so
it is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ginv"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    src = "import os\nimport numpy as np\nfrom .x import a, b as c\n__all__ = ['a']\nnp.eye(2)\n"
    assert unused_imports(src) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined_names(body) -> set:
    """The names a block of statements defines by def, class or assignment."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def unreferenced_private_names(sources: list) -> list:
    """Private names that no module loads, reads as an attribute or spells
    out as a string.

    A private name is one with a single leading underscore, defined by def,
    class or assignment at the top level of a module or in a class body
    (methods, properties and class attributes), or assigned to an attribute
    of self in a method. Importing it or assigning to it does not count as a
    use; loading the imported name does. A string constant equal to the name
    counts, since a lookup by name (getattr, a cached property's entry in
    __dict__) spells it that way.
    """
    trees = [ast.parse(src) for src in sources]
    defined = set()
    for tree in trees:
        defined |= _defined_names(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined |= _defined_names(node.body)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    defined.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return sorted(private - used)


def test_unreferenced_private_names_are_found():
    a = "_K = 1\n_dead = 2\ndef _f():\n    return _K\nclass _C:\n    pass\n"
    b = "from .a import _f, _C\n_f()\n"
    assert unreferenced_private_names([a, b]) == ["_C", "_dead"]


def test_unreferenced_private_members_are_found():
    a = (
        "class C:\n"
        "    _slot = 0\n"
        "    _unread = 1\n"
        "    def __init__(self):\n"
        "        self._read, self._written = 1, 2\n"
        "    def _used(self):\n"
        "        self._written = self._read\n"
        "        return self._slot + getattr(self, '_by_name')()\n"
        "    def _by_name(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def _dead(self):\n"
        "        return 1\n"
        "    def _also_dead(self):\n"
        "        return 2\n"
    )
    b = "from .a import C\nC()._used()\n"
    assert unreferenced_private_names([a, b]) == ["_also_dead", "_dead", "_unread", "_written"]


def test_no_unreferenced_private_names():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


def test_one_cached_attribute_descriptor():
    """The package caches attributes with linalg._cached alone: no module
    imports functools.cached_property or reads it from functools."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in {a.name for a in node.names}, path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "cached_property"), path.name


# Functions whose parameters a protocol or a caller fixes: the descriptor
# protocol, and the on_report callback of cli._campaign, which reads no index.
_FIXED_SIGNATURES = {"__get__", "__set_name__", "collect"}


def unread_parameters(source: str) -> list:
    """(function, parameter) for every parameter of a def or lambda that its
    body never loads. self, cls and names that start with an underscore are
    exempt, as are the functions of _FIXED_SIGNATURES. A parameter read only
    in a nested function counts as read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name in _FIXED_SIGNATURES:
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(name, p) for p in params if p not in loaded and p not in ("self", "cls") and not p.startswith("_")]
    return found


def test_unread_parameters_are_found():
    src = (
        "def f(a, b, *args, c, _d, **kw):\n"
        "    def g():\n"
        "        return a\n"
        "    return g() + c\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return 1\n"
        "    def __get__(self, instance, owner=None):\n"
        "        return self\n"
        "h = lambda r, _: r\n"
        "k = lambda y: 0\n"
    )
    assert unread_parameters(src) == [("f", "b"), ("f", "args"), ("f", "kw"), ("m", "x"), ("<lambda>", "y")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []

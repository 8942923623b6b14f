"""Every name a module of the package imports is referenced in that module,
and every module-level private name is referenced somewhere in the package.

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


def unreferenced_private_names(sources: list) -> list:
    """Module-level private names that no module loads or reads as an attribute.

    A private name is one with a single leading underscore, defined at the top
    level of a module by def, class or assignment. Importing it does not count
    as a use; loading the imported name does.
    """
    trees = [ast.parse(src) for src in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(private - used)


def test_unreferenced_private_names_are_found():
    a = "_K = 1\n_dead = 2\ndef _f():\n    return _K\nclass _C:\n    pass\n"
    b = "from .a import _f, _C\n_f()\n"
    assert unreferenced_private_names([a, b]) == ["_C", "_dead"]


def test_no_unreferenced_private_names():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(sources) == []

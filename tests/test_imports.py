"""Every name a module of the package imports is referenced in that module,
and every private name defined at module level or in a class body is
referenced somewhere in the package.

No linter is a dependency, so this reads each module with ast: an imported
name counts as used when the module loads it as a name anywhere or lists it
in __all__. The package's __init__ star-imports its modules to re-export
their __all__ lists (see test_the_package_init_only_star_imports_its_modules),
so it is not checked.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from ginv.gen_inverse import GInvResult

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


# The rule homes: the only places outside configuration that read tol_eq,
# each the one home of a numerical rule (see README, "Decisions").
_TOL_EQ_HOMES = {
    "GInvResult._threshold",  # a defining residual of b is small
    "_res_scale",  # two expressions for an inverse agree
    "_idempotency",  # a matrix is idempotent
    "_update",  # the two update forms agree
    "_small",  # a smallness hypothesis holds
    "_bound_holds",  # a bound holds
    "_cor_12",  # the side conditions a p' = a and (1 - q') a = a
    "_reads_zero",  # a gap reads zero
}

# Modules that read tol_eq as configuration: parse, print, encode. None does:
# they take the tolerance names from dataclasses.fields(Tolerances).
_TOL_EQ_CONFIGURATION = set()


def attribute_readers(source: str, attr: str) -> list:
    """The home of every read of the attribute attr: the function at module
    level or the method (as Class.method) that contains it, a nested
    function counting as its enclosing home; the class name for a read in a
    class body outside its methods, "<module>" at module level."""
    found = []

    def visit(node, owner, home):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append(home or owner or "<module>")
            if home is None and isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif home is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner, home)

    visit(ast.parse(source), None, None)
    return found


def tol_eq_readers(source: str) -> list:
    """attribute_readers of tol_eq."""
    return attribute_readers(source, "tol_eq")


def test_tol_eq_readers_are_found():
    src = (
        "t = tol.tol_eq\n"
        "def f(tol):\n"
        "    def lim():\n"
        "        return tol.tol_eq\n"
        "    return lim\n"
        "class C:\n"
        "    x = DEFAULT.tol_eq\n"
        "    def m(self):\n"
        "        return (lambda: self.tol.tol_eq)()\n"
    )
    assert tol_eq_readers(src) == ["<module>", "f", "C", "C.m"]


def test_tol_eq_is_read_only_by_the_rule_homes():
    homes = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in _TOL_EQ_CONFIGURATION:
            homes += [h for h in tol_eq_readers(path.read_text(encoding="utf-8")) if not h.startswith("Tolerances")]
    assert set(homes) == _TOL_EQ_HOMES


# The rank and singularity rule homes: the only places outside configuration
# that read tol_rank or tol_inv (see README, "Decisions").
_TOL_RANK_HOMES = {
    "_rank_cutoff",  # the rank cutoff at a largest singular value
    "oblique",  # the splitting certificate of an oblique projector
}
_TOL_INV_HOMES = {
    "_inverse",  # a square matrix is invertible
    "_Evaluation._margin",  # the existence decision: the core margin
}


@pytest.mark.parametrize("attr, homes", [("tol_rank", _TOL_RANK_HOMES), ("tol_inv", _TOL_INV_HOMES)])
def test_rank_and_singularity_tolerances_are_read_only_by_their_rule_homes(attr, homes):
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in _TOL_EQ_CONFIGURATION:
            found += [h for h in attribute_readers(path.read_text(encoding="utf-8"), attr) if not h.startswith("Tolerances")]
    assert set(found) == homes


def init_names_a_public_name(source: str) -> bool:
    """Does a package __init__ name anything itself: an import that is not
    `from .<module> import *`, a definition, or an assignment to a name
    other than a dunder?"""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module and [a.name for a in node.names] == ["*"]:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):  # the docstring
            continue
        if isinstance(node, ast.Assign) and all(getattr(t, "id", "").startswith("__") for t in node.targets):
            continue
        return True
    return False


def test_init_names_are_found():
    assert not init_names_a_public_name('"""doc"""\nfrom .errors import *\n__version__ = "1"\n')
    assert init_names_a_public_name("from .errors import GinvError\n")
    assert init_names_a_public_name("from . import errors\n")
    assert init_names_a_public_name("from ginv.errors import *\n")
    assert init_names_a_public_name("import numpy\n")
    assert init_names_a_public_name("VERSION = 1\n")
    assert init_names_a_public_name("def f():\n    pass\n")


def test_the_package_init_only_star_imports_its_modules():
    """ginv's public names are the __all__ lists of its modules, each spelled
    once there."""
    assert not init_names_a_public_name((SRC / "__init__.py").read_text(encoding="utf-8"))


def test_perturbation_spells_no_part_of_a_flag():
    """thm2.7 and thm2.12 take their flags' parts from GInvResult._FLAGS, so
    perturbation holds none of those names as a string."""
    parts = {name for names in GInvResult._FLAGS.values() for name in names}
    tree = ast.parse((SRC / "perturbation.py").read_text(encoding="utf-8"))
    spelled = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert parts and not spelled & parts


def runtime_warning_ignores(source: str) -> list:
    """The line of every filterwarnings call (a pytest mark or the warnings
    function) that ignores RuntimeWarning: its action is "ignore" and its
    category is RuntimeWarning or unnamed, which means every Warning."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", getattr(node.func, "id", None)) != "filterwarnings":
            continue
        keyword = [k.value for k in node.keywords if k.arg == "category"]
        for arg in node.args:
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue
            fields = [f.strip() for f in arg.value.split(":")]
            category = getattr(keyword[0], "id", getattr(keyword[0], "attr", "")) if keyword else (fields + ["", ""])[2]
            if fields[0] == "ignore" and category.rsplit(".", 1)[-1] in ("", "Warning", "RuntimeWarning"):
                found.append(node.lineno)
                break
    return sorted(found)


def test_runtime_warning_ignores_are_found():
    src = (
        "import warnings\n"
        "@pytest.mark.filterwarnings('ignore:overflow encountered:RuntimeWarning')\n"
        "def t1(): pass\n"
        "@pytest.mark.filterwarnings('ignore:some text')\n"
        "def t2(): pass\n"
        "@pytest.mark.filterwarnings('ignore::DeprecationWarning', 'error')\n"
        "def t3(): pass\n"
        "def t4():\n"
        "    warnings.filterwarnings('ignore', category=RuntimeWarning)\n"
        "    warnings.filterwarnings('ignore', category=UserWarning)\n"
        "pytestmark = pytest.mark.filterwarnings('ignore::builtins.RuntimeWarning')\n"
    )
    assert runtime_warning_ignores(src) == [2, 4, 9, 11]


TEST_MODULES = sorted((SRC.parent.parent / "tests").glob("*.py")) + sorted((SRC.parent.parent / "bench").glob("test_*.py"))


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_test_ignores_a_runtime_warning(path):
    """pyproject's filterwarnings = ["error"] covers every test: an overflow
    the code forms on purpose is formed under np.errstate where it is read."""
    assert runtime_warning_ignores(path.read_text(encoding="utf-8")) == []


_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_fails_alone_and_the_session_goes_on(tmp_path):
    """Under pyproject's warning filters, hypothesis's report of a failing
    @given test (which imports libcst and so warns of mypy_extensions) is one
    failure, not an INTERNALERROR that ends the session."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    config = SRC.parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr

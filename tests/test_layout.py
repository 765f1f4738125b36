"""Rules on how the package's modules depend on each other."""

import ast
from pathlib import Path

import galimech

PACKAGE = Path(galimech.__file__).resolve().parent


def _imported(tree):
    """Every module, or name in a module, that an import in ``tree`` reads;
    a relative import is read from inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "galimech" + (f".{base}" if base else "")
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def _imports_oracles(tree):
    return "galimech.oracles" in set(_imported(tree))


def test_no_production_module_imports_the_test_oracles():
    # the oracles are reference computations for the tests, not a production path
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracles.py")
    assert len(sources) > 5
    importers = [p.name for p in sources if _imports_oracles(ast.parse(p.read_text()))]
    assert importers == []


def test_the_import_check_sees_each_form_of_import():
    for text in ["import galimech.oracles", "from galimech import oracles",
                 "from galimech.oracles import tau_lift_oracle", "from . import oracles",
                 "from .oracles import x", "def f():\n    from .oracles import x"]:
        assert _imports_oracles(ast.parse(text)), text
    for text in ["import oracles_other", "from . import duals", "from .duals import oracles"]:
        assert not _imports_oracles(ast.parse(text)), text


def _declares_owner_deps(tree):
    """Whether ``tree`` assigns an attribute named ``*_deps`` or reads
    ``MethodType``: the bound-method convention, in which ``obj.name`` would
    declare its support as ``obj.name_deps``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "MethodType"
                or node.attr.endswith("_deps") and isinstance(node.ctx, ast.Store)):
            return True
        if isinstance(node, ast.Name) and node.id == "MethodType":
            return True
        if isinstance(node, ast.alias) and node.name.split(".")[-1] == "MethodType":
            return True
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and str(node.args[1].value).endswith("_deps")):
            return True
    return False


def test_no_production_module_declares_support_through_an_owner():
    # a callable declares the slots it reads as its own ``deps``
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    assert [p.name for p in sources if _declares_owner_deps(ast.parse(p.read_text()))] == []


def test_the_owner_deps_check_sees_each_form():
    for text in ["self.matrix_deps = x", "obj.a_deps, b = x, y", "o.m_deps += 1",
                 "setattr(o, 'm_deps', x)", "from types import MethodType",
                 "import types\nisinstance(f, types.MethodType)", "from types import MethodType as M",
                 "def f(fn):\n    return isinstance(fn, MethodType)"]:
        assert _declares_owner_deps(ast.parse(text)), text
    for text in ["self.deps = x", "f.deps = support(x)", "y = obj.matrix_deps",
                 "getattr(fn, 'deps', None)", "from types import SimpleNamespace"]:
        assert not _declares_owner_deps(ast.parse(text)), text

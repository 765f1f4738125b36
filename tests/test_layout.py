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


SEEDED = {"grad", "jet", "partial", "partial2", "partial_multi"}

# every function outside duals and the oracles that runs a seeded dual pass
SEEDED_CALLERS = {
    "cli.cmd_brackets",  # the lift operator's jet, one per sample point
    "fields.Field.d",  # the partial of a bare callable
    "symmetry.lie_one_form",
    "symmetry.lie_two_form",
    "symmetry.gamma_dot",
    "symmetry.tau_lift_values",
    "symmetry.classify_special_quadratic",
    "symmetry.poisson_bracket",
    "symmetry.special_bracket",
    "symmetry.vector_commutator",
}


def _seeded_callers(tree, module):
    """The outermost function (``module.name``, or ``module.Class.name``
    for a method) around each call of a seeded pass of ``duals``: a
    ``duals.<name>(...)`` call, or a call of a name imported from it."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("duals", "galimech.duals")
                for a in node.names if a.name in SEEDED}
    found = set()

    def visit(node, owner, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.ClassDef) and scope is None:
                visit(child, f"{owner}.{child.name}", None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope is None:
                inner = f"{owner}.{child.name}"
            if isinstance(child, ast.Call) and inner is not None:
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr in SEEDED
                        and isinstance(f.value, ast.Name) and f.value.id == "duals"
                        or isinstance(f, ast.Name) and f.id in imported):
                    found.add(inner)
            visit(child, owner, inner)

    visit(tree, module, None)
    return found


def test_seeded_passes_run_only_where_listed():
    # a new seeded call site is a deliberate edit of SEEDED_CALLERS
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("duals.py", "oracles.py"))
    assert len(sources) > 5
    found = set().union(*(_seeded_callers(ast.parse(p.read_text()), p.stem) for p in sources))
    assert found == SEEDED_CALLERS


def test_the_seeded_call_check_sees_each_form():
    cases = {
        "def f(x):\n    return duals.grad(g, x)": {"m.f"},
        "from .duals import jet\ndef f(x):\n    return jet(g, x)": {"m.f"},
        "from .duals import partial as p\ndef f(x):\n    return p(g, x, 0)": {"m.f"},
        "class A:\n    def d(self, k):\n        return F(lambda xs: duals.partial(self, xs, k))":
            {"m.A.d"},
        "def f(x):\n    def g(y):\n        return duals.partial2(h, y, 0, 1)\n    return g":
            {"m.f"},
        "def f(x):\n    return [duals.partial_multi(h, x, i) for i in x]": {"m.f"},
        "def f(x):\n    return X.jet(x), G.jet(x), theta.grad(x), duals.value(x)": set(),
        "from .duals import value, worst\ndef f(x):\n    return jet(g, x), value(x)": set(),
    }
    for text, want in cases.items():
        assert _seeded_callers(ast.parse(text), "m") == want, text

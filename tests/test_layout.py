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

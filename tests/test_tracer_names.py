"""The benchmark's layer tracer patches galimech by name from outside the
package, and its kernel table calls galimech's public API; a rename in
galimech must not leave one of those names dangling.  This reads
``perfbench/layertrace.py`` and ``perfbench/kernels.py`` and changes
nothing there."""

import importlib
import importlib.util
import math
from pathlib import Path

from galimech.catalog import load_model
from galimech.fields import Field

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_resolves():
    trace = _layertrace()
    for mod, attr, _name, _kind in trace.FUNCTIONS:
        module = importlib.import_module(f"galimech.{mod}")
        assert callable(getattr(module, attr, None)), (mod, attr)
    for mod, cls, attr, _name, _kind in trace.METHODS:
        owner = getattr(importlib.import_module(f"galimech.{mod}"), cls)
        assert callable(vars(owner).get(attr)), (mod, cls, attr)
    assert callable(vars(Field).get("partial"))


def test_the_kernel_table_measures_every_kernel():
    # the benchmark's per-point table calls the public family API by name
    spec = importlib.util.spec_from_file_location("kernels", LAYERTRACE.parent / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    # free3d, a constant metric, and rigidbody, the kernel model whose metric varies
    for name in ("free3d", "rigidbody"):
        table = kernels.kernel_table(load_model(name), seed=0, points=1, budget_s=0.0)
        assert sorted(table) == sorted(kernels.KERNEL_METRICS), name
        assert all(math.isfinite(v) and v > 0 for v in table.values()), (name, table)

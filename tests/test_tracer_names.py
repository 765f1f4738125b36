"""The benchmark's layer tracer patches galimech by name from outside the
package; a rename in galimech must not leave one of its names dangling.
This reads ``perfbench/layertrace.py`` and changes nothing there."""

import importlib
import importlib.util
from pathlib import Path

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

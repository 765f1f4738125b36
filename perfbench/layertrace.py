"""Per-layer tracing of ``galimech`` from outside the package.

``LayerTracer.install()`` replaces public functions and methods of the
package's modules with wrappers and ``uninstall()`` puts the originals
back; no file under ``src/`` changes.  A module-level function is patched
under every name it is bound to in any ``galimech`` module, because callers
look names up in their own module (``cli.tau_lift_values``,
``symmetry.partial_multi``).

Three wrapper kinds:

- counted: a call count only, for hot functions (``MultiDual.__mul__``);
- timed: a call count plus self time, kept on one stack so a layer's self
  time excludes every timed layer it calls;
- span: timed, and also recorded as (name, start, end, parent, op id) in
  memory, for coarse boundaries.  ``write_spans`` saves them.
"""

import time
from collections import Counter

# (module, attribute, metric prefix, kind).  Kinds: "count", "time", "span",
# and "lie" for a factory whose returned closure is a span.
FUNCTIONS = [
    ("cli", "main", "cli", "span"),
    ("catalog", "load_model", "catalog.load_model", "span"),
    ("catalog", "named_charges", "catalog.named_charges", "span"),
    ("symmetry", "noether_charge", "symmetry.noether_charge", "span"),
    ("symmetry", "check_equivalences", "symmetry.check_equivalences", "span"),
    ("symmetry", "lie_spacetime_connection", "symmetry.lie_spacetime_connection", "lie"),
    ("symmetry", "lie_phase_connection", "symmetry.lie_phase_connection", "lie"),
    ("symmetry", "lie_dynamical", "symmetry.lie_dynamical", "lie"),
    ("symmetry", "lie_metric", "symmetry.lie_metric", "lie"),
    ("symmetry", "lie_lagrangian", "symmetry.lie_lagrangian", "lie"),
    ("symmetry", "lie_two_form", "symmetry.lie_two_form", "span"),
    ("symmetry", "lie_euler_lagrange", "symmetry.lie_euler_lagrange", "span"),
    ("symmetry", "lie_one_form", "symmetry.lie_one_form", "span"),
    ("symmetry", "tau_lift_values", "symmetry.tau_lift", "span"),
    ("symmetry", "vector_commutator", "symmetry.vector_commutator", "span"),
    ("symmetry", "classify_special_quadratic", "symmetry.classify", "span"),
    ("dynamics", "integrate", "dynamics.integrate", "span"),
    ("dynamics", "law_of_motion_rhs", "dynamics.rhs", "count"),
    ("duals", "solve_generic", "duals.solve_generic", "time"),
    ("duals", "partial_multi", "duals.partial_multi", "count"),
    ("duals", "grad", "duals.grad", "count"),
]

# (module, class, method, metric prefix, kind)
METHODS = [
    ("duals", "MultiDual", "__mul__", "duals.mul", "count"),
    ("duals", "MultiDual", "__rmul__", "duals.mul", "count"),
    ("geometry", "Metric", "inv", "geometry.metric_inv", "time"),
    ("geometry", "DynamicalConnection", "gamma00_values", "geometry.gamma00", "time"),
    ("geometry", "PhaseTwoForm", "matrix", "geometry.omega_matrix", "time"),
    ("geometry", "PhaseConnection", "lift_values", "geometry.lift_values", "count"),
]


class LayerTracer:
    def __init__(self):
        self.counts = Counter()  # prefix -> calls
        self.self_s = Counter()  # prefix -> self seconds
        self.spans = []  # (name, start, end, parent span index or -1, op id)
        self.op = None  # op id stamped on spans
        self._frames = []  # child seconds of each open timed call
        self._open_spans = []  # indices of open recorded spans
        self._restore = []  # (owner, attribute, original)

    def reset(self):
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()

    # -- wrappers -----------------------------------------------------------------

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn, record=False):
        counts, self_s, frames = self.counts, self.self_s, self._frames
        spans, open_spans, clock = self.spans, self._open_spans, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            frame = [0.0]
            frames.append(frame)
            if record:
                sid = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append(None)
                open_spans.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                self_s[name] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if record:
                    open_spans.pop()
                    spans[sid] = (name, start, end, parent, self.op)

        return wrapper

    def _field_partial(self, fn):
        """Field.partial: counted by derivative order, timed as one layer."""
        counts = self.counts

        def by_order(self_, alpha, xs):
            counts[f"fields.partial{len(alpha)}"] += 1
            return fn(self_, alpha, xs)

        return self.timed("fields.partial", by_order)

    def _wrap(self, name, kind, fn):
        if kind == "count":
            return self.counted(name, fn)
        if kind == "lie":
            return lambda *args, **kwargs: self.timed(name, fn(*args, **kwargs), record=True)
        return self.timed(name, fn, record=(kind == "span"))

    # -- install / uninstall ------------------------------------------------------

    def install(self):
        import importlib
        import sys

        mods = {m: importlib.import_module(f"galimech.{m}")
                for m in ("cli", "catalog", "dynamics", "duals", "fields", "geometry", "symmetry")}
        package = [mod for key, mod in sys.modules.items()
                   if key == "galimech" or key.startswith("galimech.")]
        for mod_name, attr, name, kind in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            wrapper = self._wrap(name, kind, orig)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(name, kind, vars(cls)[attr]))
        field_cls = mods["fields"].Field
        self._patch(field_cls, "partial", self._field_partial(vars(field_cls)["partial"]))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write_spans(self, path):
        with open(path, "w", encoding="utf8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")

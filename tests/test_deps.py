"""Dependency sets: every field and charge declares the chart slots it may
read, and derivatives along any other slot are exactly 0.0 unevaluated.

Soundness is checked against the undeclared path (the bare callable, which
is differentiated in every slot): outside ``deps`` it must give exactly the
float 0.0, at float points and at points that already carry a dual slot.
"""

import pytest
from hypothesis import given, settings, strategies as st

from galimech import duals
from galimech.catalog import (
    load_model,
    named_charges,
    nonclosed_field_model,
    random_compatible_model,
)
from galimech.fields import (
    ZERO,
    Field,
    constant,
    coordinate,
    cos_of,
    exp_of,
    from_config,
    polynomial,
    sin_of,
)
from galimech.geometry import MetricBlocks
from galimech.symmetry import SpecialQuadratic, tau_lift_values

PHASE_DIM = 7  # n = 3: (t, x1..x3, v1..v3)
POINT = [0.31, -0.42, 1.17, 0.23, 0.61, -0.35, 0.48]


def _is_float_zero(x):
    return type(x) is float and x == 0.0


def _outer(fn, xs, j):
    """``fn`` evaluated at ``xs`` with an outer dual slot seeded on slot j."""
    seen = []
    duals.partial(lambda ys: seen.append(fn(ys)) or 0.0, xs, j)
    return seen[0]


def _assert_sound(undeclared, deps, xs, dim=PHASE_DIM, what=""):
    """Outside ``deps`` the undeclared path gives exactly 0.0, also nested."""
    assert deps is not None, what
    for k in range(dim):
        if k in deps:
            continue
        assert _is_float_zero(duals.partial(undeclared, xs, k)), (what, k)
        for j in range(dim):
            assert _is_float_zero(_outer(lambda ys: duals.partial(undeclared, ys, k), xs, j)), (
                what, k, j)


# -- constructors ---------------------------------------------------------------


def test_constructor_dependency_sets():
    x1, x2, x3 = coordinate(1), coordinate(2), coordinate(3)
    assert ZERO.deps == frozenset() and constant(2.5).deps == frozenset()
    assert x2.deps == {2}
    assert polynomial([(1.0, {1: 2, 3: 0}), (2.0, {0: -1})]).deps == {0, 1}
    assert sin_of(x1).deps == {1} and cos_of(x2).deps == {2} and exp_of(x3).deps == {3}
    assert (x1 + x2).deps == {1, 2} and (x1 - x3).deps == {1, 3}
    assert (x1 * sin_of(x2)).deps == {1, 2} and (x1 / x3).deps == {1, 3}
    assert (x2 ** 3).deps == {2} and (-x3).deps == {3}
    assert (ZERO * x1).deps == frozenset()
    scaled = {"kind": "scale", "by": 2.0, "of": {"kind": "coord", "index": 0}}
    spec = {"kind": "sum", "terms": [{"kind": "coord", "index": 2}, scaled]}
    assert from_config(spec).deps == {0, 2}


def test_bare_field_is_differentiated_in_every_slot():
    calls = []

    def fn(xs):
        calls.append(1)
        return xs[0] * xs[1]

    f = Field(fn)
    assert f.deps is None
    assert (f + constant(1.0)).deps is None and (f * coordinate(1)).deps is None
    assert duals.grad(f, [2.0, 3.0, 5.0]) == [3.0, 2.0, 0.0]
    assert len(calls) == 3


def test_partial_skips_undeclared_slots_without_evaluating():
    calls = []
    f = Field(lambda xs: calls.append(1) or xs[1] ** 2, deps=frozenset({1}))
    assert f.partial((1,), [0.0, 3.0]) == 6.0
    assert f.partial((0,), [0.0, 3.0]) == 0.0
    assert f.partial((0, 1), [0.0, 3.0]) == 0.0 and f.partial((1, 1), [0.0, 3.0]) == 2.0
    assert len(calls) == 2


# -- soundness -------------------------------------------------------------------

_slot = st.integers(0, PHASE_DIM - 1)
_coef = st.floats(-1.5, 1.5)
_leaf = st.one_of(
    _coef.map(lambda c: {"kind": "constant", "value": c}),
    _slot.map(lambda k: {"kind": "coord", "index": k}),
    st.lists(
        st.tuples(_coef, st.lists(st.tuples(_slot, st.integers(-1, 3)), max_size=3)),
        min_size=1, max_size=3,
    ).map(lambda terms: {"kind": "polynomial",
                         "coeffs": [[c, [x for pair in e for x in pair]] for c, e in terms]}),
)
_bounded_leaf = st.one_of(_leaf, _leaf.map(lambda f: {"kind": "exp", "of": f}))


def _extend(children):
    return st.one_of(
        st.builds(lambda k, f: {"kind": k, "of": f}, st.sampled_from(["sin", "cos"]), children),
        st.lists(children, min_size=1, max_size=3).map(lambda ts: {"kind": "sum", "terms": ts}),
        st.lists(children, min_size=1, max_size=3).map(
            lambda ts: {"kind": "product", "factors": ts}),
        st.builds(lambda c, f: {"kind": "scale", "by": c, "of": f}, _coef, children),
        st.builds(lambda e, f: {"kind": "pow", "of": f, "exp": e}, st.integers(0, 3), children),
    )


@settings(max_examples=60, deadline=None)
@given(st.recursive(_bounded_leaf, _extend, max_leaves=6))
def test_config_field_deps_are_sound(spec):
    f = from_config(spec)
    _assert_sound(f.fn, f.deps, POINT, what=spec)


def _model_objects(model):
    """(label, undeclared callable, deps) for every field and charge of a model."""
    n = model.chart.n
    out = [(f"G{a}{b}", model.G.entry(a, b).fn, model.G.entry(a, b).deps)
           for a in range(1, n + 1) for b in range(a, n + 1)]
    out += [(f"A{i}", f.fn, f.deps) for i, f in enumerate(model.A)]
    out += [(f"a_total{i}", f.fn, f.deps) for i, f in enumerate(model.a_total or [])]
    if model.em is not None:
        out += [(f"em{k}", f.fn, f.deps) for k, f in model.em._e.items()]
    for action in model.actions.values():
        for gen in action.generators:
            out += [(f"{gen.label}^{i}", c.fn, c.deps) for i, c in enumerate(gen.comps, 1)]
    out += [(label, q.value, q.deps) for label, q in named_charges(model).items()]
    return out


_BUILDERS = {"random-0": lambda: random_compatible_model(0), "broken-field": nonclosed_field_model}


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody", "random-0",
                                  "broken-field"])
def test_catalog_deps_are_sound(name):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    xs = model.sample_phase(1, seed=3)[0]
    dim = model.chart.dim_phase
    for label, undeclared, deps in _model_objects(model):
        _assert_sound(undeclared, deps, xs, dim, what=(name, label))
    # the connection evaluator's support, which the Lie families rely on
    blocks = model.K.blocks
    for k in range(dim):
        if k not in blocks.deps:
            d = duals.partial_multi(blocks, xs, k)
            assert all(_is_float_zero(x) for vals in d.values() for x in vals), (name, k)


def test_charge_dependency_sets(free3d, rigidbody):
    charges = named_charges(free3d)
    assert charges["charge_d1"].deps == {4}  # v1
    assert charges["charge_R3"].deps == {1, 2, 4, 5}  # x1, x2, v1, v2
    assert charges["charge_d0"].deps == {4, 5, 6}
    assert named_charges(rigidbody)["charge_Rz"].deps == {2, 3, 4, 5, 6}
    # a charge whose coefficient fields are bare callables reads every slot
    assert SpecialQuadratic(free3d.G, ZERO, [Field(lambda xs: xs[1])] * 3, ZERO).deps is None


@pytest.mark.parametrize("name", ["free3d", "rigidbody", "cyclotron"])
def test_lift_with_deps_equals_undeclared_lift(name):
    model = load_model(name)
    omega = model.omega
    for xs in model.sample_phase(3, seed=5):
        for label, q in named_charges(model).items():
            tau = duals.value(q.f0(xs))
            undeclared = tau_lift_values(q.value, tau, omega, xs)
            assert tau_lift_values(q, tau, omega, xs) == undeclared, label


# -- counts ------------------------------------------------------------------------


def test_metric_blocks_seed_only_the_metric_support(rigidbody, monkeypatch):
    calls = []
    orig = duals.partial_multi
    monkeypatch.setattr(duals, "partial_multi", lambda *a: calls.append(a[2]) or orig(*a))
    xs = rigidbody.sample_phase(1, seed=1)[0]
    rigidbody.K.values(xs)
    assert sorted(calls) == [2, 3]  # theta and psi: t and phi are outside G's support


def test_tau_lift_evaluates_a_translation_charge_once(free3d, monkeypatch):
    charge = named_charges(free3d)["charge_d1"]
    calls = []
    orig = SpecialQuadratic.__call__
    monkeypatch.setattr(SpecialQuadratic, "__call__",
                        lambda self, xs: calls.append(1) or orig(self, xs))
    tau_lift_values(charge, 0.0, free3d.omega, [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7])
    assert len(calls) == 1  # one pass along v1; the undeclared path makes 7


def test_tau_lift_evaluates_the_connection_once(rigidbody, monkeypatch):
    calls = []
    orig = MetricBlocks.__call__
    monkeypatch.setattr(MetricBlocks, "__call__",
                        lambda self, xs: calls.append(1) or orig(self, xs))
    charge = named_charges(rigidbody)["charge_Rz"]
    tau_lift_values(charge, 0.0, rigidbody.omega, rigidbody.sample_phase(1, seed=2)[0])
    assert len(calls) == 1

"""Dependency sets: every field and charge declares the chart slots it may
read, and derivatives along any other slot are exactly 0.0 unevaluated.

Soundness is checked against the undeclared path (the bare callable, which
is differentiated in every slot): outside ``deps`` it must give exactly the
float 0.0, at float points and at points that already carry a dual slot.
"""

import functools
import operator
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from galimech import duals, symmetry
from galimech.catalog import load_model, named_charges, nonclosed_field_model
from galimech.fields import (
    ZERO,
    Field,
    constant,
    coordinate,
    cos_of,
    exp_of,
    _matvec,
    from_config,
    matvec,
    polynomial,
    program,
    sin_of,
)
from galimech.geometry import Metric, PhaseTwoForm, gamma00_of
from galimech.oracles import pair_bracket
from galimech.symmetry import (
    SpacetimeVectorField,
    SpecialQuadratic,
    check_equivalences,
    lift_operator,
    noether_charge,
    poisson_bracket,
    tau_lift,
    tau_lift_values,
    vector_commutator,
)
from tests_support import field_specs, program_lift_operator, random_compatible_model

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

_specs = field_specs(st.integers(0, PHASE_DIM - 1))


@settings(max_examples=60, deadline=None)
@given(_specs)
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
    out += [(label, lambda xs, q=q: q.value(xs), q.deps)
            for label, q in named_charges(model).items()]
    return out


def _model_methods(model):
    """(label, undeclared callable, deps) for every callable a seeded pass
    differentiates whole: the lift operator (the two-form's support), the
    potential form and the holonomic lifts of the generators."""
    omega, theta, op = model.omega, model.theta, lift_operator(model.omega)
    out = [("lift_operator", lambda xs: op(xs), op.deps)]
    if theta is not None:
        out.append(("theta.components", lambda xs: theta.components(xs),
                    duals.deps_of(theta.components)))
    for action in model.actions.values():
        for gen in action.generators:
            out.append((f"{gen.label}.prolong1", lambda xs, g=gen: g.prolong1_values(xs),
                        duals.deps_of(gen.prolong1_values)))
    return out


def _leaves(obj):
    if isinstance(obj, (list, tuple)):
        return [x for o in obj for x in _leaves(o)]
    return [obj]


def _assert_sound_nested(undeclared, deps, xs, dim, what=""):
    """As :func:`_assert_sound`, for a function valued in nested lists."""
    assert deps is not None, what
    for k in range(dim):
        if k in deps:
            continue
        assert all(map(_is_float_zero, _leaves(duals.partial_multi(undeclared, xs, k)))), (what, k)
        for j in (0, 2, dim - 1):
            nested = _outer(lambda ys: duals.partial_multi(undeclared, ys, k), xs, j)
            assert all(map(_is_float_zero, _leaves(nested))), (what, k, j)


_BUILDERS = {"random-0": lambda: random_compatible_model(0), "broken-field": nonclosed_field_model}


def _exact(x):
    """A scalar as comparable text: a float or the sorted terms of a dual,
    so that -0.0, nan and every term must agree."""
    return repr(sorted(x.terms.items()) if isinstance(x, duals.MultiDual) else x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matvec_helper_is_a_sum_per_row(n):
    # signed zeros, floats and duals in the matrix and in the vector; a row of
    # -0.0 products starts from the int 0 of ``sum`` and so is 0.0
    rng = random.Random(n)

    def entry():
        x = rng.choice([-0.0, 0.0, rng.uniform(-2, 2), rng.uniform(-2, 2)])
        if rng.random() < 0.3:
            return duals.MultiDual({0: x, 1: rng.choice([-0.0, rng.uniform(-1, 1)]),
                                    2: rng.uniform(-1, 1)})
        return x

    for _ in range(300):
        m, v = [[entry() for _ in range(n)] for _ in range(n)], [entry() for _ in range(n)]
        got = list(map(_exact, _matvec(n)(m, v)))
        products = [[r[h] * v[h] for h in range(n)] for r in m]
        assert got == [_exact(functools.reduce(operator.add, p, 0)) for p in products]
        if sys.version_info < (3, 12):  # from 3.12 on, sum adds floats with compensation
            assert got == [_exact(sum(r[h] * v[h] for h in range(n))) for r in m]


@settings(max_examples=60, deadline=None)
@given(_specs, st.integers(0, PHASE_DIM - 1), st.integers(0, PHASE_DIM - 1))
def test_joint_program_equals_each_field_alone(spec, k, j):
    f = from_config(spec)
    fs = [f, f.d(k), f.d(k).d(j)]
    seeded = list(POINT)
    seeded[k] = seeded[k] + duals.MultiDual({1: 1.0})
    seeded[j] = seeded[j] + duals.MultiDual({2: 1.0})
    for xs in (POINT, seeded):
        try:
            alone = [g(xs) for g in fs]
        except ArithmeticError as exc:
            with pytest.raises(type(exc)):
                program(fs)(xs)
            continue
        assert [_exact(x) for x in program(fs)(xs)] == [_exact(x) for x in alone], spec


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody", "random-0",
                                  "broken-field"])
def test_catalog_deps_are_sound(name):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    xs = model.sample_phase(1, seed=3)[0]
    dim = model.chart.dim_phase
    for label, undeclared, deps in _model_objects(model):
        _assert_sound(undeclared, deps, xs, dim, what=(name, label))
    # the connection record's support, which the two-form's relies on
    for k in range(dim):
        if k not in model.K.deps:
            d = duals.partial_multi(lambda ys: model.K.raised(ys)[0], xs, k)
            assert all(_is_float_zero(x) for vals in d.values() for x in vals), (name, k)
    # the forms and lifts that the form families differentiate whole
    for label, undeclared, deps in _model_methods(model):
        _assert_sound_nested(undeclared, deps, xs, dim, what=(name, label))


@pytest.mark.parametrize("name", ["free3d", "cyclotron", "rigidbody", "random-0"])
def test_raised_values_are_the_sym_program_bit_for_bit(name):
    # the blocks raise the record's lowered program by G^-1, and the lift
    # operator reads the same run: both exactly as one program of the fields
    model = _BUILDERS.get(name, lambda: load_model(name))()
    n, omega = model.chart.n, model.omega
    xs = model.sample_phase(1, seed=8)[0]
    at_points = [lambda f, ys: f(ys)] + [lambda f, ys, j=j: _outer(f, ys, j) for j in (0, 2)]

    def blocks(ys):
        return model.K.raised(ys)[0]

    for at in at_points:  # a float point, and a dual point seeded on t and on x2
        got, want = at(blocks, xs[: n + 1]), at(program(model.K.sym), xs[: n + 1])
        assert {k: [_exact(x) for x in v] for k, v in got.items()} == (
            {k: [_exact(x) for x in v] for k, v in want.items()}), name
        (u, lam), (u0, lam0) = at(lift_operator(omega), xs), at(program_lift_operator(omega), xs)
        assert [_exact(x) for x in u] == [_exact(x) for x in u0], name
        assert [[_exact(x) for x in r] for r in lam] == [[_exact(x) for x in r] for r in lam0]


@pytest.mark.parametrize("name", ["cyclotron", "rigidbody", "random-0"])
def test_two_form_and_motion_row_jets_invert_no_metric(name, monkeypatch):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    calls = []
    orig = Metric.inv
    monkeypatch.setattr(Metric, "inv", lambda self, *a: calls.append(1) or orig(self, *a))
    model.omega.jet(model.sample_phase(1, seed=9)[0])
    model.dyn.motion_jet(model.sample_j2(1, seed=9)[0])
    assert calls == []


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
            undeclared = tau_lift_values(lambda ys, q=q: q.value(ys), tau, omega, xs)
            assert tau_lift_values(q, tau, omega, xs) == undeclared, label


# -- counts ------------------------------------------------------------------------


def test_metric_blocks_seed_only_the_metric_support(rigidbody, monkeypatch):
    seeded = []
    for name in ("partial", "partial2", "partial_multi"):
        monkeypatch.setattr(duals, name, lambda *a, o=getattr(duals, name): seeded.append(a) or o(*a))
    xs = rigidbody.sample_phase(1, seed=1)[0]
    rigidbody.K.values(xs)
    assert seeded == []  # the metric entries carry derivative rules
    # theta and psi only: t and phi are outside G's support, so the jet's
    # partials along them are the constant 0.0, a float even at a dual point
    ys = list(xs)
    ys[2] = ys[2] + duals.MultiDual({1: 1.0})
    ys[3] = ys[3] + duals.MultiDual({2: 1.0})
    _, dg = rigidbody.G.jet(ys)
    assert all(type(x) is float and x == 0.0 for lam in (0, 1) for row in dg[lam] for x in row)
    assert all(any(isinstance(x, duals.MultiDual) for row in dg[lam] for x in row)
               for lam in (2, 3))


def test_rigidbody_forms_declare_their_support(rigidbody):
    velocities = {4, 5, 6}
    assert lift_operator(rigidbody.omega).deps == {2, 3} | velocities
    assert duals.deps_of(rigidbody.theta.components) == {2, 3} | velocities
    rx, _, rz = rigidbody.actions["rotations"].generators
    assert duals.deps_of(rx.prolong1_values) == {1, 2, 4, 5}
    assert duals.deps_of(rz.prolong1_values) == frozenset()


def test_rigidbody_two_form_is_never_seeded_along_t_or_phi(rigidbody, monkeypatch):
    # the Lie families read Omega's jet in closed form: no slot is seeded
    seeds = []
    orig = duals.partial_multi

    def spy(fn, xs, k):
        if getattr(fn, "__func__", None) is PhaseTwoForm.matrix:
            seeds.append(k)
        return orig(fn, xs, k)

    monkeypatch.setattr(duals, "partial_multi", spy)
    m = rigidbody
    X = m.actions["rotations"].generators[0]
    check_equivalences(m, [X], m.sample_e(1, 4), m.sample_phase(1, 4), m.sample_te(1, 4),
                       m.sample_j2(1, 4))
    assert seeds == []


def test_the_record_jet_runs_once_per_point_for_every_generator(rigidbody, monkeypatch):
    m = rigidbody
    runs, jet = [], m.pconn.jet
    # the model's connections and its two-form share the record, so its one jet
    monkeypatch.setitem(m.pconn.__dict__, "jet", lambda xs: runs.append(1) or jet(xs))
    check_equivalences(m, m.actions["rotations"].generators, m.sample_e(2, 4),
                       m.sample_phase(2, 4), m.sample_te(2, 4), m.sample_j2(2, 4))
    assert len(runs) == 6  # at each of 2 points of TE, phase space and J2, not per generator


def test_tau_lift_evaluates_a_translation_charge_once(free3d, monkeypatch):
    charge = named_charges(free3d)["charge_d1"]
    calls = []
    orig = SpecialQuadratic.__call__
    monkeypatch.setattr(SpecialQuadratic, "__call__",
                        lambda self, xs: calls.append(1) or orig(self, xs))
    tau_lift_values(charge, 0.0, free3d.omega, [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7])
    assert len(calls) == 1  # one pass along v1; the undeclared path makes 7


def test_bound_charge_value_declares_the_charge_support(free3d, monkeypatch):
    charge = named_charges(free3d)["charge_R3"]
    assert duals.deps_of(charge.value) == charge.deps
    seeded = []
    orig = duals.partial_multi
    monkeypatch.setattr(duals, "partial_multi", lambda *a: seeded.append(a[2]) or orig(*a))
    xs = [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7]
    tau_lift_values(charge, 0.0, free3d.omega, xs)
    by_charge = list(seeded)
    seeded.clear()
    tau_lift_values(charge.value, 0.0, free3d.omega, xs)
    assert seeded == by_charge == sorted(charge.deps)


def test_tau_lift_evaluates_the_connection_once(rigidbody, monkeypatch):
    # the lift operator reads the connection blocks and G^-1 from one run of
    # the record's program, and a lift reads the operator once
    calls = []
    op = lift_operator(rigidbody.omega)
    monkeypatch.setattr(symmetry, "lift_operator",
                        lambda omega: lambda xs: calls.append(1) or op(xs))
    charge = named_charges(rigidbody)["charge_Rz"]
    tau_lift_values(charge, 0.0, rigidbody.omega, rigidbody.sample_phase(1, seed=2)[0])
    assert len(calls) == 1


# -- derivative rules ----------------------------------------------------------------


def _terms(x):
    return x.terms if isinstance(x, duals.MultiDual) else {0: x}


def _assert_close(got, want, what):
    """Equal to 1e-12 relative, coefficient by coefficient of the duals."""
    got, want = _terms(got), _terms(want)
    for k in set(got) | set(want):
        a, b = got.get(k, 0.0), want.get(k, 0.0)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (what, k, a, b)


def _assert_rules_match_seeded(f, xs, dim, what=""):
    """``d(i)`` and ``d(i).d(j)`` against seeded passes over the bare callable,
    at ``xs`` and with an outer dual slot on slot 0 and on the last slot."""
    outer = [lambda g: g(xs)] + [lambda g, j=j: _outer(g, xs, j) for j in (0, dim - 1)]
    for at in outer:
        for i in range(dim):
            _assert_close(at(f.d(i)), at(lambda ys: duals.partial(f.fn, ys, i)), (what, i))
            for j in range(i, dim):
                _assert_close(at(f.d(i).d(j)), at(lambda ys: duals.partial2(f.fn, ys, i, j)),
                              (what, i, j))


@settings(max_examples=60, deadline=None)
@given(_specs)
def test_config_field_rules_match_seeded_partials(spec):
    _assert_rules_match_seeded(from_config(spec), POINT, PHASE_DIM, what=spec)


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody",
                                  "random-0", "random-1", "random-2", "random-3"])
def test_raised_field_rules_match_seeded_partials(name):
    # the raise rule d_k(G^-1 w) = G^-1 (d_k w - (d_k G) G^-1 w), against seeded
    # passes through the inverse line of each field's own program
    model = (random_compatible_model(int(name[-1])) if name.startswith("random")
             else load_model(name))
    v = [coordinate(model.chart.vel(h)) for h in range(1, model.chart.n + 1)]
    accel = matvec(model.G.inv_node, gamma00_of(model.dyn.low, v))
    fields = [f for fs in model.K.sym.values() for f in fs] + accel
    assert any(f.op == "matvec" for f in fields) or name.startswith("free"), name  # flat: zeros
    xs, dim = model.sample_phase(1, seed=3)[0], model.chart.dim_phase
    alphas = [(i,) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(i, dim)]
    for k, f in enumerate(fields):
        by_rule = program([f.d(a[0]) if len(a) == 1 else f.d(a[0]).d(a[1]) for a in alphas])(xs)
        for alpha, got in zip(alphas, by_rule):
            seeded = duals.partial if len(alpha) == 1 else duals.partial2
            _assert_close(got, seeded(f.fn, xs, *alpha), (name, k, alpha))


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody", "random-0",
                                  "broken-field"])
def test_catalog_field_rules_match_seeded_partials(name):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    xs = model.sample_phase(1, seed=3)[0]
    fields = list(model.G._e.values()) + list(model.A) + list(model.a_total or [])
    fields += [c for action in model.actions.values() for gen in action.generators
               for c in gen.comps]
    assert all(f.op != "call" for f in fields), name  # each carries a derivative rule
    for k, f in enumerate(fields):
        _assert_rules_match_seeded(f, xs, model.chart.dim_phase, what=(name, k))


def test_field_derivatives_are_built_once():
    f = sin_of(coordinate(1)) * coordinate(2) ** 3 / exp_of(coordinate(1))
    assert f.d(1) is f.d(1) and f.d(2).d(1) is f.d(2).d(1)
    assert f.d(0) is ZERO and coordinate(1).d(1).const_value == 1.0
    bare = Field(lambda xs: xs[0] * xs[1])
    assert bare.op == "call" and bare.d(0).partial((), [2.0, 3.0]) == 3.0


def test_tau_lift_inverts_the_metric_once(rigidbody, monkeypatch):
    calls = []
    orig = Metric.inv
    monkeypatch.setattr(Metric, "inv", lambda self, *a: calls.append(1) or orig(self, *a))
    charge = named_charges(rigidbody)["charge_Rz"]
    for xs in rigidbody.sample_phase(3, seed=2):
        tau_lift_values(charge, 0.0, rigidbody.omega, xs)
    assert len(calls) == 3


# -- lifts and brackets ----------------------------------------------------------------


def _lift_charges(model):
    """The named charges; a model without actions (random-0) gets the
    contraction charges of d0 and of x1 d2 - x2 d1, conserved or not."""
    charges = named_charges(model)
    if charges:
        return charges
    chart, x1, x2 = model.chart, coordinate(1), coordinate(2)
    rest = [ZERO] * (chart.n - 2)
    gens = {"d0": SpacetimeVectorField(chart, 1.0, [ZERO, ZERO, *rest]),
            "R3": SpacetimeVectorField(chart, 0.0, [-x2, x1, *rest])}
    return {f"charge_{k}": noether_charge(X, model.theta)[0] for k, X in gens.items()}


@pytest.mark.parametrize("name", ["free3d", "rigidbody", "cyclotron", "random-0"])
def test_lift_and_bracket_deps_are_sound(name):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    omega, dim = model.omega, model.chart.dim_phase
    xs = model.sample_phase(1, seed=6)[0]
    charges = _lift_charges(model)
    for label, q in charges.items():
        for tau in (0.0, 1.0):
            _assert_sound_nested(lambda ys, q=q, t=tau: tau_lift_values(q.value, t, omega, ys),
                                 tau_lift(q, tau, omega).deps, xs, dim, what=(name, label, tau))
    # each charge with the next, so every charge enters one bracket
    labels = list(charges)
    for la, lb in zip(labels, labels[1:] + labels[:1]):
        f, g = charges[la], charges[lb]
        bracket, _ = pair_bracket((f, 0.0), (g, 1.0), omega)
        _assert_sound_nested(lambda ys: poisson_bracket(f.value, g.value, omega, ys),
                             bracket.deps, xs, dim, what=(name, la, lb))


@pytest.mark.parametrize("name", ["free3d", "rigidbody", "cyclotron", "random-0"])
def test_declared_lifts_and_brackets_equal_the_undeclared_ones(name):
    model = _BUILDERS.get(name, lambda: load_model(name))()
    omega = model.omega
    xs = model.sample_phase(1, seed=7)[0]
    charges = list(_lift_charges(model).values())
    for f, g in zip(charges, charges[1:]):
        hf, hg = tau_lift(f, 1.0, omega), tau_lift(g, 0.0, omega)
        bracket, sigma = pair_bracket((f, 1.0), (g, 0.0), omega)

        def bare_f(ys):
            return tau_lift_values(lambda zs: f.value(zs), 1.0, omega, ys)

        def bare_g(ys):
            return tau_lift_values(lambda zs: g.value(zs), 0.0, omega, ys)

        def bare_bracket(ys):
            return poisson_bracket(lambda zs: f.value(zs), lambda zs: g.value(zs), omega, ys)

        assert hf(xs) == bare_f(xs) and hg(xs) == bare_g(xs)
        assert bracket(xs) == bare_bracket(xs) and sigma == 0.0
        assert vector_commutator(hf, hg, xs) == vector_commutator(bare_f, bare_g, xs)
        assert tau_lift_values(bracket, sigma, omega, xs) == tau_lift_values(
            bare_bracket, 0.0, omega, xs)


def test_lift_commutator_seeds_only_the_declared_slots(free3d, monkeypatch):
    charge = named_charges(free3d)["charge_d1"]
    hf, hg = tau_lift(charge, 0.0, free3d.omega), tau_lift(charge, 1.0, free3d.omega)
    assert hf.deps == hg.deps == {4, 5, 6}  # v1, and the velocities the two-form reads
    seeded = []
    orig = duals.partial_multi

    def spy(fn, xs, k):
        if fn is hf or fn is hg:
            seeded.append(k)
        return orig(fn, xs, k)

    monkeypatch.setattr(duals, "partial_multi", spy)
    vector_commutator(hf, hg, [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7])
    assert seeded == [4, 5, 6, 4, 5, 6]  # the undeclared lifts seed all 7 slots each

import contextlib
import dataclasses
import gc
import io
import math
import random
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from galimech import cli, duals, symmetry
from galimech.duals import MultiDual, partial, partial2, partial_multi, value
from galimech.catalog import load_model, named_charges
from galimech.dynamics import integrate
from galimech.fields import ONE, ZERO, Chart, constant, coordinate, polynomial, program, sin_of
from galimech.geometry import closure_residual, metric_record, reeb_residual
from galimech.symmetry import (
    LieAlgebraAction,
    SpacetimeVectorField,
    check_equivalences,
    classify_spacetime,
    generator_match,
    momentum_map,
    tau_lift_values,
)
from tests_support import conserved_drift


def f_poly(xs):
    return xs[0] ** 2 * xs[1] + 3.0 * xs[1] ** 3 - xs[0]


def f_trig(xs):
    return duals.sin(xs[0]) * duals.exp(xs[1]) + duals.cos(xs[0] * xs[1])


def test_first_partials_polynomial():
    p = [1.3, -0.7]
    assert abs(partial(f_poly, p, 0) - (2 * 1.3 * -0.7 - 1.0)) < 1e-14
    assert abs(partial(f_poly, p, 1) - (1.3 ** 2 + 9 * 0.7 ** 2)) < 1e-13


def test_second_partials_and_symmetry():
    p = [0.4, 0.9]
    assert abs(partial2(f_poly, p, 0, 0) - 2 * 0.9) < 1e-14
    assert abs(partial2(f_poly, p, 0, 1) - 2 * 0.4) < 1e-14
    assert partial2(f_trig, p, 0, 1) == pytest.approx(partial2(f_trig, p, 1, 0), abs=1e-13)


def test_trig_exp_against_analytic():
    p = [0.4, 0.9]
    d0 = math.cos(0.4) * math.exp(0.9) - math.sin(0.4 * 0.9) * 0.9
    assert abs(partial(f_trig, p, 0) - d0) < 1e-13
    d00 = -math.sin(0.4) * math.exp(0.9) - math.cos(0.36) * 0.81
    assert abs(partial2(f_trig, p, 0, 0) - d00) < 1e-13


def test_division_and_powers():
    def f(xs):
        return (xs[0] ** 3 + 1.0) / (xs[1] ** 2 + 2.0)

    p = [0.5, 1.5]
    got = partial(f, p, 1)
    want = -(0.5 ** 3 + 1) * 2 * 1.5 / (1.5 ** 2 + 2) ** 2
    assert abs(got - want) < 1e-14
    # negative integer powers go through the reciprocal series
    def g(xs):
        return xs[0] ** -2

    assert abs(partial(g, [2.0], 0) - (-2 * 2.0 ** -3)) < 1e-15


def test_power_matches_repeated_multiplication(monkeypatch):
    # dyadic coefficients keep every product exact, so terms compare bit for bit
    for x in (MultiDual({0: 1.5, 1: -0.75}), MultiDual({0: -1.25, 1: 0.5, 2: 2.0, 3: 0.25})):
        want = MultiDual({0: 1.0})
        for k in range(6):
            assert (x ** k).terms == want.terms
            want = want * x
    calls = []
    mul = MultiDual.__mul__
    monkeypatch.setattr(MultiDual, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    MultiDual({0: 1.5, 1: 1.0}) ** 1
    assert len(calls) == 1


def test_nesting_gives_third_order_info():
    # derivative of a derivative: d/dx (d/dy f) computed by nesting engine calls
    def inner(xs):
        return partial(f_trig, xs, 1)

    p = [0.3, -0.2]
    nested = partial(inner, p, 0)
    direct = partial2(f_trig, p, 0, 1)
    assert abs(nested - direct) < 1e-13

    # and one order deeper: d^2/dx^2 of d/dy f vs central differences
    def inner2(xs):
        return partial2(inner, xs, 0, 0)

    h = 1e-4
    fd = (inner([0.3 + h, -0.2]) - 2 * inner([0.3, -0.2]) + inner([0.3 - h, -0.2])) / h ** 2
    assert abs(inner2(p) - fd) < 1e-6


def test_linearity():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)

        def combo(xs):
            return a * f_poly(xs) + b * f_trig(xs)

        p = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        lhs = partial(combo, p, 0)
        rhs = a * partial(f_poly, p, 0) + b * partial(f_trig, p, 0)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(rhs))


def test_partial_multi_matches_scalar_path():
    def vec(xs):
        return [f_poly(xs), [f_trig(xs), xs[0] * xs[1]]]

    p = [0.8, -0.4]
    d = partial_multi(vec, p, 0)
    assert abs(d[0] - partial(f_poly, p, 0)) < 1e-15
    assert abs(d[1][0] - partial(f_trig, p, 0)) < 1e-15
    assert abs(d[1][1] - (-0.4)) < 1e-15


def test_solve_generic_against_numpy():
    rng = random.Random(11)
    for _ in range(10):
        a = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
        b = [rng.uniform(-1, 1) for _ in range(4)]
        got = duals.solve_generic(a, b)
        want = np.linalg.solve(np.array(a), np.array(b))
        assert np.max(np.abs(np.array(got) - want)) < 1e-12


def test_solve_generic_with_duals_differentiates_inverse():
    # d/dt of solve(A(t), b) equals -A^-1 A' A^-1 b
    def sol0(t):
        a = [[2.0 + t[0], 0.5], [0.5, 1.0]]
        return duals.solve_generic(a, [1.0, 2.0])[0]

    got = partial(sol0, [0.3], 0)
    h = 1e-6
    fd = (sol0([0.3 + h]) - sol0([0.3 - h])) / (2 * h)
    assert abs(got - fd) < 1e-8


def test_invert_generic():
    a = [[2.0, 1.0], [1.0, 3.0]]
    inv = duals.invert_generic(a)
    want = np.linalg.inv(np.array(a))
    assert np.max(np.abs(np.array(inv) - want)) < 1e-14


def _per_column_inverse(a):
    n = len(a)
    cols = [duals.solve_generic(a, [1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _same(x, y):
    if isinstance(x, MultiDual):
        return isinstance(y, MultiDual) and x.terms == y.terms
    return type(x) is type(y) and x == y


def test_invert_generic_equals_per_column_solves_exactly():
    # one elimination shared by the identity's columns makes the same pivots,
    # factors and row updates as one solve per column
    rng = random.Random(5)
    for trial in range(60):
        n = 2 + trial % 3
        if trial % 2:
            a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        else:
            # nested duals: three slots, one of them an outer slot
            a = [[MultiDual({k: rng.uniform(-1, 1) for k in (0, 1, 2, 4, 3)})
                  for _ in range(n)] for _ in range(n)]
        got = duals.invert_generic(a)
        want = _per_column_inverse(a)
        assert all(_same(got[i][j], want[i][j]) for i in range(n) for j in range(n))


def test_solve_generic_matrix_right_hand_side():
    rng = random.Random(8)
    a = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
    b = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(3)]
    x = duals.solve_generic(a, b)
    for j in range(2):
        assert [row[j] for row in x] == duals.solve_generic(a, [row[j] for row in b])


def test_partial_honours_deps_attribute():
    calls = []

    def fn(xs):
        calls.append(1)
        return xs[0] * xs[2]

    fn.deps = frozenset({0, 2})
    assert duals.grad(fn, [2.0, 5.0, 3.0]) == [3.0, 0.0, 2.0]
    assert partial2(fn, [2.0, 5.0, 3.0], 0, 1) == 0.0
    assert partial2(fn, [2.0, 5.0, 3.0], 0, 2) == 1.0
    assert len(calls) == 3


def test_value_and_comparisons():
    d = MultiDual({0: 2.5, 1: 1.0})
    assert value(d) == 2.5
    assert value(3.0) == 3.0
    assert d > MultiDual({0: 1.0})
    with pytest.raises(TypeError):
        abs(d)
    with pytest.raises(TypeError):
        d ** 0.5


def test_grad_of_nested_values_keeps_the_nesting():
    def fn(xs):
        return {"a": [xs[0] * xs[1], (xs[2], 1.0)], "b": xs[1] ** 2}

    p = [2.0, 3.0, 5.0]
    g = duals.grad(fn, p)
    assert g == [{"a": [3.0, [0.0, 0.0]], "b": 0.0},
                 {"a": [2.0, [0.0, 0.0]], "b": 6.0},
                 {"a": [0.0, [1.0, 0.0]], "b": 0.0}]
    assert g == [partial_multi(fn, p, i) for i in range(3)]


def test_grad_gives_float_zero_blocks_outside_deps():
    calls = []

    def fn(xs):
        calls.append(1)
        return [[xs[1], xs[1] * xs[1]], [0.5, xs[1] + 1.0]]

    fn.deps = frozenset({1})
    g = duals.grad(fn, [0.3, 2.0, 0.7])
    assert g[1] == [[1.0, 4.0], [0.0, 1.0]]
    for k in (0, 2):
        assert g[k] == [[0.0, 0.0], [0.0, 0.0]]
        assert all(type(x) is float for row in g[k] for x in row)
    assert len(calls) == 1
    # nothing read: one plain evaluation gives the shape of the zeros
    fn.deps = frozenset()
    assert duals.grad(fn, [0.3, 2.0, 0.7]) == [[[0.0, 0.0], [0.0, 0.0]]] * 3
    assert len(calls) == 2


def test_a_bound_method_is_differentiated_in_every_slot():
    # a method declares no support, whatever its owner carries
    class Form:
        def __init__(self):
            self.calls = 0
            self.comps_deps = frozenset({0})

        def comps(self, xs):
            self.calls += 1
            return [xs[0] * xs[0], 2.0]

    f = Form()
    assert duals.deps_of(f.comps) is None
    assert duals.grad(f.comps, [3.0, 1.0]) == [[6.0, 0.0], [0.0, 0.0]] and f.calls == 2


def test_threads_allocate_slots_independently(rigidbody):
    # three threads on two cores, switching every microsecond: with one shared
    # slot counter a thread's nested partials could reuse a live slot bit
    m = rigidbody
    gens = m.actions["rotations"].generators
    pts = [m.sample_e(6, 4), m.sample_phase(6, 4), m.sample_te(6, 4), m.sample_j2(6, 4)]
    serial = [check_equivalences(m, [X], *pts)[0].residuals for X in gens]
    threaded = [None] * len(gens)

    def run(i):
        threaded[i] = check_equivalences(m, [gens[i]], *pts)[0].residuals

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(gens))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial


# -- exact zeros --------------------------------------------------------------------


def test_product_with_an_exact_zero_is_a_float():
    d = MultiDual({0: -2.5, 1: 1.0, 3: 0.25})
    for x in (d * 0.0, 0.0 * d, d * 0, 0 * d):
        assert type(x) is float and x == 0.0
    assert math.copysign(1.0, d * 0.0) == -1.0  # the value's sign, as for floats
    assert isinstance(d * 1e-300, MultiDual)


def test_non_finite_term_times_zero_is_still_nan():
    for terms in ({0: math.inf, 1: 1.0}, {0: math.nan}):
        for x in (MultiDual(terms) * 0.0, 0.0 * MultiDual(terms)):
            assert math.isnan(value(x))
    x = MultiDual({0: 1.0, 1: -math.inf}) * 0.0
    assert value(x) == 0.0 and math.isnan(x.terms[1])


_DUAL_MUL = MultiDual.__mul__


def _dense_mul(self, other):
    """Multiplication without the exact-zero rule: a dual stays a dual."""
    if isinstance(other, MultiDual):
        return _DUAL_MUL(self, other)
    return MultiDual({k: v * other for k, v in self.terms.items()})


def _lift_derivatives(fn, xs):
    """The gradient and every first and second partial of each component."""
    dim = len(xs)
    comps = [lambda ys, i=i: fn(ys)[i] for i in range(dim)]
    first = [[partial(c, xs, k) for k in range(dim)] for c in comps]
    second = [[partial2(c, xs, k, l) for k in range(dim) for l in range(k, dim)] for c in comps]
    return [duals.grad(fn, xs), first, second]


def _leaf_values(obj):
    if isinstance(obj, list):
        return [x for o in obj for x in _leaf_values(o)]
    return [value(obj)]


@pytest.mark.parametrize("name", ["free3d", "cyclotron"])
def test_zero_rule_keeps_the_derivatives_of_a_lift(name, monkeypatch):
    model = load_model(name)
    xs = model.sample_phase(1, seed=8)[0]
    charges = named_charges(model)
    for label in ("charge_d0", "charge_R3"):
        q = charges[label]

        def lift(ys, q=q):
            return tau_lift_values(q, value(q.f0(xs)), model.omega, ys)

        got = _lift_derivatives(lift, xs)
        with monkeypatch.context() as m:
            m.setattr(MultiDual, "__mul__", _dense_mul)
            m.setattr(MultiDual, "__rmul__", _dense_mul)
            want = _lift_derivatives(lift, xs)
        assert _leaf_values(got) == _leaf_values(want), label


# -- one reduction of residuals over sample points ---------------------------------


def test_worst_keeps_a_nan_wherever_it_is():
    assert duals.worst([[0.5, -2.0], [MultiDual({0: -3.0, 1: 9.0})]]) == 3.0
    assert math.isnan(duals.worst([[1.0], [0.0, math.nan], [2.0]]))
    assert math.isnan(duals.worst([0.0], prev=math.nan))
    assert duals.worst([]) == 0.0


def _cyclic_garbage(make):
    """The number of objects ``make()`` leaves for the cycle collector alone."""
    gc.collect()
    gc.disable()
    try:
        make()
        return gc.collect()
    finally:
        gc.enable()


def test_reductions_and_programs_leave_no_reference_cycles():
    # A check-symmetry run reduces dozens of residuals and compiles dozens of
    # programs: each cycle they left would bring the collector's passes sooner.
    x = coordinate(1)
    assert _cyclic_garbage(lambda: duals.worst([[1.0, [2.0]], [MultiDual({0: -3.0})]], 0.5)) == 0
    assert _cyclic_garbage(lambda: program([x * x, sin_of(x)])([0.0, 0.3, 0.0])) == 0
    # a polynomial leaf calls its pattern's evaluator, compiled here for a new pattern
    poly = polynomial([(1.5, {1: 4, 2: 5}), (-2.0, {})])
    assert _cyclic_garbage(lambda: program([poly * x, poly.d(2)])([0.0, 0.3, 0.5])) == 0
    assert _cyclic_garbage(
        lambda: SpacetimeVectorField(Chart(2), 1.0, [x, x]).jet([0.0, 0.3, 0.5])) == 0


def test_records_generators_and_closure_defects_leave_no_reference_cycles(rigidbody):
    # A record caches its raise and its raised-blocks callables, and a
    # generator its programs: a closure over its owner would make each a
    # cycle.  The loaded model's own cycles (its metric's inverse node) stay
    # alive and are not counted.
    n, G, low = rigidbody.chart.n, rigidbody.G, rigidbody.K.low
    xs = rigidbody.sample_phase(1, seed=3)[0]
    X = rigidbody.actions["rotations"].generators[0]
    assert _cyclic_garbage(lambda: metric_record(G, low).raised(xs[: n + 1])) == 0

    def raised_jet():
        record = metric_record(G, low)
        return record.raise_(xs[: n + 1], *record.jet(xs))

    assert _cyclic_garbage(raised_jet) == 0
    assert _cyclic_garbage(lambda: SpacetimeVectorField(X.chart, X.x0, X.comps).jet(xs)) == 0
    assert _cyclic_garbage(lambda: SpacetimeVectorField(X.chart, X.x0, X.comps).d2(xs)) == 0
    action = rigidbody.actions["rotations"]
    assert _cyclic_garbage(lambda: action.closure_residual(rigidbody.sample_e(2))) == 0


def _off_axis(x):
    """0, with first partial 0, at x == 0 and nan elsewhere, for a float or a
    dual x: (1e200 x)^2 overflows to inf, and inf - inf is nan."""
    big = 1e200 * x
    return big * big - big * big


def _off_axis_field():
    big = constant(1e200) * coordinate(1)
    return big * big - big * big


def _first_on_axis(points):
    """The points with x1 = 0 at the first one only."""
    return [[p[0], 0.0, *p[2:]] if k == 0 else list(p) for k, p in enumerate(points)]


def _classify(model, monkeypatch):
    raw = [_off_axis_field(), ZERO, ZERO, ZERO]
    X, residual = classify_spacetime(model.chart, raw, _first_on_axis(model.sample_e(3)))
    assert X is None
    return residual


def _algebra_closure(model, monkeypatch):
    d1 = SpacetimeVectorField(model.chart, 0.0, [ONE, ZERO, ZERO])
    y = SpacetimeVectorField(model.chart, 0.0, [ZERO, _off_axis_field(), ZERO])
    action = LieAlgebraAction("probe", [d1, y], {(0, 1): [0.0, 0.0]})
    return action.closure_residual(_first_on_axis(model.sample_e(3)))


def _generator_match(model, monkeypatch):
    pts = _first_on_axis(model.sample_phase(3))
    entry = momentum_map(model.actions["translations"], model.theta, pts)[0]
    off = SpacetimeVectorField(model.chart, 0.0, [ONE + _off_axis_field(), ZERO, ZERO])
    return generator_match(dataclasses.replace(entry, generator=off), model.omega, pts)


def _two_form_closure(model, monkeypatch):
    # d_1 of the (3, 4) entry is nan; the first index triple (0, 1, 2) does not read it
    omega = SimpleNamespace(chart=model.chart, jet=lambda xs: duals.jet(lambda ys: [
        [_off_axis(ys[1]) if (a, b) == (3, 4) else 0.0 for b in range(7)] for a in range(7)], xs))
    return closure_residual(omega, [0.0, 0.1, 0.2, 0.3, 0.0, 0.0, 0.0])


def _reeb(model, monkeypatch):
    omega = SimpleNamespace(contraction=lambda vec, xs: [0.0, _off_axis(xs[1])])
    return reeb_residual(omega, SimpleNamespace(vector_values=lambda xs: [1.0]), [0.0, 0.1])[0]


def _drift(model, monkeypatch):
    traj = integrate(model.dyn, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 0.01, 0.005)
    return conserved_drift(lambda xs: _off_axis(xs[1]), traj)[0]


def _motion_derivative(model, monkeypatch):
    traj = integrate(model.dyn, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 0.01, 0.005)
    return conserved_drift(lambda xs: _off_axis(xs[1]), traj, model.dyn)[1]


def _nan_at_second_call(fn):
    calls = []

    def planted(*args):
        calls.append(args)
        out = fn(*args)
        if len(calls) != 2:
            return out
        return [math.nan] * len(out) if isinstance(out, list) else math.nan

    return planted


def _plant_in_validate(monkeypatch):
    classify = cli.classify_special_quadratic

    def planted(*args):
        q = classify(*args)
        q.validate = _nan_at_second_call(q.validate)
        return q

    monkeypatch.setattr(cli, "classify_special_quadratic", planted)


def _cli(argv, plant, key):
    """The value of ``key`` that the report reads when ``plant`` makes the
    second sample point give nan; the run must end in an input error."""
    def case(model, monkeypatch):
        seen, require = [], cli._require_finite

        def spy(command, checks):
            seen.extend(checks)
            require(command, checks)

        plant(monkeypatch)
        monkeypatch.setattr(cli, "_require_finite", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 3
        return next(c[key] for c in seen if key in c)
    return case


@pytest.mark.parametrize("case", [
    _classify, _algebra_closure, _generator_match, _two_form_closure, _reeb, _drift,
    _motion_derivative,
    _cli(["noether", "--model", "free3d", "--field", "translations", "--points", "3"],
         lambda mp: mp.setattr(symmetry, "charge_differential",
                               _nan_at_second_call(symmetry.charge_differential)),
         "motion_derivative_residual"),
    _cli(["momentum-map", "--model", "free3d", "--points", "3"], _plant_in_validate,
         "time_scale_fit_error"),
    _cli(["brackets", "--model", "free3d", "--points", "2"],
         lambda mp: mp.setattr(cli, "pair_defects", _nan_at_second_call(cli.pair_defects)),
         "residual"),
], ids=["classify_spacetime", "algebra_closure", "generator_match", "two_form_closure",
        "reeb_residual", "conserved_drift", "motion_derivative", "cli_noether",
        "cli_momentum_map", "cli_brackets"])
def test_a_nan_at_a_later_sample_point_is_the_residual(case, free3d, monkeypatch):
    assert math.isnan(case(free3d, monkeypatch))

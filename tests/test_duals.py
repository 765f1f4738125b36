import math
import random

import numpy as np
import pytest

from galimech import duals
from galimech.duals import MultiDual, partial, partial2, partial_multi, value


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


def test_sqrt():
    def f(xs):
        return duals.sqrt(xs[0] * xs[0] + xs[1])

    p = [1.2, 0.5]
    r = math.sqrt(1.2 ** 2 + 0.5)
    assert abs(partial(f, p, 0) - 1.2 / r) < 1e-13
    assert abs(partial2(f, p, 1, 1) - (-0.25 / r ** 3)) < 1e-13


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


def test_bound_method_declares_deps_on_its_owner():
    class Form:
        def __init__(self):
            self.calls = 0
            self.comps_deps = frozenset({0})

        def comps(self, xs):
            self.calls += 1
            return [xs[0] * xs[0], 2.0]

    f = Form()
    assert duals.deps_of(f.comps) == {0}
    assert duals.grad(f.comps, [3.0, 1.0]) == [[6.0, 0.0], [0.0, 0.0]] and f.calls == 1
    # an owner without ``<name>_deps`` leaves the method undeclared
    del f.comps_deps
    assert duals.deps_of(f.comps) is None
    assert duals.grad(f.comps, [3.0, 1.0]) == [[6.0, 0.0], [0.0, 0.0]] and f.calls == 3

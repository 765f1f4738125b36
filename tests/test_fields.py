import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galimech import duals, fields
from galimech.duals import MultiDual, value
from galimech.fields import (
    Chart,
    DerivativeOrderError,
    Field,
    ZERO,
    constant,
    coordinate,
    cos_of,
    default_box,
    exp_of,
    from_config,
    polynomial,
    program,
    sample_points,
    sin_of,
)
from galimech.catalog import load_model
from galimech.oracles import fd_oracle
from galimech.symmetry import check_equivalences


def test_chart_indexing():
    c = Chart(3)
    assert c.dim_phase == 7
    assert c.vel(1) == 4 and c.vel(3) == 6
    with pytest.raises(ValueError):
        Chart(1)


def test_partial_examples():
    # square of a spatial coordinate: second partial is 2
    f = coordinate(1) ** 2
    assert f.partial((1, 1), [0.3, 0.7, -0.2]) == pytest.approx(2.0, abs=1e-15)
    # mixed time-space product
    g = coordinate(0) * coordinate(1)
    assert g.partial((0, 1), [0.3, 0.7, -0.2]) == pytest.approx(1.0, abs=1e-15)


def test_partial_phase_field():
    # sin(x1) * v1^2 at x1 = pi/2: spatial derivative picks up cos = 0
    n = 2
    f = sin_of(coordinate(1)) * coordinate(n + 1) ** 2
    p = [0.0, math.pi / 2, 0.3, 1.0, -0.5]
    assert f.partial((1,), p) == pytest.approx(0.0, abs=1e-15)
    want = fd_oracle(f, (1,), p, 1e-5)
    assert f.partial((1,), p) == pytest.approx(want, abs=1e-9)


def test_order_exceeded():
    f = coordinate(1) ** 3
    with pytest.raises(DerivativeOrderError):
        f.partial((1, 1, 1), [0.0, 0.5])


def test_fd_oracle_constant_and_exp():
    assert fd_oracle(constant(4.2), (1,), [0.0, 0.3], 1e-4) == 0.0
    f = exp_of(coordinate(1))
    assert abs(fd_oracle(f, (1,), [0.0, 0.0], 1e-4) - 1.0) < 1e-8
    with pytest.raises(ValueError):
        fd_oracle(f, (1,), [0.0, 0.0], -1.0)


def test_fd_convergence_order():
    # central differences on a polynomial: error drops like h^2
    f = polynomial([(1.0, {1: 4})])
    p = [0.0, 0.9]
    exact = f.partial((1,), p)
    errs = [abs(fd_oracle(f, (1,), p, h) - exact) for h in (1e-2, 1e-3)]
    rate = math.log10(errs[0] / errs[1])
    assert 1.8 < rate < 2.3


def test_mixed_partials_commute_property():
    f = sin_of(coordinate(0) * coordinate(1)) + coordinate(2) ** 3 * coordinate(1)
    for p in sample_points(30, default_box(3), seed=5):
        for a in range(3):
            for b in range(a + 1, 3):
                d1 = f.partial((a, b), p)
                d2 = f.partial((b, a), p)
                assert abs(d1 - d2) < 1e-12


def test_catalog_fields_vs_fd_oracle(catalog_models):
    # every coefficient field of every catalog model agrees with the
    # central-difference oracle at low-discrepancy points
    for model in catalog_models:
        fields = [
            model.G.entry(a, b)
            for a in range(1, model.chart.n + 1)
            for b in range(a, model.chart.n + 1)
        ]
        fields += list(model.A)
        if model.em is not None:
            fields += list(model.em._e.values())
        pts = model.sample_e(100, seed=2)
        for f in fields:
            if f.is_zero:
                continue
            for p in pts:
                for slot in range(model.chart.n + 1):
                    d = f.partial((slot,), p)
                    fd = fd_oracle(f, (slot,), p, 1e-5)
                    assert abs(d - fd) <= 1e-8 * (1.0 + abs(d))


def test_field_algebra_linearity():
    f = sin_of(coordinate(1))
    g = coordinate(1) ** 2
    combo = constant(2.5) * f + constant(-1.5) * g
    p = [0.0, 0.6]
    lhs = combo.partial((1,), p)
    rhs = 2.5 * f.partial((1,), p) - 1.5 * g.partial((1,), p)
    assert abs(lhs - rhs) < 1e-14


def test_config_constructors():
    spec = {
        "kind": "sum",
        "terms": [
            {"kind": "constant", "value": 2.0},
            {
                "kind": "product",
                "factors": [
                    {"kind": "sin", "of": {"kind": "coord", "index": 1}},
                    {"kind": "polynomial", "coeffs": [[3.0, [2, 2]]]},
                ],
            },
        ],
    }
    f = from_config(spec)
    p = [0.0, 0.4, 1.2]
    want = 2.0 + math.sin(0.4) * 3.0 * 1.2 ** 2
    assert value(f(p)) == pytest.approx(want, abs=1e-14)
    assert value(from_config(1.5)([0.0])) == 1.5
    with pytest.raises(ValueError):
        from_config({"kind": "wavelet"})


def test_sampler_deterministic_and_seeded():
    box = [(-1.0, 1.0)] * 5
    a = sample_points(20, box, seed=3)
    b = sample_points(20, box, seed=3)
    assert a == b
    c = sample_points(20, box, seed=4)
    assert a != c
    for p in a:
        assert all(-1.0 <= x <= 1.0 for x in p)


def test_sampler_respects_box():
    box = [(0.5, 0.8), (-2.0, -1.0)]
    for p in sample_points(50, box, seed=0):
        assert 0.5 <= p[0] <= 0.8 and -2.0 <= p[1] <= -1.0


def test_zero_shortcuts():
    f = ZERO + coordinate(1)
    assert f is not ZERO
    assert (ZERO * coordinate(1)).is_zero
    assert value((coordinate(1) - coordinate(1))([0.0, 2.0])) == 0.0


def test_operations_on_constants_fold():
    assert (constant(2) * constant(3)).const_value == 6.0
    assert polynomial([(1.5, {1: 0}), (0.25, {})]).const_value == 1.75
    assert polynomial([(1.5, {1: 0})]).d(1) is ZERO
    assert (sin_of(constant(0.5)) - constant(0.5) ** 2).const_value == math.sin(0.5) - 0.25
    # a value that is not finite stays an operation, to fail where it is evaluated
    assert (constant(1e300) * constant(1e300)).op == "mul"
    assert (constant(0.0) ** -1).op == "pow"
    big = constant(1e308) * constant(10.0)
    assert big.const_value is None and big.deps == frozenset() and big([0.0]) == math.inf
    assert exp_of(1e3).op == "exp" and (constant(1e308) + constant(1e308)).op == "add"
    # sin_of, cos_of and exp_of also take a number
    assert exp_of(0.0).const_value == 1.0 and (constant(6.0) / constant(4.0)).const_value == 1.5


def test_program_deps_are_the_union_of_its_fields_supports():
    x1, x3 = coordinate(1), coordinate(3)
    assert program([x1, sin_of(x3)]).deps == {1, 3}
    assert program((x1, ZERO)).deps == {1}
    assert program({"a": [x1], "b": [ZERO, x3 * x1]}).deps == {1, 3}
    assert program(constant(2.0)).deps == frozenset()
    # a field whose support is unknown makes the program's unknown
    assert program([x1, Field(lambda xs: xs[2])]).deps is None
    assert program({"a": [x1], "b": [Field(lambda xs: xs[2]) * x3]}).deps is None


def test_program_returns_the_nesting_it_is_given():
    x1, x2 = coordinate(1), coordinate(2)
    xs = [0.0, 2.0, 3.0]
    assert program(x1 * x2)(xs) == 6.0
    assert program([[x1, ZERO], [x2]])(xs) == [[2.0, 0.0], [3.0]]
    assert program((x1, [x2, (x1 * x2,)]))(xs) == (2.0, [3.0, (6.0,)])
    assert program({(0, 1): [x1], "G": ([x2], {})})(xs) == {(0, 1): [2.0], "G": ([3.0], {})}
    assert program([])(xs) == [] and program(())(xs) == ()


def test_a_node_reads_the_union_of_its_operands_supports():
    x1, x2, bare = coordinate(1), coordinate(2), Field(lambda xs: xs[3])
    assert (x1 + x2).deps == {1, 2} and (x1 * x2 / x1).deps == {1, 2}
    assert (-x1).deps == {1} and sin_of(x2).deps == {2} and (x1 - constant(3.0)).deps == {1}
    # an operand whose support is unknown makes the node's unknown
    assert (x1 * bare).deps is None and (bare + x2).deps is None and cos_of(bare).deps is None


def _literal_sum(terms, xs):
    """The test-side oracle of a polynomial: 0.0 plus each term c * x_s ** p
    * ... in turn, its factors in slot order, a power 1 as the coordinate
    itself and a power 0 left out."""
    total = 0.0
    for c, expo in terms:
        t = c
        for slot, p in sorted(expo.items()):
            if p:
                t = t * (xs[slot] if p == 1 else xs[slot] ** p)
        total = total + t
    return total


_coeffs = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e300, -1e300, 7e307]))


@st.composite
def _polynomials(draw):
    """(n, terms) of a polynomial over the 2n+1 phase slots, n = 2..4: 1 to 6
    terms, each a coefficient and up to 3 factors of power 0 to 3, or one
    linear factor, so some partials are constants alone."""
    n = draw(st.integers(2, 4))
    slot = st.integers(0, 2 * n)
    expo = st.one_of(st.dictionaries(slot, st.integers(0, 3), max_size=3),
                     slot.map(lambda s: {s: 1}))
    return n, draw(st.lists(st.tuples(_coeffs, expo), min_size=1, max_size=6))


def _literal_partial(terms, k):
    """The test-side power rule: the terms c * p, x_k ** (p - 1), ... of the
    partial along slot k, for each term c, x_k ** p, ... with p > 0."""
    return [(c * e[k], {**e, k: e[k] - 1}) for c, e in terms if e.get(k)]


def _dual_point(xs):
    """``xs`` as duals along two infinitesimals, with first parts that differ by slot."""
    return [MultiDual({0: x, 1: 1.0 + k, 2: 0.5 * x}) for k, x in enumerate(xs)]


@settings(max_examples=150, deadline=None)
@given(_polynomials(), st.data())
def test_polynomial_programs_are_their_literal_terms_exactly(poly, data):
    n, terms = poly
    xs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n + 1, max_size=2 * n + 1))
    f = polynomial(terms)
    run = program([f, [coordinate(1), f]])
    for point in (xs, _dual_point(xs)):
        want = _literal_sum(terms, point)
        assert repr(run(point)) == repr([want, [point[1], want]])
        assert repr(f(point)) == repr(want)


@settings(max_examples=150, deadline=None)
@given(_polynomials(), st.data())
def test_polynomial_partials_are_the_literal_power_rule_exactly(poly, data):
    n, terms = poly
    xs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n + 1, max_size=2 * n + 1))
    slots = st.sampled_from(sorted({s for _, e in terms for s in e} | {0, 2 * n}))
    f, lit = polynomial(terms), terms
    for k in (data.draw(slots), data.draw(slots)):  # the first and a second partial
        lit = _literal_partial(lit, k)
        if not all(map(math.isfinite, (c for c, _ in lit))):
            with pytest.raises(ValueError, match=f"the partial along x{k} of a polynomial term"):
                f.d(k)
            return
        f = f.d(k)
        run = program([f, [coordinate(1), f]])
        for point in (xs, _dual_point(xs)):
            want = _literal_sum(lit, point)
            assert repr(run(point)) == repr([want, [point[1], want]])
        constants = not any(p for _, e in lit for p in e.values())
        # constants alone read no slot, and the partial is ZERO when they add up to zero
        assert not constants or f.deps == frozenset()
        assert (f is ZERO) == (constants and _literal_sum(lit, xs) == 0.0)


def test_partials_of_constants_alone_stay_polynomial_leaves():
    xs = [0.3, -0.7, 1.1]
    d1 = polynomial([(1.5, {1: 1}), (-0.25, {1: 1}), (2.0, {2: 2})]).d(1)
    assert d1.op == "poly" and d1.deps == frozenset() and d1.d(1) is ZERO
    assert repr(d1(xs)) == repr(0.0 + 1.5 + -0.25) and d1.const_value is None
    # constants that add up to zero, signed zeros among them, are ZERO
    assert polynomial([(1.5, {1: 1}), (-1.5, {1: 1}), (1.0, {2: 1})]).d(1) is ZERO
    assert polynomial([(0.0, {1: 1}), (-0.0, {1: 1}), (1.0, {2: 1})]).d(1) is ZERO
    assert polynomial([(-0.0, {1: 1}), (1.0, {2: 1})]).d(1) is ZERO


def test_polynomials_of_one_pattern_share_one_evaluator(monkeypatch):
    compiled, real = [], compile
    monkeypatch.setattr(fields, "compile", lambda src, *a: compiled.append(src) or real(src, *a),
                        raising=False)
    fields._evaluator.cache_clear()
    xs = [0.1 * k - 0.4 for k in range(12)]
    first, second = ([(c, {7: 3, 11: 2}), (d, {}), (e, {5: 1})]
                     for c, d, e in ([1.5, -2.0, 0.25], [-3.0, 0.5, 1e-3]))
    assert program([polynomial(first)])(xs) == [_literal_sum(first, xs)]
    assert compiled[0].startswith("def poly(")  # the pattern's evaluator, built on first use
    compiled.clear()
    # the same pattern: its evaluator and the program's text are both there already
    assert program([polynomial(second)])(xs) == [_literal_sum(second, xs)]
    assert compiled == []


def test_zero_coefficients_of_either_sign_stay_apart_in_one_program():
    # on an infinite dual the sign of a zero coefficient shows in the first part
    plus, minus = polynomial([(0.0, {1: 1})]), polynomial([(-0.0, {1: 1})])
    xs = [0.0, MultiDual({0: math.inf, 1: 1.0})]
    assert repr(program([plus, minus])(xs)) == repr([plus(xs), minus(xs)])
    assert repr(plus(xs)) != repr(minus(xs))


def _spy_compiles(monkeypatch):
    """The texts ``fields.program`` compiles from now on."""
    compiled, code = [], fields._code
    monkeypatch.setattr(fields, "_code", lambda source: compiled.append(source) or code(source))
    return compiled


def test_a_bare_callable_field_evaluates_through_its_callable(monkeypatch):
    def fn(xs):
        return math.sin(xs[1]) * xs[2] - 0.0

    compiled = _spy_compiles(monkeypatch)
    f = Field(fn)
    xs = [0.0, 0.7, -1.3]
    assert f.fn is fn and repr(f(xs)) == repr(fn(xs)) and compiled == []


def test_programs_built_under_contention_match_serial():
    # each thread evaluates every generator of one fresh model, starting at a
    # different one, so the lazily compiled programs are built concurrently
    def run(m, first):
        gens = m.actions["rotations"].generators
        pts = [m.sample_e(2, 4), m.sample_phase(2, 4), m.sample_te(2, 4), m.sample_j2(2, 4)]
        order = gens[first:] + gens[:first]
        res = {X.label: check_equivalences(m, [X], *pts)[0].residuals for X in order}
        return res, [m.dyn.gamma00_values(p) for p in pts[1]]

    serial = run(load_model("rigidbody"), 0)
    model = load_model("rigidbody")
    threaded = [None] * 3
    start = threading.Barrier(3)

    def work(i):
        start.wait(timeout=60)
        threaded[i] = run(model, i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
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
    assert threaded == [serial] * 3

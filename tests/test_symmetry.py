import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from galimech import duals, geometry, symmetry
from galimech.duals import jet, value
from galimech.catalog import load_model, named_charges
from galimech.fields import (
    Chart, Field, ONE, ZERO, constant, coordinate, polynomial, program, sample_points, sin_of,
)
from galimech.geometry import lagrangian_and_momentum, poincare_cartan
from galimech.symmetry import (
    _lagrangian_partials,
    _lift_partials,
    ClassifyError,
    NotASymmetryError,
    SpacetimeVectorField,
    SpecialQuadratic,
    charge_differential,
    charge_jets,
    check_equivalences,
    classify_spacetime,
    classify_special_quadratic,
    commutator,
    gamma_dot,
    generator_match,
    lie_dt,
    lie_dynamical,
    lie_euler_lagrange,
    lie_lagrangian,
    lie_metric,
    lie_one_form,
    lie_phase_connection,
    lie_spacetime_connection,
    lie_two_form,
    lift_operator,
    momentum_map,
    noether_charge,
    noether_charges,
    pair_defects,
    poisson_bracket,
    special_bracket,
    spacetime_commutator,
    tau_lift,
    tau_lift_values,
    vector_commutator,
)
from galimech.oracles import (
    contraction_bracket,
    lie_flow_cov,
    lie_flow_metric,
    lie_flow_mixed,
    lie_flow_vector,
    pair_bracket,
    tau_lift_solve,
    vertical_projector_phase,
    vertical_projector_spacetime,
)
from tests_support import (
    POTENTIAL_MODELS, per_pair_defects, potential_model, random_compatible_model,
)


def vf(chart, x0, comps, label=""):
    return SpacetimeVectorField(chart, x0, comps, label=label)


def rand_poly_field(rng, nvars):
    terms = [(rng.uniform(-1, 1), {})]
    terms.append((rng.uniform(-1, 1), {rng.randrange(0, nvars): 1}))
    terms.append((rng.uniform(-0.5, 0.5), {rng.randrange(0, nvars): 2}))
    return polynomial(terms)


# -- prolongations -------------------------------------------------------------


def test_prolong1_constant_field(free3d):
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO])
    p = [0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0]
    assert X.prolong1_values(p) == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_prolong1_linear_field(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(1), ZERO, ZERO])
    p = [0.1, 0.2, 0.3, 0.4, 1.5, 2.0, 3.0]
    vals = [value(c) for c in X.prolong1_values(p)]
    assert vals == [0.0, 0.2, 0.0, 0.0, 1.5, 0.0, 0.0]


def test_prolongT_example(free3d):
    X = vf(free3d.chart, 0.0, [ZERO, coordinate(1), ZERO])
    te = [0.1, 0.2, 0.3, 0.4, 0.7, 1.5, 2.0, 3.0]
    vals = [value(c) for c in X.prolongT_values(te)]
    # dot-part of slot 2 is xdot^1
    assert vals == [0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 1.5, 0.0]


def test_prolongation_morphism_property():
    rng = random.Random(21)
    chart = Chart(3)
    pts_phase = sample_points(10, [(-1, 1)] * 7, seed=21)
    pts_te = sample_points(10, [(-1, 1)] * 8, seed=22)
    for _ in range(6):
        X = vf(chart, rng.choice([0.0, 1.0]), [rand_poly_field(rng, 4) for _ in range(3)])
        Y = vf(chart, rng.choice([0.0, 1.0]), [rand_poly_field(rng, 4) for _ in range(3)])
        B = spacetime_commutator(X, Y)

        def xp(p):
            return X.prolong1_values(p)

        def yp(p):
            return Y.prolong1_values(p)

        for p in pts_phase[:5]:
            lhs = vector_commutator(xp, yp, p)
            rhs = B.prolong1_values(p)
            assert max(abs(value(a) - value(b)) for a, b in zip(lhs, rhs)) < 1e-9

        def xt(q):
            return X.prolongT_values(q)

        def yt(q):
            return Y.prolongT_values(q)

        for q in pts_te[:5]:
            lhs = vector_commutator(xt, yt, q)
            rhs = B.prolongT_values(q)
            assert max(abs(value(a) - value(b)) for a, b in zip(lhs, rhs)) < 1e-9


# -- time-form classification ---------------------------------------------------


def test_lie_dt_classification():
    chart = Chart(3)
    pts = sample_points(8, [(-1, 1)] * 4, seed=23)
    # time-scaling field does not preserve the time form
    raw = [coordinate(0), ZERO, ZERO, ZERO]
    X, residual = classify_spacetime(chart, raw, pts)
    assert X is None and residual > 1e-3
    # time translation and vertical fields do
    X, residual = classify_spacetime(chart, [constant(1.0), ZERO, ZERO, ZERO], pts)
    assert X is not None and X.x0 == 1.0 and residual == 0.0
    X, residual = classify_spacetime(
        chart, [ZERO, coordinate(2) ** 2, ZERO, ZERO], pts
    )
    assert X is not None and X.x0 == 0.0


def test_lie_dt_components():
    chart = Chart(2)
    comps = lie_dt(chart, [coordinate(0), ZERO, ZERO])
    p = [0.3, 0.1, 0.2]
    assert value(comps[0](p)) == 1.0
    assert value(comps[1](p)) == 0.0


# -- metric Lie derivative -------------------------------------------------------


def test_lie_metric_translation_flat(free3d):
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO])
    m = lie_metric(X, free3d.G)([0.1, 0.2, 0.3, 0.4])
    assert max(abs(value(x)) for row in m for x in row) == 0.0


def test_lie_metric_rotation_flat(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(2), -coordinate(1), ZERO])
    m = lie_metric(X, free3d.G)([0.1, 0.2, 0.3, 0.4])
    assert max(abs(value(x)) for row in m for x in row) < 1e-15


def test_lie_metric_scaling_flat(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(1), ZERO, ZERO])
    m = lie_metric(X, free3d.G)([0.1, 0.2, 0.3, 0.4])
    want = [[2.0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert max(abs(value(m[a][b]) - want[a][b]) for a in range(3) for b in range(3)) == 0.0


def test_lie_metric_flow_oracle(rigidbody):
    rng = random.Random(31)
    fields = [
        vf(rigidbody.chart, 0.0, [coordinate(2), ZERO, coordinate(1)]),
        rigidbody.actions["rotations"].generators[0],
    ]
    pts = rigidbody.sample_e(6, seed=31)
    for X in fields:
        formula = lie_metric(X, rigidbody.G)
        for p in pts:
            got = formula(p)
            oracle = lie_flow_metric(rigidbody.G, X, p, 1e-4)
            err = max(
                abs(value(got[a][b]) - oracle[a][b]) for a in range(3) for b in range(3)
            )
            assert err < 1e-6


def test_lie_metric_extension_independence(rigidbody):
    # the vertical restriction is blind to the extension's time row
    X = vf(rigidbody.chart, 0.0, [coordinate(2), coordinate(3), coordinate(1)])
    p = rigidbody.sample_e(1, seed=33)[0]
    plain = lie_flow_metric(rigidbody.G, X, p, 1e-4)
    extended = lie_flow_metric(
        rigidbody.G, X, p, 1e-4,
        time_row=[coordinate(1), constant(0.4), coordinate(2) * coordinate(3)],
    )
    assert max(abs(plain[a][b] - extended[a][b]) for a in range(3) for b in range(3)) < 1e-9


# -- connection Lie derivatives ---------------------------------------------------


def test_lie_dynamical_examples(free3d):
    chart = free3d.chart
    p = [0.1, 0.2, 0.3, 0.4, 1.5, -0.5, 0.25]
    # translation on the flat structure
    X = vf(chart, 0.0, [constant(1.0), ZERO, ZERO])
    out = lie_dynamical(X, free3d.dyn)(p)
    assert max(abs(value(x)) for x in out) == 0.0
    # scaling preserves straight lines
    X = vf(chart, 0.0, [coordinate(1), ZERO, ZERO])
    out = lie_dynamical(X, free3d.dyn)(p)
    assert max(abs(value(x)) for x in out) == 0.0
    # quadratic field does not
    X = vf(chart, 0.0, [coordinate(1) ** 2, ZERO, ZERO])
    out = lie_dynamical(X, free3d.dyn)(p)
    assert value(out[0]) == pytest.approx(-2.0 * 1.5 ** 2, abs=1e-13)
    assert value(out[1]) == 0.0 and value(out[2]) == 0.0


def test_lie_dynamical_flow_oracle(cyclotron):
    X = vf(cyclotron.chart, 0.0, [coordinate(1) ** 2, ZERO, coordinate(2)])
    formula = lie_dynamical(X, cyclotron.dyn)

    def gv(xs):
        return cyclotron.dyn.vector_values(xs)

    def xp(xs):
        return X.prolong1_values(xs)

    for p in cyclotron.sample_phase(6, seed=35):
        got = formula(p)
        flow = lie_flow_vector(gv, xp, p, 1e-4)
        assert np.max(np.abs(flow[:4])) < 1e-6  # base components vanish
        err = max(abs(value(got[i]) - flow[4 + i]) for i in range(3))
        assert err < 1e-6


def test_lie_phase_connection_zero_cases(free3d):
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO])
    out = lie_phase_connection(X, free3d.pconn)([0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0])
    assert max(abs(value(x)) for row in out for x in row) == 0.0


def test_lie_phase_connection_flow_oracle(cyclotron):
    X = vf(cyclotron.chart, 0.0, [coordinate(1) ** 2, ZERO, coordinate(2)])
    formula = lie_phase_connection(X, cyclotron.pconn)
    proj = vertical_projector_phase(cyclotron.pconn)

    def xp(xs):
        return X.prolong1_values(xs)

    n = 3
    for p in cyclotron.sample_phase(5, seed=36):
        got = formula(p)
        flow = lie_flow_mixed(proj, xp, p, 1e-4)
        err = max(
            abs(flow[n + 1 + i - 1][mu] - value(got[mu][i - 1]))
            for i in range(1, n + 1)
            for mu in range(0, n + 1)
        )
        assert err < 1e-6


def test_lie_spacetime_connection_flow_oracle(cyclotron):
    X = vf(cyclotron.chart, 0.0, [coordinate(1) ** 2, coordinate(3), ZERO])
    formula = lie_spacetime_connection(X, cyclotron.K)
    proj = vertical_projector_spacetime(cyclotron.K)

    def xt(q):
        return X.prolongT_values(q)

    n = 3
    for te in cyclotron.sample_te(5, seed=37):
        got = formula(te)
        flow = lie_flow_mixed(proj, xt, te, 1e-4)
        # vertical projector rows carry minus the connection coefficients
        err = max(
            abs(flow[n + 1 + i][lam] + value(got[lam][i - 1]))
            for i in range(1, n + 1)
            for lam in range(0, n + 1)
        )
        assert err < 1e-6


def test_lie_spacetime_connection_translation(cyclotron):
    # the coupled structure is translation invariant
    X = vf(cyclotron.chart, 0.0, [constant(1.0), ZERO, ZERO])
    out = lie_spacetime_connection(X, cyclotron.K)([0.1, 0.2, 0.3, 0.4, 1.0, 0.5, -0.3, 0.2])
    assert max(abs(value(x)) for row in out for x in row) < 1e-14


# -- Cartan-formula Lie derivatives -----------------------------------------------


def test_reeb_field_invariance_cartan(catalog_models):
    for model in catalog_models:
        def gv(xs):
            return model.dyn.vector_values(xs)

        def dt_comps(xs):
            return [1.0] + [0.0] * (2 * model.chart.n)

        for p in model.sample_phase(4, seed=38):
            lo = lie_two_form(gv, model.omega.matrix, p)
            assert max(abs(value(x)) for row in lo for x in row) < 1e-9
            ldt = lie_one_form(gv, dt_comps, p)
            assert max(abs(value(x)) for x in ldt) < 1e-12


def test_lie_theta_translation_free(free3d):
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO])

    def xp(xs):
        return X.prolong1_values(xs)

    for p in free3d.sample_phase(4, seed=39):
        out = lie_one_form(xp, free3d.theta.components, p)
        assert max(abs(value(x)) for x in out) == 0.0


def test_lie_omega_quadratic_field_matches_flow(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(1) ** 2, ZERO, ZERO])

    def xp(xs):
        return X.prolong1_values(xs)

    for p in free3d.sample_phase(4, seed=40):
        cartan = lie_two_form(xp, free3d.omega.matrix, p)
        flow = lie_flow_cov(free3d.omega.matrix, 2, xp, p, 1e-4)
        err = max(
            abs(value(cartan[a][b]) - flow[a][b]) for a in range(7) for b in range(7)
        )
        assert err < 1e-6
        assert max(abs(value(x)) for row in cartan for x in row) > 1e-3


# -- equivalence families ----------------------------------------------------------


def suite_points(model, count=6):
    return (
        model.sample_e(count, seed=41),
        model.sample_phase(count, seed=42),
        model.sample_te(count, seed=43),
        model.sample_j2(count, seed=44),
    )


def test_equivalence_symmetry_pass(free3d):
    pts = suite_points(free3d)
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO], label="d1")
    (rep,) = check_equivalences(free3d, [X], *pts)
    assert all(v == "pass" for v in rep.verdicts().values())
    assert rep.consistent()


def test_equivalence_nonsymmetry_fail(free3d):
    pts = suite_points(free3d)
    X = vf(free3d.chart, 0.0, [coordinate(1) ** 2, ZERO, ZERO], label="x1^2 d1")
    (rep,) = check_equivalences(free3d, [X], *pts)
    assert all(v == "fail" for v in rep.verdicts().values())
    assert rep.consistent()


def test_equivalence_rotation_pass(free3d):
    pts = suite_points(free3d)
    X = free3d.actions["rotations"].generators[2]
    (rep,) = check_equivalences(free3d, [X], *pts)
    assert all(v == "pass" for v in rep.verdicts().values())
    assert rep.consistent()


def test_equivalence_scaling_connection_only(free3d):
    # scalings preserve the flat connection but not the metric: the
    # two-form and motion-form verdicts follow the metric side
    pts = suite_points(free3d)
    X = vf(free3d.chart, 0.0, [coordinate(1), ZERO, ZERO], label="x1 d1")
    (rep,) = check_equivalences(free3d, [X], *pts)
    v = rep.verdicts()
    assert v["spacetime_connection"] == v["phase_connection"] == v["dynamical_connection"] == "pass"
    assert v["metric"] == "fail"
    assert v["two_form"] == "fail" and v["motion_form"] == "fail"
    assert rep.consistent()


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody"])
def test_generators_checked_together_equal_each_checked_alone(name):
    m = load_model(name)
    pts = suite_points(m, count=2)
    for action in m.actions.values():
        gens = action.generators
        together = check_equivalences(m, gens, *pts)
        alone = [check_equivalences(m, [X], *pts)[0] for X in gens]
        assert [r.generator for r in together] == [r.generator for r in alone]
        assert [r.residuals for r in together] == [r.residuals for r in alone]
        if m.theta is not None:
            charges = noether_charges(gens, m.theta, pts[1])
            one_by_one = [noether_charge(X, m.theta, pts[1]) for X in gens]
            assert [c[1:] for c in charges] == [c[1:] for c in one_by_one]


def test_the_record_is_lifted_once_per_point_for_all_generators(rigidbody, monkeypatch):
    pts = suite_points(rigidbody, count=2)
    gens = rigidbody.actions["rotations"].generators
    check_equivalences(rigidbody, gens, *pts)  # compile the programs first
    calls = []
    for name in ("lift_of", "gamma00_of"):
        orig = getattr(geometry, name)
        spy = lambda *a, name=name, orig=orig: calls.append(name) or orig(*a)
        monkeypatch.setattr(geometry, name, spy)
        monkeypatch.setattr(symmetry, name, spy)

    def counts(gens):
        calls.clear()
        check_equivalences(rigidbody, gens, *pts)
        return calls.count("lift_of"), calls.count("gamma00_of")

    one = counts(gens[:1])
    assert one[0] > 0 and one[1] > 0
    assert counts(gens) == one


def test_equivalence_gauge_dependent_charge(cyclotron):
    # translations preserve the coupled two-form but not the chosen gauge
    pts = suite_points(cyclotron)
    X = vf(cyclotron.chart, 0.0, [constant(1.0), ZERO, ZERO], label="d1")
    (rep,) = check_equivalences(cyclotron, [X], *pts)
    v = rep.verdicts()
    assert v["two_form"] == "pass"
    assert v["cartan_form"] == "fail" and v["lagrangian"] == "fail"
    assert rep.consistent()


# -- Noether charges -----------------------------------------------------------------


def test_noether_time_translation_is_energy(free3d):
    X = free3d.actions["time"].generators[0]
    charge, res, ok = noether_charge(X, free3d.theta, free3d.sample_phase(8))
    assert ok and res < 1e-12
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    assert value(charge.value(p)) == pytest.approx(0.5 * (1 + 0.25 + 0.0625), abs=1e-14)
    assert value(charge.f0(p)) == 1.0


def test_noether_space_translation_sign(free3d):
    X = free3d.actions["translations"].generators[0]
    charge, res, ok = noether_charge(X, free3d.theta, free3d.sample_phase(8))
    assert ok
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    # contraction convention: minus the momentum component
    assert value(charge.value(p)) == pytest.approx(-1.0, abs=1e-15)


def test_noether_rotation_charge(free3d):
    X = free3d.actions["rotations"].generators[2]  # about the third axis
    charge, res, ok = noether_charge(X, free3d.theta, free3d.sample_phase(8))
    assert ok
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    want = -(0.1 * -0.5 - 0.2 * 1.0)
    assert value(charge.value(p)) == pytest.approx(want, abs=1e-14)
    # conserved along the structure
    assert abs(value(gamma_dot(charge.value, free3d.dyn, p))) < 1e-13


def test_noether_two_routes_agree(cyclotron):
    # contraction route equals the momentum/Lagrangian route
    lag, mom = lagrangian_and_momentum(cyclotron.theta)
    n = cyclotron.chart.n
    for X in (cyclotron.actions["rotation"].generators[0],
              cyclotron.actions["time"].generators[0]):
        charge, _, _ = noether_charge(X, cyclotron.theta)
        for p in cyclotron.sample_phase(5, seed=45):
            v = p[n + 1 :]
            alt = -(sum(
                value(mom.component(a, p)) * (value(X.comps[a - 1](p)) - v[a - 1] * X.x0)
                for a in range(1, n + 1)
            ) + X.x0 * value(lag.value(p)))
            assert abs(value(charge.value(p)) - alt) < 1e-13


def test_noether_non_symmetry_flagged(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(1) ** 2, ZERO, ZERO])
    charge, res, ok = noether_charge(X, free3d.theta, free3d.sample_phase(8))
    assert not ok and res > 1e-3
    assert charge is not None  # still returned


def test_noether_charge_d_equals_contraction(free3d):
    # the differential of the charge is the contraction of the lift into
    # the two-form
    X = free3d.actions["translations"].generators[1]
    charge, _, _ = noether_charge(X, free3d.theta)
    for p in free3d.sample_phase(5, seed=46):
        dj = duals.grad(charge.value, p)
        contr = free3d.omega.contraction(X.prolong1_values(p), p)
        assert max(abs(value(a) - value(b)) for a, b in zip(dj, contr)) < 1e-13


def _assert_all_close(got, want, what):
    assert len(got) == len(want), what
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (what, got, want)


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody",
                                  "random-0", "random-1", "random-2", "random-3"])
def test_phase_fields_match_their_formulas(name):
    # theta's components, the Lagrangian, the charges and the holonomic lifts,
    # each a field program, against formulas over G.mat and the coefficient fields
    model = potential_model(name)
    n, G, theta = model.chart.n, model.G, model.theta
    gens = [X for action in model.actions.values() for X in action.generators]
    x1, x2, rest = coordinate(1), coordinate(2), [ZERO] * (n - 2)
    if not gens:  # a model without actions: d0 and x1 d2 - x2 d1, conserved or not
        gens = [vf(model.chart, 1.0, [ZERO] * n), vf(model.chart, 0.0, [-x2, x1, *rest])]
    charges = list(named_charges(model).values()) or [noether_charge(X, theta)[0] for X in gens]
    gens.append(vf(model.chart, 0.0, [coordinate(0), ZERO, *rest], "t d1"))  # reads the time
    for xs in model.sample_phase(4, seed=11):
        v, gm, u = xs[n + 1 :], G.mat(xs), [1.0, *xs[n + 1 :]]
        A = [a(xs) for a in theta.A]
        gv = [sum(gm[a][b] * v[b] for b in range(n)) for a in range(n)]
        norm = sum(gv[a] * v[a] for a in range(n))
        _assert_all_close(theta.components(xs),
                          [-0.5 * norm + A[0]] + [gv[a] + A[1 + a] for a in range(n)] + [0.0] * n,
                          (name, "theta"))
        _assert_all_close([theta.value(xs)],
                          [0.5 * norm + sum(A[1 + a] * v[a] for a in range(n)) + A[0]],
                          (name, "lagrangian"))
        for q in charges:
            lin = sum(f(xs) * va for f, va in zip(q.flin, v))
            _assert_all_close([q.value(xs)], [0.5 * q.f0(xs) * norm + lin + q.fconst(xs)],
                              (name, "charge"))
        for X in gens:
            velocity = [sum(c.d(lam)(xs) * u[lam] for lam in range(n + 1)) for c in X.comps]
            _assert_all_close(X.prolong1_values(xs), [X.x0, *(c(xs) for c in X.comps)] + velocity,
                              (name, X.label, "lift"))


# -- the lift's partials and dL from jets already held --------------------------------


_MODELS = ["free2d", "free3d", "cyclotron", "rigidbody", "random-0", "random-1", "random-2",
           "random-3"]


def _model_and_generators(name):
    """A model of :data:`POTENTIAL_MODELS` and generators to check on it: the model's
    own (d0 and x1 d2 - x2 d1 for a model without actions), one that reads
    the time and one with mixed second partials."""
    model = potential_model(name)
    n, chart = model.chart.n, model.chart
    x0, x1, x2, rest = coordinate(0), coordinate(1), coordinate(2), [ZERO] * (n - 2)
    gens = [X for action in model.actions.values() for X in action.generators]
    if not gens:
        gens = [vf(chart, 1.0, [ZERO] * n), vf(chart, 0.0, [-x2, x1, *rest])]
    return model, gens + [vf(chart, 0.0, [x0, ZERO, *rest], "t d1"),
                          vf(chart, 0.5, [ZERO, x0 * x2 * sin_of(x1), *rest],
                             "d0/2 + t x2 sin(x1) d2")]


def _assert_nested_close(got, want, what):
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), what
        for g, w in zip(got, want):
            _assert_nested_close(g, w, what)
    else:
        assert abs(value(got) - value(want)) <= 1e-12 * (1.0 + abs(value(want))), (what, got, want)


@pytest.mark.parametrize("name", _MODELS)
def test_closed_form_lift_partials_match_a_seeded_pass(name):
    model, gens = _model_and_generators(name)
    n = model.chart.n
    for xs in model.sample_phase(3, seed=21):
        v = xs[n + 1 :]
        for X in gens:
            e, d1 = X.jet(xs)
            want = duals.grad(X.prolong1_values, xs)
            _assert_nested_close(_lift_partials(d1, X.d2(xs), v), want, (name, X.label))
            # the horizontal reading keeps the partials of the spacetime components
            horizontal = _lift_partials(d1, None, v)
            _assert_nested_close([d[: n + 1] for d in horizontal], [d[: n + 1] for d in want],
                                 (name, X.label, "horizontal"))


@pytest.mark.parametrize("name", _MODELS)
def test_lagrangian_partials_from_theta_match_a_seeded_pass(name):
    model, _ = _model_and_generators(name)
    n, theta = model.chart.n, model.theta
    for xs in model.sample_phase(3, seed=22):
        got = _lagrangian_partials(duals.jet(theta.components, xs), xs[n + 1 :])
        _assert_nested_close(got, duals.grad(theta.value, xs), name)


@pytest.mark.parametrize("name", POTENTIAL_MODELS)
def test_charge_differential_is_the_seeded_gradient_of_the_charge(name):
    model, gens = _model_and_generators(name)
    n = model.chart.n
    pts = model.sample_phase(3, seed=24)
    pts += [p[: n + 1] + [0.0] * n for p in pts[:1]]  # v = 0
    charges = noether_charges(gens, model.theta)
    for xs in pts:
        cjet = model.theta.jet(xs)
        for X, (charge, _, _) in zip(gens, charges):
            got, want = charge_differential(cjet, X.jet(xs)), duals.grad(charge.value, xs)
            assert len(got) == 2 * n + 1, (name, X.label)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14, (name, X.label, xs)


@pytest.mark.parametrize("name", _MODELS)
def test_noether_residuals_match_the_seeded_lie_derivative_of_theta(name):
    model, gens = _model_and_generators(name)
    pts = model.sample_phase(3, seed=23)
    for X, (_, residual, _) in zip(gens, noether_charges(gens, model.theta, pts)):
        want = duals.worst([lie_one_form(X.prolong1_values, model.theta.components, p)
                            for p in pts])
        assert abs(residual - want) <= 1e-12 * (1.0 + want), (name, X.label, residual, want)


# -- momentum maps --------------------------------------------------------------------


def test_momentum_map_translations(free3d):
    entries = momentum_map(
        free3d.actions["translations"], free3d.theta, free3d.sample_phase(8),
        anchor=free3d.anchor(),
    )
    assert [e.tau for e in entries] == [0.0, 0.0, 0.0]
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    # linear in the velocities
    vals = [value(e.charge.value(p)) for e in entries]
    assert vals == pytest.approx([-1.0, 0.5, -0.25], abs=1e-14)


def test_momentum_map_time_is_kinetic_energy(free3d):
    entries = momentum_map(free3d.actions["time"], free3d.theta, free3d.sample_phase(8))
    e = entries[0]
    assert e.tau == 1.0
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    assert value(e.charge.value(p)) == pytest.approx(0.5 * (1 + 0.25 + 0.0625), abs=1e-14)


def test_momentum_map_rigidbody_rotations(rigidbody):
    entries = momentum_map(
        rigidbody.actions["rotations"], rigidbody.theta,
        rigidbody.sample_phase(8), anchor=rigidbody.anchor(),
    )
    assert len(entries) == 3
    assert all(e.tau == 0.0 for e in entries)
    # the charge contracts the generator with the inertia metric: the form
    # of an angular momentum (opposite overall sign by the convention here)
    p = rigidbody.sample_phase(1, seed=47)[0]
    n = 3
    for e in entries:
        want = -sum(
            value(e.generator.comps[a - 1](p)) * value(rigidbody.G.entry(a, b)(p)) * p[n + b]
            for a in range(1, 4)
            for b in range(1, 4)
        )
        assert value(e.charge.value(p)) == pytest.approx(want, abs=1e-13)


def test_momentum_map_differential_is_contraction(rigidbody):
    # on the curved model too: dJ equals the generator-lift contraction
    entries = momentum_map(
        rigidbody.actions["rotations"], rigidbody.theta,
        rigidbody.sample_phase(8), anchor=rigidbody.anchor(),
    )
    for e in entries:
        for p in rigidbody.sample_phase(4, seed=62):
            dj = duals.grad(e.charge.value, p)
            contr = rigidbody.omega.contraction(e.generator.prolong1_values(p), p)
            assert max(abs(value(a) - value(b)) for a, b in zip(dj, contr)) < 1e-12


def test_momentum_map_requires_symmetry(cyclotron):
    from galimech.symmetry import LieAlgebraAction

    bad = LieAlgebraAction("bad", [vf(cyclotron.chart, 0.0, [constant(1.0), ZERO, ZERO])])
    with pytest.raises(NotASymmetryError):
        momentum_map(bad, cyclotron.theta, cyclotron.sample_phase(8))


def test_momentum_map_linearity(free3d):
    # charges are linear in the generators by construction
    gens = free3d.actions["translations"].generators
    combo = vf(free3d.chart, 0.0,
               [constant(2.0), constant(-3.0), ZERO], label="2d1-3d2")
    c_combo, _, _ = noether_charge(combo, free3d.theta)
    c1, _, _ = noether_charge(gens[0], free3d.theta)
    c2, _, _ = noether_charge(gens[1], free3d.theta)
    for p in free3d.sample_phase(5, seed=48):
        assert abs(
            value(c_combo.value(p)) - (2.0 * value(c1.value(p)) - 3.0 * value(c2.value(p)))
        ) < 1e-14


# -- covariant lift --------------------------------------------------------------------


def test_tau_lift_free_energy(free3d):
    fn = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    got = [value(c) for c in tau_lift_values(fn, 1.0, free3d.omega, p)]
    assert got == pytest.approx([1.0, 0, 0, 0, 0, 0, 0], abs=1e-14)


def test_tau_lift_velocity_function(free3d):
    fn = lambda xs: xs[4]
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    got = [value(c) for c in tau_lift_values(fn, 0.0, free3d.omega, p)]
    assert got == pytest.approx([0, -1.0, 0, 0, 0, 0, 0], abs=1e-14)


def test_tau_lift_constant_function(free3d):
    fn = lambda xs: 3.5
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    got = [value(c) for c in tau_lift_values(fn, 0.0, free3d.omega, p)]
    assert max(abs(x) for x in got) == 0.0


def test_tau_lift_solve_agrees(catalog_models):
    for model in catalog_models:
        n = model.chart.n
        fn = lambda xs: 0.5 * sum(xs[n + 1 + i] ** 2 for i in range(n)) + xs[1]
        for p in model.sample_phase(4, seed=49):
            a = [value(c) for c in tau_lift_values(fn, 0.7, model.omega, p)]
            b = tau_lift_solve(fn, 0.7, model.omega, p)
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_generator_match_and_offset(free3d):
    pts = free3d.sample_phase(10, seed=50)
    entries = momentum_map(free3d.actions["time"], free3d.theta, pts)
    e = entries[0]
    assert generator_match(e, free3d.omega, pts) < 1e-9
    import copy

    e2 = copy.copy(e)
    e2.tau = e.tau + 1.0
    assert generator_match(e2, free3d.omega, pts) >= 1.0 - 1e-9


def test_generator_match_lifts_the_closed_form_charge_differential(catalog_models, monkeypatch):
    # the reference is the lift of the charge itself, its dF by a seeded pass
    want = {}
    for model in catalog_models:
        pts = model.sample_phase(4, seed=8)
        for action in model.actions.values():
            for e in momentum_map(action, model.theta, pts, anchor=model.anchor()):
                for tau in (e.tau, e.tau + 1.0):
                    want[model.name, e.label, tau] = duals.worst([
                        [value(a) - value(b) for a, b in zip(
                            tau_lift_values(e.charge, tau, model.omega, xs),
                            e.generator.prolong1_values(xs))] for xs in pts])
    for name in ("grad", "jet", "partial", "partial2", "partial_multi"):
        monkeypatch.setattr(duals, name, None)  # the match seeds no pass
    for model in catalog_models:
        pts = model.sample_phase(4, seed=8)
        for action in model.actions.values():
            for e in momentum_map(action, model.theta, pts, anchor=model.anchor()):
                for tau in (e.tau, e.tau + 1.0):
                    got = generator_match(dataclasses.replace(e, tau=tau), model.omega, pts)
                    assert abs(got - want[model.name, e.label, tau]) <= 1e-15, (model.name, e.label)


def test_a_constant_generator_has_second_partials_without_a_program(rigidbody, monkeypatch):
    built = []
    monkeypatch.setattr(symmetry, "program", lambda s: built.append(s) or program(s))
    xs = rigidbody.sample_e(1, seed=2)[0]
    X = SpacetimeVectorField(rigidbody.chart, 1.0, [ZERO, constant(2.0), ONE])
    first, again = X.d2(xs), X.d2(xs)
    assert built == [] and first == [[[0.0] * 4] * 4] * 3
    # fresh lists at every call: a caller may change its own
    assert first is not again and first[0] is not again[0] and first[0][0] is not again[0][0]
    rz = rigidbody.actions["rotations"].generators[2]
    assert all(c.const_value is not None for c in rz.comps) and rz.d2(xs) == first
    Y = SpacetimeVectorField(rigidbody.chart, 0.0, [coordinate(2) ** 2, ZERO, ZERO])
    assert Y.d2(xs)[0][2][2] == 2.0 and len(built) == 1


# -- quadratic classification -----------------------------------------------------------


def test_classify_translation_charge(free3d):
    entries = momentum_map(free3d.actions["translations"], free3d.theta,
                           free3d.sample_phase(8))
    pts_e = free3d.sample_e(4, seed=51)
    for e in entries:
        sq = classify_special_quadratic(e.charge.value, free3d.G, validate_at=pts_e)
        for x in pts_e:
            assert abs(value(sq.f0(x)) - 0.0) < 1e-12


def test_classify_time_charge(free3d):
    entries = momentum_map(free3d.actions["time"], free3d.theta, free3d.sample_phase(8))
    sq = classify_special_quadratic(entries[0].charge.value, free3d.G,
                                    validate_at=free3d.sample_e(4, seed=52))
    assert abs(value(sq.f0([0.1, 0.2, 0.3, 0.4])) - 1.0) < 1e-12


def test_classify_rejects_cubic(free3d):
    with pytest.raises(ClassifyError) as exc:
        classify_special_quadratic(lambda xs: xs[4] ** 3, free3d.G,
                                   validate_at=[[0.0, 0.0, 0.0, 0.0]])
    assert exc.value.reason == "not-special-quadratic"


def test_classify_rejects_non_metric_quadratic(free3d):
    # anisotropic quadratic part is not proportional to the identity metric
    with pytest.raises(ClassifyError) as exc:
        classify_special_quadratic(lambda xs: xs[4] ** 2, free3d.G,
                                   validate_at=[[0.0, 0.0, 0.0, 0.0]])
    assert exc.value.reason == "not-metric-proportional"


def test_classify_reproduces_values(rigidbody):
    charge, _, _ = noether_charge(
        rigidbody.actions["rotations"].generators[1], rigidbody.theta
    )
    sq = classify_special_quadratic(charge.value, rigidbody.G,
                                    validate_at=rigidbody.sample_e(3, seed=53))
    for p in rigidbody.sample_phase(5, seed=54):
        assert abs(value(sq.value(p)) - value(charge.value(p))) < 1e-10


# -- brackets ----------------------------------------------------------------------------


def test_poisson_bracket_examples(free3d):
    om = free3d.omega
    for p in free3d.sample_phase(6, seed=55):
        # velocity functions commute on the flat model
        assert abs(value(poisson_bracket(lambda xs: xs[4], lambda xs: xs[5], om, p))) < 1e-13
        # antisymmetry forces the diagonal to vanish
        f = lambda xs: xs[4] * xs[1] + xs[2]
        assert abs(value(poisson_bracket(f, f, om, p))) < 1e-13
        # conserved, commuting pair
        H = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
        assert abs(value(poisson_bracket(H, lambda xs: xs[4], om, p))) < 1e-13


def test_poisson_bracket_antisymmetry_and_leibniz(free3d):
    om = free3d.omega
    f = lambda xs: xs[4] * xs[1]
    g = lambda xs: xs[5] + xs[2] ** 2
    h = lambda xs: xs[6] * xs[3]
    for p in free3d.sample_phase(5, seed=56):
        fg = value(poisson_bracket(f, g, om, p))
        gf = value(poisson_bracket(g, f, om, p))
        assert abs(fg + gf) < 1e-12
        # Leibniz in the second slot
        gh = lambda xs: g(xs) * h(xs)
        lhs = value(poisson_bracket(f, gh, om, p))
        rhs = value(poisson_bracket(f, g, om, p)) * value(h(p)) + value(g(p)) * value(
            poisson_bracket(f, h, om, p)
        )
        assert abs(lhs - rhs) < 1e-12


def test_poisson_bracket_time_scale_independence(free3d):
    om = free3d.omega
    f = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2) + xs[1]
    g = lambda xs: xs[4] * xs[2]
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    base = value(poisson_bracket(f, g, om, p))
    m = om.matrix(p)
    for tau in (0.0, 1.0, -2.0):
        for sigma in (0.0, 1.0, -2.0):
            hf = tau_lift_values(f, tau, om, p)
            hg = tau_lift_values(g, sigma, om, p)
            alt = value(sum(
                hg[a] * hf[b] * m[a][b] for a in range(7) for b in range(7)
            ))
            assert abs(alt - base) < 1e-9


def test_special_bracket_velocity_position(free3d):
    f = SpecialQuadratic(free3d.G, 0.0, [constant(1.0), ZERO, ZERO], ZERO)  # v1
    g = SpecialQuadratic(free3d.G, 0.0, [ZERO] * 3, coordinate(1))  # x1
    sq = special_bracket(f, g, free3d.omega)
    for p in free3d.sample_phase(4, seed=57):
        assert abs(value(sq.value(p)) - (-1.0)) < 1e-10


def test_special_bracket_self_vanishes(free3d):
    f = SpecialQuadratic(free3d.G, 1.0, [coordinate(1), ZERO, ZERO], coordinate(2))
    sq = special_bracket(f, f, free3d.omega)
    for p in free3d.sample_phase(4, seed=58):
        assert abs(value(sq.value(p))) < 1e-10


def test_special_bracket_rejects_bare_function(free3d):
    with pytest.raises(ClassifyError):
        special_bracket(lambda xs: xs[4], lambda xs: xs[5], free3d.omega)


def charges_for_jacobi(model):
    out = []
    for name in ("translations", "time", "rotations"):
        for gen in model.actions[name].generators:
            c, _, ok = noether_charge(gen, model.theta)
            if ok:
                out.append(c)
    return out


def test_special_bracket_jacobi(free3d):
    charges = charges_for_jacobi(free3d)
    rng = random.Random(59)
    triples = [tuple(rng.sample(range(len(charges)), 3)) for _ in range(4)]
    pts = free3d.sample_phase(3, seed=60)
    om = free3d.omega
    for (i, j, k) in triples:
        f, g, h = charges[i], charges[j], charges[k]
        fg = special_bracket(f, g, om)
        gh = special_bracket(g, h, om)
        hf = special_bracket(h, f, om)
        t1 = special_bracket(fg, h, om, classify=False)
        t2 = special_bracket(gh, f, om, classify=False)
        t3 = special_bracket(hf, g, om, classify=False)
        for p in pts:
            total = value(t1(p)) + value(t2(p)) + value(t3(p))
            assert abs(total) < 1e-8


def test_pair_bracket_homomorphism(free3d):
    om = free3d.omega
    H = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
    J = lambda xs: -xs[4]
    fn, tau = pair_bracket((H, 1.0), (J, 0.0), om)
    assert tau == 0.0
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    assert abs(value(fn(p))) < 1e-13

    def hf(xs):
        return tau_lift_values(H, 1.0, om, xs)

    def hg(xs):
        return tau_lift_values(J, 0.0, om, xs)

    comm = vector_commutator(hf, hg, p)
    lifted = tau_lift_values(fn, 0.0, om, p)
    assert max(abs(value(a) - value(b)) for a, b in zip(comm, lifted)) < 1e-8


def test_pair_bracket_self(free3d):
    f = lambda xs: xs[4] + xs[1]
    fn, tau = pair_bracket((f, 0.5), (f, 0.5), free3d.omega)
    assert tau == 0.0
    assert abs(value(fn([0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]))) < 1e-13


def _bracket_charges(name):
    """A model with its charges: the named ones on a catalog model, the
    contraction charges of d0, d1 and x1 d2 - x2 d1 on a random one."""
    if name in ("free2d", "free3d", "rigidbody", "cyclotron"):
        model = load_model(name)
        return model, list(named_charges(model).values())
    model = random_compatible_model(int(name.split("-")[1]))
    x1, x2 = coordinate(1), coordinate(2)
    gens = [vf(model.chart, 1.0, [ZERO, ZERO, ZERO]), vf(model.chart, 0.0, [ONE, ZERO, ZERO]),
            vf(model.chart, 0.0, [-x2, x1, ZERO])]
    return model, [c for c, _, _ in noether_charges(gens, model.theta)]


def _seeded_djet(f, xs):
    """The jet of the differential of a charge (its field) or of a bare
    phase function, by seeded dual passes."""
    return jet(lambda ys: duals.grad(getattr(f, "value", f), ys), xs)


_BRACKET_MODELS = ["free2d", "free3d", "rigidbody", "cyclotron",
                   "random-0", "random-1", "random-2", "random-3"]


@pytest.mark.parametrize("name", _BRACKET_MODELS)
def test_charge_jets_equal_the_seeded_jets(name):
    model, charges = _bracket_charges(name)
    n, dim = model.chart.n, model.chart.dim_phase
    pts = model.sample_phase(3, seed=65)
    pts += [xs[: n + 1] + [0.0] * n for xs in pts]  # the same base points at v = 0
    run = charge_jets(charges, dim)
    for xs in pts:
        for f, (df, ddf) in zip(charges, run(xs)):
            want, dwant = _seeded_djet(f, xs)
            pairs = list(zip(df, want)) + [(a, b) for r, s in zip(ddf, dwant) for a, b in zip(r, s)]
            assert len(pairs) == dim + dim * dim
            scale = max(1.0, *(abs(value(b)) for _, b in pairs))
            assert max(abs(a - value(b)) for a, b in pairs) <= 1e-13 * scale, (name, xs)


def _mixed_functions(n):
    """Two phase functions that are neither quadratic nor of one slot kind."""
    return (lambda xs: xs[n + 1] * xs[1] + xs[2] ** 2 * xs[n + 2] + xs[0] * xs[n + 1] ** 3,
            lambda xs: xs[n + 2] ** 2 + xs[1] * xs[n] + xs[0] * xs[2] * xs[2 * n])


def _kernel_defects(model, fns, taus, xs):
    """pair_defects over every pair of ``fns`` at ``xs``, from the seeded
    jets of the lift operator and of each function's differential."""
    pairs = list(itertools.combinations(range(len(fns)), 2))
    opjet = jet(lift_operator(model.omega), xs)
    return pairs, pair_defects(opjet, [_seeded_djet(f, xs) for f in fns], taus, pairs)


def _assert_defect(got, comm, lifted, where):
    scale = 1.0 + max(abs(value(a)) for a in [*comm, *lifted])
    assert max(abs(d - (value(a) - value(b))) for d, a, b in zip(got, comm, lifted)) \
        <= 1e-12 * scale, where


@pytest.mark.parametrize("name", _BRACKET_MODELS)
def test_bracket_jet_equals_the_seeded_pair_bracket(name):
    # at zero time scale the kernel's defect is the commutator of the seeded
    # Hamiltonian lifts against the lift of the seeded pair bracket
    model, charges = _bracket_charges(name)
    assert len(charges) >= 3
    om = model.omega
    xs = model.sample_phase(1, seed=61)[0]
    fns = charges + list(_mixed_functions(model.chart.n))
    pairs, got = _kernel_defects(model, fns, [0.0] * len(fns), xs)
    lifts = [jet(tau_lift(f, 0.0, om), xs) for f in fns]
    for (i, j), d in zip(pairs, got):
        comm = commutator(lifts[i], lifts[j])
        for tau in (0.0, 1.0):
            for sigma in (0.0, 1.0):
                bracket = pair_bracket((fns[i], tau), (fns[j], sigma), om)[0]
                _assert_defect(d, comm, tau_lift_values(bracket, 0.0, om, xs), (name, i, j))


def test_lift_jet_is_the_jet_of_the_tau_lift(free3d, rigidbody):
    # at time scales other than the charges' own the commutators do not
    # cancel the lifted brackets, so the defects read the kernel's lift jets
    for model in (free3d, rigidbody):
        om, xs = model.omega, model.sample_phase(1, seed=63)[0]
        fns = list(named_charges(model).values()) + list(_mixed_functions(model.chart.n))
        lifts = {(k, tau): jet(tau_lift(f, tau, om), xs)
                 for k, f in enumerate(fns) for tau in (0.0, 1.0, -0.5)}
        brackets = {}
        for shift in range(3):
            taus = [(0.0, 1.0, -0.5)[(k + shift) % 3] for k in range(len(fns))]
            pairs, got = _kernel_defects(model, fns, taus, xs)
            for (i, j), d in zip(pairs, got):
                if (i, j) not in brackets:
                    bracket = pair_bracket((fns[i], 0.0), (fns[j], 0.0), om)[0]
                    brackets[i, j] = tau_lift_values(bracket, 0.0, om, xs)
                comm = commutator(lifts[i, taus[i]], lifts[j, taus[j]])
                _assert_defect(d, comm, brackets[i, j], (model.name, i, j, taus[i], taus[j]))
            assert max(abs(x) for d in got for x in d) > 1e-3


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody"])
def test_pair_defects_are_the_per_pair_floats(name, monkeypatch):
    # bit for bit, by repr so that -0.0 and nan count: the kernel's sums run
    # in the per-pair order; points at zero and -0.0 velocity, and two in a
    # box where rigidbody's defects overflow to nan
    model = load_model(name)
    n, dim, charges = model.chart.n, model.chart.dim_phase, list(named_charges(model).values())
    pts = model.sample_phase(5, seed=67)
    pts += [xs[: n + 1] + [z] * n for xs, z in zip(pts, (0.0, -0.0))]
    pts += sample_points(2, [(-1e154, 1e154)] * dim, 67)
    lift = lift_operator(model.omega)
    for count in (0, 1, 2, len(charges)):
        subset = charges[:count]
        pairs = list(itertools.combinations(range(count), 2))
        djet = charge_jets(subset, dim)
        for xs in pts:
            args = jet(lift, xs), djet(xs), [value(f.f0(xs)) for f in subset], pairs
            with monkeypatch.context() as m:
                if not pairs:  # no pairs, no arrays
                    m.setattr(symmetry, "np", None)
                got = pair_defects(*args)
            assert repr(got) == repr(per_pair_defects(*args)), (name, count, xs)
            assert len(got) == len(pairs)


@pytest.mark.parametrize("name", _BRACKET_MODELS)
def test_tau_lift_is_the_solved_contraction_lift(name):
    model, charges = _bracket_charges(name)
    funcs = [*_mixed_functions(model.chart.n), *charges]
    for xs in model.sample_phase(2, seed=62):
        for f in funcs:
            for tau in (0.0, 1.0, -0.5):
                got = [value(c) for c in tau_lift_values(f, tau, model.omega, xs)]
                want = tau_lift_solve(f, tau, model.omega, xs)
                scale = 1.0 + max(map(abs, want))
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale, (name, tau)


@pytest.mark.parametrize("name", _BRACKET_MODELS)
def test_poisson_tensor_is_antisymmetric_with_zero_time_row(name):
    model, _ = _bracket_charges(name)
    op, dim = lift_operator(model.omega), 2 * model.chart.n + 1
    for xs in model.sample_phase(3, seed=65):
        u, lam = op(xs)
        assert u[0] == 1.0 and u[1 : model.chart.n + 1] == xs[model.chart.n + 1 :]
        assert all(lam[0][a] == 0.0 and lam[a][0] == 0.0 for a in range(dim))
        assert all(lam[a][b] == -lam[b][a] for a in range(dim) for b in range(dim))


@pytest.mark.parametrize("name", _BRACKET_MODELS)
def test_poisson_bracket_is_the_contraction_of_the_lifts(name):
    model, _ = _bracket_charges(name)
    f, g = _mixed_functions(model.chart.n)
    for xs in model.sample_phase(3, seed=66):
        got = value(poisson_bracket(f, g, model.omega, xs))
        want = value(contraction_bracket(f, g, model.omega, xs))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), name


# -- motion-form Lie derivative -----------------------------------------------------------


def test_lie_euler_lagrange_symmetry_and_not(free3d):
    j2 = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25, 0.3, -0.2, 0.6]
    X = vf(free3d.chart, 0.0, [constant(1.0), ZERO, ZERO])
    out = lie_euler_lagrange(X, free3d.G, free3d.dyn, j2)
    assert max(abs(value(x)) for x in out) == 0.0
    X = vf(free3d.chart, 0.0, [coordinate(1) ** 2, ZERO, ZERO])
    out = lie_euler_lagrange(X, free3d.G, free3d.dyn, j2)
    assert max(abs(value(x)) for x in out) > 1e-3


def test_lie_lagrangian_matches_theta_verdict(cyclotron):
    # invariance of the density and of the potential form come together
    lag, _ = lagrangian_and_momentum(cyclotron.theta)
    pts = cyclotron.sample_phase(6, seed=61)
    cases = [
        (cyclotron.actions["rotation"].generators[0], True),
        (vf(cyclotron.chart, 0.0, [constant(1.0), ZERO, ZERO], label="d1"), False),
    ]
    for X, should_pass in cases:
        ll = lie_lagrangian(X, lag)
        r_lag = max(abs(value(ll(p))) for p in pts)

        def xp(xs):
            return X.prolong1_values(xs)

        r_theta = max(
            max(abs(value(x)) for x in lie_one_form(xp, cyclotron.theta.components, p))
            for p in pts
        )
        if should_pass:
            assert r_lag < 1e-9 and r_theta < 1e-9
        else:
            assert r_lag > 1e-3 and r_theta > 1e-3


def test_form_families_read_each_jet_once(free3d):
    X = vf(free3d.chart, 0.0, [coordinate(1) ** 2, ZERO, coordinate(2)])
    p = free3d.sample_phase(1, seed=61)[0]
    calls = []

    def mat(xs):
        calls.append(1)
        return free3d.omega.matrix(xs)

    def comps(xs):
        calls.append(1)
        return free3d.theta.components(xs)

    lie_two_form(X.prolong1_values, mat, p)
    assert len(calls) <= 1 + len(p)
    calls.clear()
    lie_one_form(X.prolong1_values, comps, p)
    assert len(calls) <= 1 + len(p)


def test_forms_by_product_rule_match_the_cartan_formula(rigidbody):
    # i_Y d + d i_Y, with d of a form as the antisymmetrised gradient
    X = rigidbody.actions["rotations"].generators[0]
    X = vf(rigidbody.chart, 0.0, [c + coordinate(3) ** 2 for c in X.comps])
    yv, om, th = X.prolong1_values, rigidbody.omega.matrix, rigidbody.theta.components
    for p in rigidbody.sample_phase(2, seed=62):
        dim = len(p)
        y = yv(p)
        dm = [duals.partial_multi(om, p, d) for d in range(dim)]
        deta = [duals.partial_multi(
            lambda q: [sum(yv(q)[a] * om(q)[a][b] for a in range(dim)) for b in range(dim)], p, d)
            for d in range(dim)]
        got = lie_two_form(yv, om, p)
        for b in range(dim):
            for c in range(dim):
                cyc = sum(y[a] * (dm[a][b][c] + dm[b][c][a] + dm[c][a][b]) for a in range(dim))
                assert abs(got[b][c] - (deta[b][c] - deta[c][b] + cyc)) < 1e-12
        dc = [duals.partial_multi(th, p, d) for d in range(dim)]
        contr = [duals.partial(lambda q: sum(a * b for a, b in zip(yv(q), th(q))), p, d)
                 for d in range(dim)]
        got = lie_one_form(yv, th, p)
        for b in range(dim):
            want = contr[b] + sum(y[a] * (dc[a][b] - dc[b][a]) for a in range(dim))
            assert abs(got[b] - want) < 1e-12


def test_classified_value_calls_the_function_once(free3d):
    calls = []
    charge = noether_charge(vf(free3d.chart, 1.0, [ZERO] * 3), free3d.theta)[0]

    def fn(xs):
        calls.append(1)
        return charge(xs)

    sq = classify_special_quadratic(fn, free3d.G)
    p = [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7]
    assert abs(value(sq.value(p)) - value(charge(p))) < 1e-12
    assert len(calls) == 1  # the value is the function itself
    calls.clear()
    assert abs(value(sq.f0(p)) - 1.0) < 1e-12
    n = 3
    assert len(calls) <= 1 + n + n * (n + 1) // 2  # one reading: the velocity jet at v = 0


def test_classified_coefficients_read_only_their_own_part(free3d):
    calls = []
    charge = named_charges(free3d)["charge_R1"]

    def fn(xs):
        calls.append(1)
        return charge(xs)

    sq, n = classify_special_quadratic(fn, free3d.G), 3
    p = [0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7]
    assert value(sq.fconst(p)) == value(charge.fconst(p)) and len(calls) == 1
    for a in range(n):
        calls.clear()
        assert abs(value(sq.flin[a](p)) - value(charge.flin[a](p))) < 1e-12
        assert len(calls) <= 1  # one first partial (none off the charge's support)
    calls.clear()
    assert abs(value(sq.f0(p)) - value(charge.f0(p))) < 1e-12
    assert len(calls) <= n * (n + 1) // 2  # the second partials
    calls.clear()
    sq.fconst(p), [f(p) for f in sq.flin], sq.f0(p)
    assert len(calls) <= 1 + n + n * (n + 1) // 2  # together, one reading


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody",
                                  "random-0", "random-1", "random-2", "random-3"])
def test_classification_reads_the_charge_coefficients(name):
    if name.startswith("random"):
        model = random_compatible_model(int(name[len("random-"):]))
        n, x1, x2 = model.chart.n, coordinate(1), coordinate(2)
        rest = [ZERO] * (n - 2)
        gens = [vf(model.chart, 1.0, [ZERO] * n), vf(model.chart, 0.0, [ONE, ZERO, *rest]),
                vf(model.chart, 0.0, [-x2, x1, *rest])]
    else:
        model = load_model(name)
        gens = [X for action in model.actions.values() for X in action.generators]
    pts_e = model.sample_e(4, seed=17)
    for X in gens:
        charge = noether_charge(X, model.theta)[0]
        sq = classify_special_quadratic(charge.value, model.G, validate_at=pts_e)
        for x in pts_e:
            got = [sq.f0(x), *(f(x) for f in sq.flin), sq.fconst(x)]
            want = [charge.f0(x), *(f(x) for f in charge.flin), charge.fconst(x)]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (name, X.label, got, want)


def test_validating_a_fitted_bracket_inverts_no_metric(free3d, monkeypatch):
    charges = named_charges(free3d)
    sq = special_bracket(charges["charge_R1"], charges["charge_R2"], free3d.omega)
    calls = []
    orig = duals.invert_generic
    monkeypatch.setattr(duals, "invert_generic", lambda a: calls.append(1) or orig(a))
    sq.validate([0.1, 0.2, -0.3, 0.4])
    assert calls == []


def test_a_nan_entry_makes_its_residual_nan(free3d):
    # the coefficient overflows to inf, so the two-form's Lie derivative
    # holds nan next to finite entries; the worst entry must be the nan
    big = constant(1e300) * coordinate(1) * constant(1e300)
    X = SpacetimeVectorField(free3d.chart, 0.0, [big, ZERO, ZERO])
    m = free3d
    (rep,) = check_equivalences(m, [X], m.sample_e(2), m.sample_phase(2), m.sample_te(2),
                                m.sample_j2(2))
    assert math.isnan(rep.residuals["two_form"])

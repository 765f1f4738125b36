import math
import random

import numpy as np
import pytest

from galimech import duals
from galimech.duals import value, partial_multi
from galimech.catalog import catalog_names, load_model, model_from_config, nonclosed_field_model
from galimech.fields import Chart, Field, ZERO, constant, coordinate, polynomial, sample_points
from galimech.geometry import (
    EMField,
    Metric,
    Observer,
    PhaseTwoForm,
    SingularMetricError,
    closure_residual,
    dynamical_from_phase,
    gamma00_of,
    identity_metric,
    lagrangian_and_momentum,
    cartan_from_lagrangian,
    metric_connection,
    minimal_coupling,
    motion_of,
    observed_split,
    phase_from_dynamical,
    phase_from_spacetime,
    poincare_cartan,
    reeb_residual,
    spacetime_from_phase,
    _inverse_program,
)
from galimech.units import CHARGE, MASS, ScaledScalar
from tests_support import (
    POTENTIAL_MODELS,
    dphi_residual,
    euler_lagrange_matrix,
    explicit_connection,
    metric_compat_residual,
    nonmetric_two_form,
    observed_two_form,
    potential_model,
    raised_motion_row,
    raised_two_form,
    random_compatible_model,
    random_connection,
    zero_connection,
)


# -- bijections ---------------------------------------------------------------


def test_phase_connection_identification_zero():
    chart = Chart(3)
    K = zero_connection(chart)
    pc = phase_from_spacetime(K)
    p = [0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0]
    gl = pc.lift_values(p)
    assert all(value(gl[k][lam]) == 0.0 for k in range(3) for lam in range(4))


def test_round_trips_exact():
    rng = random.Random(42)
    chart = Chart(3)
    pts = sample_points(5, [(-1.0, 1.0)] * 8, seed=1)
    for _ in range(20):
        K = random_connection(chart, rng)
        pc = phase_from_spacetime(K)
        K2 = spacetime_from_phase(pc)
        dyn = dynamical_from_phase(pc)
        pc2 = phase_from_dynamical(dyn)
        K3 = spacetime_from_phase(pc2)
        for (lam, mu), fields in K.sym.items():
            for i, f in enumerate(fields):
                # object identity: the correspondences re-index, never copy
                assert K2.sym[(lam, mu)][i] is f
                assert K3.sym[(lam, mu)][i] is f


def test_gamma_polynomial_expansion():
    rng = random.Random(9)
    chart = Chart(2)
    K = random_connection(chart, rng)
    pc = phase_from_spacetime(K)
    dyn = dynamical_from_phase(pc)
    p = [0.2, -0.3, 0.5, 1.2, -0.7]
    # the second-order coefficients contract the lift along the contact map
    gl = pc.lift_values(p)
    v = p[3:]
    want = [gl[k][0] + sum(gl[k][1 + a] * v[a] for a in range(2)) for k in range(2)]
    got = dyn.gamma00_values(p)
    assert max(abs(value(a) - value(b)) for a, b in zip(got, want)) < 1e-14


# -- metric connection --------------------------------------------------------


def test_metric_connection_flat_is_zero():
    chart = Chart(3)
    K = metric_connection(chart, identity_metric(chart))
    p = [0.1, 0.2, 0.3, 0.4]
    for fields in K.sym.values():
        for f in fields:
            assert value(f(p)) == 0.0


def test_metric_connection_christoffel_example():
    # diagonal metric with G11 = 1 + x1^2: raised coefficient -x1/(1+x1^2)
    chart = Chart(2)
    G = Metric(chart, {
        (1, 1): constant(1.0) + coordinate(1) ** 2,
        (2, 2): constant(1.0),
        (1, 2): ZERO,
    })
    K = metric_connection(chart, G)
    for x1 in (0.0, 0.5, -1.2):
        p = [0.0, x1, 0.3]
        got = value(K.entry(1, 1, 1)(p))
        assert got == pytest.approx(-x1 / (1.0 + x1 ** 2), abs=1e-13)


def test_metric_connection_time_derivative_example():
    # d0 G11 = c: the lowered time-space coefficient is -c/2
    chart = Chart(2)
    c = 0.8
    G = Metric(chart, {
        (1, 1): constant(1.0) + constant(c) * coordinate(0),
        (2, 2): constant(1.0),
    })
    K = metric_connection(chart, G)
    p = [0.3, 0.1, 0.2]
    g11 = value(G.entry(1, 1)(p))
    lowered = g11 * value(K.entry(0, 1, 1)(p))  # K_{0 1 1} = G_{11} K_0^1_1
    assert lowered == pytest.approx(-c / 2, abs=1e-13)


def test_metric_compatibility_holds_for_any_gauge():
    chart = Chart(2)
    G = Metric(chart, {
        (1, 1): constant(1.0) + coordinate(1) ** 2,
        (2, 2): constant(2.0) + constant(0.3) * coordinate(0),
        (1, 2): constant(0.2) * coordinate(2),
    })
    x1, x2 = coordinate(1), coordinate(2)
    # the explicit gauge fields, and a potential whose curl d1 A2 - d2 A1 is x1
    explicit = explicit_connection(G, {(1, 2): x1}, [x2, ZERO])
    K = metric_connection(chart, G, A=[x1 * x2, ZERO, constant(0.5) * x1 ** 2])
    for p in sample_points(10, [(-1, 1)] * 3, seed=3):
        assert metric_compat_residual(explicit, G, p) < 1e-12
        assert metric_compat_residual(K, G, p) < 1e-12
    # torsion symmetry is structural
    assert K.entry(0, 1, 2) is K.entry(2, 1, 0)


def test_connection_values_follow_in_place_mutation(rigidbody):
    # a point list changed in place must not return values of its old content
    for evaluate in (rigidbody.dyn.gamma00_values, rigidbody.K.values):
        xs = rigidbody.sample_phase(1, seed=3)[0]
        evaluate(xs)
        xs[2] = 2.0
        assert evaluate(xs) == evaluate(list(xs))


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody", "random-0",
                                  "random-1", "random-2", "random-3"])
def test_connection_program_equals_its_fields_one_by_one(name):
    if name.startswith("random"):
        model = random_compatible_model(int(name[-1]))
    else:
        model = load_model(name)
    K = model.K
    assert all(f.op != "call" for fs in K.sym.values() for f in fs)
    for p in model.sample_phase(2, seed=4):
        assert K.values(p) == {key: [f(p) for f in fs] for key, fs in K.sym.items()}


@pytest.mark.parametrize("name", ["rigidbody", "cyclotron", "random"])
def test_block_derivative_matches_component_partials(name):
    model = random_compatible_model(5) if name == "random" else load_model(name)
    n = model.chart.n
    K = model.K
    for p in model.sample_phase(2, seed=11):
        xs = p[: n + 1]
        for al in range(n + 1):
            blocks = partial_multi(K.values, xs, al)
            for (lam, mu), row in blocks.items():
                for i in range(1, n + 1):
                    want = value(K.entry(lam, i, mu).partial((al,), xs))
                    assert abs(value(row[i - 1]) - want) <= 1e-12
        # the phase and second-order connections re-index the same blocks
        kv = K.values(p)
        v = p[n + 1 :]

        def k(lam, i, mu):
            return value(kv[(min(lam, mu), max(lam, mu))][i - 1])

        u = [1.0] + v  # contact direction (d0 + v^a d_a)
        gl = model.pconn.lift_values(p)
        g00 = model.dyn.gamma00_values(p)
        for i in range(1, n + 1):
            for lam in range(n + 1):
                want = sum(k(lam, i, mu) * u[mu] for mu in range(n + 1))
                assert abs(value(gl[i - 1][lam]) - want) <= 1e-12
            want = sum(k(lam, i, mu) * u[lam] * u[mu]
                       for lam in range(n + 1) for mu in range(n + 1))
            assert abs(value(g00[i - 1]) - want) <= 1e-12


def potential_reference_connection(model):
    """Connection of a potential model rebuilt from explicit gauge fields:
    the curl d_a A_b - d_b A_a and the raised G^-1 (d_a A_0 - d_0 A_a)."""
    G, A, n = model.G, model.A, model.chart.n
    phi2 = {
        (a, b): Field(lambda xs, a=a, b=b: A[b].partial((a,), xs) - A[a].partial((b,), xs))
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    }

    def raised(xs, i):
        ginv = G.inv(xs)
        return sum(ginv[i][a - 1] * (A[0].partial((a,), xs) - A[a].partial((0,), xs))
                   for a in range(1, n + 1))

    time_gauge = [Field(lambda xs, i=i: raised(xs, i)) for i in range(n)]
    return explicit_connection(G, phi2, time_gauge)


def generated_n2_model():
    def poly(base, seed):
        rng = random.Random(seed)
        terms = [[base + rng.uniform(-0.1, 0.1), []]]
        terms += [[rng.uniform(-0.1, 0.1), [slot, 1]] for slot in range(3)]
        terms.append([rng.uniform(-0.05, 0.05), [rng.randrange(3), 2]])
        return {"kind": "polynomial", "coeffs": terms}

    return model_from_config({
        "name": "generated-n2",
        "n": 2,
        "metric": {"entries": {"1,1": poly(2.0, 1), "1,2": poly(0.0, 2), "2,2": poly(2.0, 3)}},
        "potential": [poly(0.0, 4 + lam) for lam in range(3)],
    })


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "n2"])
def test_potential_connection_matches_explicit_gauge_fields(seed):
    model = generated_n2_model() if seed == "n2" else random_compatible_model(seed)
    n = model.chart.n
    ref = potential_reference_connection(model)
    ref_dyn = dynamical_from_phase(phase_from_spacetime(ref))

    def close(got, want):
        for key, row in want.items():
            for g, w in zip(got[key], row):
                assert abs(value(g) - value(w)) <= 1e-12

    for p in model.sample_phase(3, seed=7):
        xs = p[: n + 1]
        close(model.K.values(xs), ref.values(xs))
        for d in range(n + 1):
            close(partial_multi(model.K.values, xs, d), partial_multi(ref.values, xs, d))
        got, want = model.dyn.gamma00_values(p), ref_dyn.gamma00_values(p)
        assert max(abs(value(g) - value(w)) for g, w in zip(got, want)) <= 1e-12


def test_one_metric_inverse_per_acceleration(monkeypatch):
    # the inverse line of a program calls Metric.inv with G's entries there;
    # the trig functions are wrapped before the programs are built
    calls, trig = [], []
    inv, sin, cos = Metric.inv, duals.sin, duals.cos
    monkeypatch.setattr(Metric, "inv", lambda self, *a: calls.append(1) or inv(self, *a))
    monkeypatch.setattr(duals, "sin", lambda x: trig.append(1) or sin(x))
    monkeypatch.setattr(duals, "cos", lambda x: trig.append(1) or cos(x))
    for model in (random_compatible_model(2), load_model("rigidbody")):
        for p in model.sample_phase(3, seed=1):
            calls.clear()
            trig.clear()
            model.dyn.gamma00_values(p)
            assert len(calls) == 1
            # rigidbody: sin and cos of theta and psi, each once
            assert len(trig) <= 4 or model.name != "rigidbody"


def test_two_form_and_motion_row_evaluate_each_trig_leaf_once(monkeypatch):
    # both read G's entries in the record's one program, not G.mat as well
    trig = []
    sin, cos = duals.sin, duals.cos
    monkeypatch.setattr(duals, "sin", lambda x: trig.append(1) or sin(x))
    monkeypatch.setattr(duals, "cos", lambda x: trig.append(1) or cos(x))
    model = load_model("rigidbody")
    n, dim = model.chart.n, model.chart.dim_phase
    for j2 in model.sample_j2(2, seed=4):
        trig.clear()
        model.omega.matrix(j2[:dim])
        assert len(trig) == 4
        trig.clear()
        motion_of(model.dyn.lowered(j2), j2[n + 1 : dim], j2[dim:])
        assert len(trig) == 4


def _random_spd(rng, n):
    b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    return [[sum(b[i][k] * b[j][k] for k in range(n)) + (n if i == j else 0.0)
             for j in range(n)] for i in range(n)]


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_inverse_program_matches_elimination(n):
    rng = random.Random(n)
    for _ in range(5):
        a = _random_spd(rng, n)
        got, want = _inverse_program(n)([e for row in a for e in row]), duals.invert_generic(a)
        assert all(_close(g, w, 1e-14) for gr, wr in zip(got, want) for g, w in zip(gr, wr))
        # entries moving along two directions, as dual numbers: both first partials
        da = [_random_spd(rng, n) for _ in range(2)]

        def moved(t):
            return [[a[i][j] + t[0] * da[0][i][j] + t[1] * da[1][i][j] for j in range(n)]
                    for i in range(n)]

        def by_program(t):
            return _inverse_program(n)([e for row in moved(t) for e in row])

        for gd, wd in zip(duals.grad(by_program, [0.0, 0.0]),
                          duals.grad(lambda t: duals.invert_generic(moved(t)), [0.0, 0.0])):
            assert all(_close(value(g), value(w), 1e-14) for gr, wr in zip(gd, wd) for g, w in zip(gr, wr))


def test_a_zero_leading_pivot_is_a_singular_metric():
    G = Metric(Chart(2), {(1, 1): coordinate(1), (2, 2): constant(1.0)})
    with pytest.raises(SingularMetricError, match=r"metric is singular at \[0.0, 0.0, 0.0\]"):
        G.inv([0.0, 0.0, 0.0])


def test_the_inverse_program_is_built_once_per_chart_dimension():
    G = random_compatible_model(0).G
    G.inv([0.1, 0.2, -0.1, 0.3])
    before = _inverse_program.cache_info()
    for seed in (1, 2, 3):  # fresh models of the same chart dimension
        model = random_compatible_model(seed)
        for xs in model.sample_e(2, seed=seed):
            model.G.inv(xs)
    after = _inverse_program.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 6


def _second_order(name):
    """(dyn, phase points) of a catalog model, a random metric model, or a
    bare record with no metric, whose acceleration is contracted, not raised."""
    if name == "bare":
        K = random_connection(Chart(3), random.Random(9))
        return dynamical_from_phase(phase_from_spacetime(K)), sample_points(3, [(-1.0, 1.0)] * 7, 5)
    model = random_compatible_model(int(name[-1])) if name.startswith("random") else load_model(name)
    return model.dyn, model.sample_phase(3, seed=5)


@pytest.mark.parametrize("name", [*catalog_names(), *(f"random{s}" for s in range(4)), "bare"])
def test_acceleration_program_matches_the_contracted_blocks(name):
    dyn, points = _second_order(name)
    n = dyn.chart.n

    def by_blocks(xs):
        return gamma00_of(dyn.raised(xs)[0], xs[n + 1 : 2 * n + 1])

    for p in points:
        assert all(_close(value(g), value(w), 1e-13)
                   for g, w in zip(dyn.gamma00_values(p), by_blocks(p)))
        # under a whole-gradient pass, as the motion row is differentiated
        for gd, wd in zip(duals.grad(dyn.gamma00_values, p), duals.grad(by_blocks, p)):
            assert all(_close(value(g), value(w), 1e-13) for g, w in zip(gd, wd))


def test_metric_jet_evaluates_each_trig_leaf_once(monkeypatch):
    # rigidbody's metric reads sin and cos of theta and psi: four values
    calls = []
    for name in ("sin", "cos"):
        monkeypatch.setattr(duals, name, lambda x, o=getattr(duals, name): calls.append(1) or o(x))
    model = load_model("rigidbody")
    for xs in model.sample_e(3, seed=1):
        ys = list(xs)
        ys[2] = ys[2] + duals.MultiDual({1: 1.0})
        for point in (xs, ys):
            calls.clear()
            model.G.jet(point)
            assert len(calls) <= 4


def test_spd_probe():
    chart = Chart(2)
    G = Metric(chart, {
        (1, 1): constant(1.0) - coordinate(1) ** 2,  # fails for |x1| > 1
        (2, 2): constant(1.0),
    })
    with pytest.raises(SingularMetricError):
        G.check_spd([[0.0, 2.0, 0.0]])


# -- two-form -----------------------------------------------------------------


def test_free_two_form_block_structure(free2d):
    p = [0.3, 0.1, -0.2, 0.0, 0.0]  # zero velocity
    m = free2d.omega.matrix(p)
    want = np.zeros((5, 5))
    want[3, 1] = want[4, 2] = 1.0
    want[1, 3] = want[2, 4] = -1.0
    assert np.max(np.abs(np.array(m) - want)) == 0.0


def test_reeb_contraction_vanishes(catalog_models):
    for model in catalog_models:
        for p in model.sample_phase(20, seed=4):
            r_omega, r_dt = reeb_residual(model.omega, model.dyn, p)
            assert r_omega < 1e-12
            assert r_dt == 0.0


def test_reeb_perturbation_detected(free3d):
    dyn = free3d.dyn

    class Perturbed:
        chart = dyn.chart

        def vector_values(self, xs):
            v = dyn.vector_values(xs)
            v[4] = v[4] + 1e-2
            return v

    p = [0.1, 0.2, 0.3, 0.4, 1.0, 0.0, 0.0]
    r_omega, r_dt = reeb_residual(free3d.omega, Perturbed(), p)
    # contraction picks up at least the perturbation times the metric floor
    assert r_omega >= 1e-2 * 0.999
    assert r_dt == 0.0


def test_nondegeneracy(catalog_models):
    for model in catalog_models:
        for p in model.sample_phase(10, seed=6):
            assert abs(model.omega.nondegeneracy_det(p)) > 1e-8


# -- minimal coupling ---------------------------------------------------------


def test_minimal_coupling_identity_cases(free3d):
    q = ScaledScalar(1.0, CHARGE)
    m = ScaledScalar(1.0, MASS)
    em0 = EMField(free3d.chart, {}, q, m)
    assert minimal_coupling(free3d.omega, em0) is free3d.omega
    emq0 = EMField(free3d.chart, {(1, 2): constant(1.0)}, ScaledScalar(0.0, CHARGE), m)
    assert minimal_coupling(free3d.omega, emq0) is free3d.omega
    assert minimal_coupling(free3d.omega, None) is free3d.omega


def test_minimal_coupling_entry_and_coefficients(free3d):
    b = 1.7
    q_v, m_v = 2.0, 4.0
    em = EMField(free3d.chart, {(1, 2): constant(b)},
                 ScaledScalar(q_v, CHARGE), ScaledScalar(m_v, MASS))
    total = minimal_coupling(free3d.omega, em)
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    m_nat = free3d.omega.matrix(p)
    m_tot = total.matrix(p)
    # the spacetime block shifts by the coupled field entries; with the
    # antisymmetric-pair count folded this is (q/m) B, split as q/(2m) B on
    # each of the two connection coefficients it comes from
    assert value(m_tot[1][2]) - value(m_nat[1][2]) == pytest.approx(q_v / m_v * b, abs=1e-14)
    k_tot = spacetime_from_phase(total.conn)
    assert value(k_tot.entry(0, 1, 2)(p)) == pytest.approx(q_v / (2 * m_v) * b, abs=1e-14)
    assert value(k_tot.entry(0, 2, 1)(p)) == pytest.approx(-q_v / (2 * m_v) * b, abs=1e-14)
    # time-time column picks up the full (q/m) f^i_0 (zero here)
    assert value(k_tot.entry(0, 1, 0)(p)) == 0.0


def test_lorentz_acceleration_from_total_connection(cyclotron):
    # gamma of the coupled structure is the Lorentz force
    qm = cyclotron.em.coupling
    for p in cyclotron.sample_phase(10, seed=7):
        v = p[4:]
        want = [qm * v[1], -qm * v[0], 0.0]  # F12 = B = 1
        got = [value(g) for g in cyclotron.dyn.gamma00_values(p)]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


def test_reeb_of_coupled_form(cyclotron):
    for p in cyclotron.sample_phase(10, seed=8):
        r_omega, r_dt = reeb_residual(cyclotron.omega, cyclotron.dyn, p)
        assert r_omega < 1e-12 and r_dt == 0.0


# -- motion form --------------------------------------------------------------


_LOWERED_MODELS = ["free2d", "free3d", "cyclotron", "rigidbody"] + [
    f"random-{seed}-n{n}" for n in (2, 3, 4) for seed in range(4)]


def _near(got, want, tol, what):
    """Entrywise within ``tol`` relative to the largest entry of ``want``."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want))), what


@pytest.mark.parametrize("name", _LOWERED_MODELS)
def test_lowered_forms_match_the_raised_route(name):
    # Omega and the motion row read the lowered program; the raised route
    # assembles them from G.mat, the raised lift and the acceleration program
    if name.startswith("random"):
        seed, n = name[len("random-"):].split("-n")
        model = random_compatible_model(int(seed), int(n))
    else:
        model = load_model(name)
    n, omega, dim = model.chart.n, model.omega, model.chart.dim_phase
    for xs, j2 in zip(model.sample_phase(3, seed=21), model.sample_j2(3, seed=22)):
        m = omega.matrix(xs)
        _near(m, raised_two_form(omega, xs), 1e-14, (name, "two_form"))
        assert all(m[a][b] == -m[b][a] for a in range(dim) for b in range(dim)), name
        row = motion_of(model.dyn.lowered(j2), j2[n + 1 : dim], j2[dim:])
        _near(row, raised_motion_row(model.dyn, j2[:dim], j2[dim:]), 1e-14, (name, "motion"))
        # and their first partials, which the Lie derivative families read
        _near(duals.grad(omega.matrix, xs), duals.grad(lambda ys: raised_two_form(omega, ys), xs),
               1e-12, (name, "d two_form"))


def _and_at_rest(points, n):
    """The points, then the first two with their velocity at 0."""
    return points + [p[: n + 1] + [0.0] * n + p[2 * n + 1 :] for p in points[:2]]


@pytest.mark.parametrize("name", [*POTENTIAL_MODELS, "broken-field", "bare"])
def test_record_jets_are_the_seeded_jets_in_closed_form(name):
    # the raised blocks, Omega and the motion row from one run of the
    # record's jet, against seeded passes through plain lambdas of their
    # values, at sample points and at v = 0; a bare record has no metric
    if name == "bare":
        model, K = None, random_connection(Chart(3), random.Random(9))
        n, pts = 3, sample_points(3, [(-1.0, 1.0)] * 7, 5)
    else:
        model = nonclosed_field_model() if name == "broken-field" else potential_model(name)
        K, n, pts = model.K, model.chart.n, model.sample_phase(3, seed=23)
    for p in _and_at_rest(pts, n):
        blocks, partials = K.raise_(p[: n + 1], *K.jet(p))[:2]
        want, seeded = duals.jet(lambda ys: K.raised(ys)[0], p[: n + 1])
        assert blocks == want, (name, p)
        assert len(partials) == len(seeded) == n + 1
        for got, row in zip(partials, seeded):
            _near([got[k] for k in sorted(row)], [row[k] for k in sorted(row)], 1e-13, (name, p))
        if model is not None:
            m, dm = model.omega.jet(p)
            want, seeded = duals.jet(lambda ys: model.omega.matrix(ys), p)
            assert m == want, (name, p)
            _near(dm, seeded, 1e-13, (name, p, "two_form"))
    if model is None:
        return
    if name == "broken-field":
        assert min(closure_residual(model.omega, p) for p in pts) > 1e-3

    def row(j2):
        return motion_of(model.dyn.lowered(j2), j2[n + 1 : 2 * n + 1], j2[2 * n + 1 :])

    for j2 in _and_at_rest(model.sample_j2(3, seed=24), n):
        e, de = model.dyn.motion_jet(j2)
        want, seeded = duals.jet(row, j2)
        assert e == want, (name, j2)
        _near(de, seeded, 1e-13, (name, j2, "motion"))


def test_euler_lagrange_on_shell(cyclotron):
    p = [0.1, 0.2, 0.3, 0.4, 1.0, -0.5, 0.25]
    accel = [value(a) for a in cyclotron.dyn.gamma00_values(p)]
    m = euler_lagrange_matrix(cyclotron.G, cyclotron.dyn, p, accel)
    assert max(abs(x) for row in m for x in row) == 0.0


def test_euler_lagrange_free_unit_accel(free3d):
    p = [0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0]
    m = euler_lagrange_matrix(free3d.G, free3d.dyn, p, [1.0, 0.0, 0.0])
    assert m[0][1] == 1.0 and m[1][0] == -1.0
    assert all(m[a][b] == 0.0 for a in range(4) for b in range(4)
               if (a, b) not in ((0, 1), (1, 0)))


def test_euler_lagrange_matches_variational_oracle(rigidbody):
    # independent oracle: d/dt (dL/dv) - dL/dx along a polynomial test curve,
    # with the time derivative taken by a dual number through the curve
    model = rigidbody
    lag, _ = lagrangian_and_momentum(model.theta)
    n = model.chart.n
    coef = [(0.3, -0.1, 1.3), (0.2, 0.4, 0.4), (-0.3, 0.2, 0.9)]

    def curve(t):
        x = [c2 + c1 * t + 0.5 * c0 * t * t for (c0, c1, c2) in coef]
        v = [c1 + c0 * t for (c0, c1, c2) in coef]
        a = [c0 for (c0, c1, c2) in coef]
        return x, v, a

    t0 = 0.2
    x, v, a = curve(t0)
    p = [t0, *x, *v]

    def momentum_along_curve(i):
        def fn(ts):
            t = ts[0]
            xx = [c2 + c1 * t + 0.5 * c0 * t * t for (c0, c1, c2) in coef]
            vv = [c1 + c0 * t for (c0, c1, c2) in coef]
            q = [t, *xx, *vv]
            return duals.partial(lag.value, q, n + 1 + i)

        return duals.partial(fn, [t0], 0)

    el = [
        value(momentum_along_curve(i)) - value(duals.partial(lag.value, p, 1 + i))
        for i in range(n)
    ]
    m = euler_lagrange_matrix(model.G, model.dyn, p, a)
    assert max(abs(value(m[0][1 + j]) - el[j]) for j in range(n)) < 1e-9


# -- potential form and splitting ---------------------------------------------


def test_poincare_cartan_values(free2d):
    theta = free2d.theta
    p = [0.0, 0.1, 0.2, 1.0, 0.0]
    assert value(theta.theta0(p)) == -0.5
    assert value(theta.theta_spatial(1, p)) == 1.0
    assert value(theta.theta_spatial(2, p)) == 0.0


@pytest.mark.parametrize("name", POTENTIAL_MODELS)
def test_theta_jet_is_the_seeded_jet_in_closed_form(name):
    model = potential_model(name)
    theta, n = model.theta, model.chart.n
    pts = model.sample_phase(4, seed=11)
    pts += [p[: n + 1] + [0.0] * n for p in pts[:2]] + [model.anchor()]  # v = 0
    for p in pts:
        comps, partials = theta.jet(p)
        want, seeded = duals.jet(theta.components, p)
        # the components bit for bit, signed zeros included
        assert list(map(repr, comps)) == list(map(repr, want)), (name, p)
        assert len(partials) == len(seeded) == 2 * n + 1
        for k, (got, row) in enumerate(zip(partials, seeded)):
            assert len(got) == 2 * n + 1
            assert max(abs(g - w) for g, w in zip(got, row)) <= 1e-14, (name, p, k)


def exterior_derivative_matrix(comp_fn, xs):
    dim = len(xs)
    d = [partial_multi(comp_fn, xs, a) for a in range(dim)]
    return [[value(d[a][b]) - value(d[b][a]) for b in range(dim)] for a in range(dim)]


def test_d_theta_equals_omega(catalog_models):
    for model in catalog_models:
        for p in model.sample_phase(12, seed=9):
            dt = exterior_derivative_matrix(model.theta.components, p)
            om = model.omega.matrix(p)
            err = max(
                abs(dt[a][b] - value(om[a][b]))
                for a in range(len(dt))
                for b in range(len(dt))
            )
            assert err < 1e-9


def test_gauge_shift_leaves_d_theta(free3d):
    # shifting the gauge by an exact form leaves the derivative unchanged
    chi = coordinate(1) * coordinate(2) + coordinate(0) ** 2
    grad = [Field(lambda xs, l=lam: chi.partial((l,), xs)) for lam in range(4)]
    shifted = poincare_cartan(free3d.G, [free3d.theta.A[l] + grad[l] for l in range(4)])
    p = [0.2, 0.4, -0.1, 0.3, 0.5, 0.6, -0.2]
    d1 = exterior_derivative_matrix(free3d.theta.components, p)
    d2 = exterior_derivative_matrix(shifted.components, p)
    assert max(abs(d1[a][b] - d2[a][b]) for a in range(7) for b in range(7)) < 1e-12


def test_lagrangian_momentum_values(free2d):
    lag, mom = lagrangian_and_momentum(free2d.theta)
    p = [0.0, 0.1, 0.2, 1.0, 0.0]
    assert value(lag.value(p)) == 0.5
    assert value(mom.component(1, p)) == 1.0
    assert value(mom.component(2, p)) == 0.0


def test_a0_shift_moves_only_lagrangian(free2d):
    shifted = poincare_cartan(free2d.G, [constant(0.7), ZERO, ZERO])
    lag, mom = lagrangian_and_momentum(shifted)
    lag0, mom0 = lagrangian_and_momentum(free2d.theta)
    p = [0.0, 0.1, 0.2, 0.4, -0.3]
    assert value(lag.value(p)) - value(lag0.value(p)) == pytest.approx(0.7, abs=1e-15)
    for a in (1, 2):
        assert value(mom.component(a, p)) == value(mom0.component(a, p))


def test_splitting_round_trip_exact():
    rng = random.Random(15)
    chart = Chart(3)
    for _ in range(20):
        entries = {}
        for a in range(1, 4):
            for b in range(a, 4):
                base = 2.0 if a == b else 0.0
                entries[(a, b)] = constant(base) + constant(rng.uniform(-0.2, 0.2)) * coordinate(rng.randrange(0, 4))
        G = Metric(chart, entries)
        A = [polynomial([(rng.uniform(-1, 1), {rng.randrange(0, 4): 1})]) for _ in range(4)]
        theta = poincare_cartan(G, A)
        lag, mom = lagrangian_and_momentum(theta)
        theta2 = cartan_from_lagrangian(lag, mom)
        assert theta2.G is theta.G and theta2.A is not None
        p = sample_points(1, [(-1, 1)] * 7, seed=1)[0]
        assert value(theta2.theta0(p)) == value(theta.theta0(p))
        for a in (1, 2, 3):
            assert value(theta2.theta_spatial(a, p)) == value(theta.theta_spatial(a, p))


def test_splitting_identities_numeric(rigidbody):
    theta = rigidbody.theta
    lag, mom = lagrangian_and_momentum(theta)
    for p in rigidbody.sample_phase(10, seed=11):
        n = rigidbody.chart.n
        v = p[n + 1 :]
        lhs = value(lag.value(p))
        rhs = value(theta.theta0(p)) + sum(
            value(theta.theta_spatial(a, p)) * v[a - 1] for a in range(1, n + 1)
        )
        assert abs(lhs - rhs) < 1e-12
        for a in range(1, n + 1):
            dl = duals.partial(lag.value, p, n + a)
            assert abs(value(dl) - value(mom.component(a, p))) < 1e-12


# -- observer operations ------------------------------------------------------


def test_observed_split_free(free3d):
    ham, moms = observed_split(free3d.theta, free3d.observer)
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    want = 0.5 * (1.0 + 0.25 + 0.0625)
    assert value(ham(p)) == pytest.approx(want, abs=1e-15)
    assert value(moms[0](p)) == 1.0


def test_observed_split_with_gauge(cyclotron):
    # scalar part of the gauge enters the Hamiltonian with a minus sign
    G = cyclotron.G
    A = [constant(0.4), ZERO, ZERO, ZERO]
    theta = poincare_cartan(G, A)
    ham, _ = observed_split(theta, cyclotron.observer)
    p = [0.0, 0.1, 0.2, 0.3, 1.0, 0.0, 0.0]
    assert value(ham(p)) == pytest.approx(0.5 - 0.4, abs=1e-15)


def test_observed_split_constant_observer_shift(free3d):
    obs = Observer(free3d.chart, [constant(0.3), constant(-0.2), ZERO])
    ham, _ = observed_split(free3d.theta, obs)
    ham0, _ = observed_split(free3d.theta, free3d.observer)
    p = [0.0, 0.1, 0.2, 0.3, 1.0, -0.5, 0.25]
    shift = -(0.3 * value(free3d.theta.theta_spatial(1, p))
              - 0.2 * value(free3d.theta.theta_spatial(2, p)))
    assert value(ham(p)) - value(ham0(p)) == pytest.approx(shift, abs=1e-14)


def test_observed_two_form_free_is_zero(free3d):
    m = observed_two_form(free3d.omega, free3d.observer, [0.1, 0.2, 0.3, 0.4])
    assert max(abs(value(x)) for row in m for x in row) == 0.0


def test_observed_two_form_uniform_field(cyclotron):
    m = observed_two_form(cyclotron.omega, cyclotron.observer, [0.1, 0.2, 0.3, 0.4])
    assert value(m[1][2]) == pytest.approx(1.0, abs=1e-14)  # = B at unit coupling
    assert value(m[2][1]) == pytest.approx(-1.0, abs=1e-14)


def test_observed_two_form_closed(catalog_models):
    for model in catalog_models:
        for xs in model.sample_e(5, seed=12):
            assert dphi_residual(model.omega, model.observer, xs) < 1e-10


# -- closure ------------------------------------------------------------------


def test_closure_catalog(catalog_models):
    for model in catalog_models:
        for p in model.sample_phase(8, seed=13):
            assert closure_residual(model.omega, p) < 1e-12


def test_closure_nonclosed_field_matches_analytic():
    model = nonclosed_field_model()
    for p in model.sample_phase(5, seed=14):
        # the only surviving cyclic sum is the coordinate derivative of the
        # coupled field entry, which is 1 at unit coupling
        assert closure_residual(model.omega, p) == pytest.approx(1.0, abs=1e-9)


def test_closure_equivalence_two_sided(catalog_models):
    # closed iff metric-compatible and observed form closed
    for model in catalog_models:
        xs = model.sample_e(4, seed=15)
        for x in xs:
            assert metric_compat_residual(model.K, model.G, x) < 1e-10
            assert dphi_residual(model.omega, model.observer, x) < 1e-10
    for seed in range(20):
        model = random_compatible_model(seed)
        p = model.sample_phase(2, seed=16)
        for q in p:
            assert closure_residual(model.omega, q) < 1e-10
        for x in model.sample_e(2, seed=17):
            assert metric_compat_residual(model.K, model.G, x) < 1e-10
            assert dphi_residual(model.omega, model.observer, x) < 1e-10
    broken_f = nonclosed_field_model()
    x = [0.1, 0.2, 0.3, 0.4]
    assert closure_residual(broken_f.omega, x + [0.5, -0.2, 0.1]) > 1e-3
    assert dphi_residual(broken_f.omega, broken_f.observer, x) > 1e-3
    assert metric_compat_residual(broken_f.K, broken_f.G, x) < 1e-10
    broken_k = nonmetric_two_form()
    assert closure_residual(broken_k, x + [0.5, -0.2, 0.1]) > 1e-3
    assert metric_compat_residual(spacetime_from_phase(broken_k.conn), broken_k.G, x) > 1e-3

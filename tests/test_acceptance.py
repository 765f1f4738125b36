"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import copy
import json
import math
import random
import time

import numpy as np
import pytest

from galimech import cli, duals
from galimech.duals import value
from galimech.catalog import load_model, named_charges, nonclosed_field_model
from galimech.fields import Chart, ZERO, constant, coordinate, polynomial, sample_points
from galimech.geometry import (
    cartan_from_lagrangian,
    closure_residual,
    lagrangian_and_momentum,
    reeb_residual,
)
from galimech.symmetry import (
    SpacetimeVectorField,
    check_equivalences,
    classify_special_quadratic,
    generator_match,
    lie_dynamical,
    lie_metric,
    lie_phase_connection,
    lie_spacetime_connection,
    lie_two_form,
    momentum_map,
    noether_charge,
    special_bracket,
    tau_lift,
    tau_lift_values,
    vector_commutator,
)
from galimech.oracles import (
    lie_flow_metric,
    lie_flow_mixed,
    lie_flow_vector,
    pair_bracket,
    vertical_projector_phase,
    vertical_projector_spacetime,
)
from galimech.dynamics import integrate
from tests_support import conserved_drift, convergence_order


def report(num, desc, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_bijection_round_trips():
    from tests_support import random_connection  # local helper below

    t0 = time.perf_counter()
    rng = random.Random(123)
    chart = Chart(3)
    ok = True
    for _ in range(20):
        from galimech.geometry import (
            dynamical_from_phase,
            phase_from_dynamical,
            phase_from_spacetime,
            spacetime_from_phase,
        )

        K = random_connection(chart, rng)
        K2 = spacetime_from_phase(phase_from_spacetime(K))
        K3 = spacetime_from_phase(
            phase_from_dynamical(dynamical_from_phase(phase_from_spacetime(K)))
        )
        for key, fields in K.sym.items():
            for i, f in enumerate(fields):
                ok = ok and K2.sym[key][i] is f and K3.sym[key][i] is f
    # potential-form splitting round trip
    model = load_model("cyclotron")
    lag, mom = lagrangian_and_momentum(model.theta)
    theta2 = cartan_from_lagrangian(lag, mom)
    p = [0.2, 0.1, -0.3, 0.4, 0.7, -0.2, 0.5]
    ok = ok and value(theta2.theta0(p)) == value(model.theta.theta0(p))
    for a in (1, 2, 3):
        ok = ok and value(theta2.theta_spatial(a, p)) == value(model.theta.theta_spatial(a, p))
    dt = time.perf_counter() - t0
    report(1, "structure round-trips exact on 20 random sets", ok and dt < 1.0,
           f"runtime {dt:.2f}s")


def test_criterion_02_d_theta_equals_omega(catalog_models):
    worst = 0.0
    for model in catalog_models:
        for p in model.sample_phase(100, seed=2):
            dcomp = [duals.partial_multi(model.theta.components, p, d)
                     for d in range(len(p))]
            om = model.omega.matrix(p)
            for a in range(len(p)):
                for b in range(a + 1, len(p)):
                    err = abs(value(dcomp[a][b]) - value(dcomp[b][a]) - value(om[a][b]))
                    worst = max(worst, err)
    report(2, "derivative of the potential form equals the two-form", worst < 1e-9,
           f"max entry error {worst:.2e} at 100 points x 4 models")


def test_criterion_03_closure(catalog_models):
    worst = 0.0
    for model in catalog_models:
        for p in model.sample_phase(20, seed=3):
            worst = max(worst, closure_residual(model.omega, p))
    broken = nonclosed_field_model()
    errs = []
    for p in broken.sample_phase(5, seed=3):
        # analytic derivative of the coupled entry is exactly 1
        errs.append(abs(closure_residual(broken.omega, p) - 1.0))
    ok = worst < 1e-10 and max(errs) < 1e-9
    report(3, "closure on catalog models; analytic defect on a broken field", ok,
           f"catalog max {worst:.2e}; broken-field mismatch {max(errs):.2e}")


def test_criterion_04_reeb_property(catalog_models):
    worst_c, worst_t = 0.0, 0.0
    for model in catalog_models:
        for p in model.sample_phase(100, seed=4):
            rc, rt = reeb_residual(model.omega, model.dyn, p)
            worst_c = max(worst_c, rc)
            worst_t = max(worst_t, rt)
    # uniqueness probe: perturbed second-order connections are detected
    model = load_model("free3d")
    rng = random.Random(44)
    pts = model.sample_phase(5, seed=44)
    min_detect = math.inf
    for _ in range(10):
        slot = rng.randrange(3)
        coef = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5)
        shape = rng.choice([None, 1, 2])

        def pert_vec(xs, slot=slot, coef=coef, shape=shape):
            v = model.dyn.vector_values(xs)
            bump = coef if shape is None else coef * xs[shape]
            v[4 + slot] = v[4 + slot] + bump
            return v

        detected = max(
            max(abs(value(x)) for row in lie_two_form(pert_vec, model.omega.matrix, p)
                for x in row)
            for p in pts
        )
        min_detect = min(min_detect, detected)
    ok = worst_c < 1e-12 and worst_t == 0.0 and min_detect > 1e-3
    report(4, "contraction and time normalisation of the motion field; "
              "perturbations detected", ok,
           f"contraction {worst_c:.2e}, dt defect {worst_t:.1e}, "
           f"weakest perturbation signal {min_detect:.2e}")


def test_criterion_05_motion_field_invariance(catalog_models):
    worst_o, worst_t = 0.0, 0.0
    for model in catalog_models:
        def gv(xs):
            return model.dyn.vector_values(xs)

        def dt_comps(xs):
            return [1.0] + [0.0] * (2 * model.chart.n)

        from galimech.symmetry import lie_one_form

        for p in model.sample_phase(5, seed=5):
            lo = lie_two_form(gv, model.omega.matrix, p)
            worst_o = max(worst_o, max(abs(value(x)) for row in lo for x in row))
            ldt = lie_one_form(gv, dt_comps, p)
            worst_t = max(worst_t, max(abs(value(x)) for x in ldt))
    ok = worst_o < 1e-9 and worst_t < 1e-9
    report(5, "motion field annihilates the structure (Cartan path)", ok,
           f"two-form {worst_o:.2e}, time form {worst_t:.2e}")


def test_criterion_06_equivalence_suite(catalog_models):
    free2d, free3d, cyclotron, rigidbody = catalog_models

    def gen(model, x0, comps, label):
        return SpacetimeVectorField(model.chart, x0, comps, label=label)

    pairs = []
    for model in (free2d, free3d):
        n = model.chart.n
        e1 = [constant(1.0)] + [ZERO] * (n - 1)
        pairs += [
            (model, gen(model, 0.0, e1, "d1"), True),
            (model, model.actions["rotations"].generators[-1], True),
            (model, gen(model, 0.0, [coordinate(1) ** 2] + [ZERO] * (n - 1), "x1^2 d1"), False),
        ]
    pairs += [
        (free3d, gen(free3d, 1.0, [ZERO] * 3, "d0"), True),
        (free3d, gen(free3d, 0.0, [coordinate(1), ZERO, ZERO], "x1 d1"), None),
        (cyclotron, gen(cyclotron, 0.0, [ZERO, ZERO, constant(1.0)], "d3"), True),
        (cyclotron, cyclotron.actions["rotation"].generators[0], True),
        (cyclotron, gen(cyclotron, 0.0, [coordinate(3) ** 2, ZERO, ZERO], "x3^2 d1"), False),
        (rigidbody, rigidbody.actions["rotations"].generators[0], True),
        (rigidbody, rigidbody.actions["rotations"].generators[2], True),
        (rigidbody, gen(rigidbody, 0.0, [ZERO, constant(1.0), ZERO], "d2"), False),
    ]
    assert len(pairs) >= 12
    disagreements = 0
    seen_pass = seen_fail = 0
    for model, X, expect in pairs:
        (rep,) = check_equivalences(
            model, [X],
            model.sample_e(5, seed=6), model.sample_phase(5, seed=6),
            model.sample_te(5, seed=6), model.sample_j2(5, seed=6),
        )
        if not rep.consistent():
            disagreements += 1
        v = rep.verdicts()
        families = [v["spacetime_connection"], v["two_form"], v["motion_form"]]
        if expect is True:
            seen_pass += 1
            if any(x != "pass" for x in v.values()):
                disagreements += 1
        elif expect is False:
            seen_fail += 1
            if families.count("fail") != 3:
                disagreements += 1
    ok = disagreements == 0 and seen_pass >= 4 and seen_fail >= 4
    report(6, f"invariance families agree on {len(pairs)} (model, field) pairs", ok,
           f"{disagreements} disagreements; {seen_pass} symmetries, {seen_fail} non-symmetries")


def test_criterion_07_flow_oracle_cross_check():
    cyclotron = load_model("cyclotron")
    rigidbody = load_model("rigidbody")
    s = 1e-4
    n = 3
    worst = {}

    X_rb = SpacetimeVectorField(
        rigidbody.chart, 0.0, [coordinate(2), ZERO, coordinate(1)], label="mix"
    )
    pts = rigidbody.sample_e(50, seed=7)
    formula = lie_metric(X_rb, rigidbody.G)
    worst["metric"] = max(
        max(abs(value(formula(p)[a][b]) - lie_flow_metric(rigidbody.G, X_rb, p, s)[a][b])
            for a in range(3) for b in range(3))
        for p in pts
    )

    X = SpacetimeVectorField(
        cyclotron.chart, 0.0, [coordinate(1) ** 2, coordinate(3), ZERO], label="poly"
    )

    def xp(xs):
        return X.prolong1_values(xs)

    proj = vertical_projector_phase(cyclotron.pconn)
    formula_g = lie_phase_connection(X, cyclotron.pconn)
    w = 0.0
    for p in cyclotron.sample_phase(50, seed=7):
        got = formula_g(p)
        flow = lie_flow_mixed(proj, xp, p, s)
        w = max(w, max(abs(flow[n + 1 + i - 1][mu] - value(got[mu][i - 1]))
                       for i in range(1, n + 1) for mu in range(0, n + 1)))
    worst["phase_connection"] = w

    formula_d = lie_dynamical(X, cyclotron.dyn)

    def gv(xs):
        return cyclotron.dyn.vector_values(xs)

    w = 0.0
    for p in cyclotron.sample_phase(50, seed=8):
        got = formula_d(p)
        flow = lie_flow_vector(gv, xp, p, s)
        w = max(w, max(abs(flow[4 + i] - value(got[i])) for i in range(3)))
        w = max(w, float(np.max(np.abs(flow[:4]))))
    worst["dynamical_connection"] = w

    def xt(q):
        return X.prolongT_values(q)

    proj_k = vertical_projector_spacetime(cyclotron.K)
    formula_k = lie_spacetime_connection(X, cyclotron.K)
    w = 0.0
    for te in cyclotron.sample_te(50, seed=9):
        got = formula_k(te)
        flow = lie_flow_mixed(proj_k, xt, te, s)
        w = max(w, max(abs(flow[n + 1 + i][lam] + value(got[lam][i - 1]))
                       for i in range(1, n + 1) for lam in range(0, n + 1)))
    worst["spacetime_connection"] = w

    ok = all(v < 1e-6 for v in worst.values())
    report(7, "coordinate-formula Lie derivatives match the flow quotient", ok,
           "; ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_08_free_particle():
    model = load_model("free3d")
    x0 = np.array([0.1, -0.2, 0.3])
    v0 = np.array([0.7, 0.4, -0.5])
    traj = integrate(model.dyn, [0.0, *x0, *v0], 1.0, 1e-3)
    traj_err = float(np.max(np.abs(traj.x[-1] - (x0 + v0 * traj.t[-1]))))
    charges = named_charges(model, ["charge_d1", "charge_d2", "charge_d3", "charge_d0"])
    drifts = {}
    for name, ch in charges.items():
        d, _ = conserved_drift(ch.value, traj)
        drifts[name] = d
    ok = traj_err < 1e-9 and all(d < 1e-10 for d in drifts.values())
    report(8, "free particle: straight motion; momenta and energy frozen", ok,
           f"trajectory {traj_err:.2e}; worst drift {max(drifts.values()):.2e}")


def test_criterion_09_cyclotron():
    model = load_model("cyclotron")
    speed, b, q, m = 1.0, 1.0, model.em.q.value, model.em.m.value
    radius = speed * m / (q * b)
    T = 2 * math.pi * m / (q * b)
    traj = integrate(model.dyn, [0.0, 0, 0, 0, speed, 0, 0], T, 1e-3)
    center = np.array([0.0, -radius, 0.0])
    rerr = float(np.max(np.abs(np.linalg.norm(traj.x - center, axis=1) - radius)))
    energy = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
    drift, _ = conserved_drift(energy, traj)

    def exact(t):
        return ((math.sin(t), math.cos(t) - 1.0, 0.0),
                (math.cos(t), -math.sin(t), 0.0))

    _, orders = convergence_order(model.dyn, [0.0, 0, 0, 0, 1.0, 0, 0], math.pi,
                                  exact, [0.02, 0.01, 0.005])
    ok = rerr < 1e-6 and drift < 1e-8 and all(3.8 <= o <= 4.2 for o in orders)
    report(9, "cyclotron: radius, energy drift, integrator order", ok,
           f"radius {rerr:.2e}; drift {drift:.2e}; orders {[round(float(o), 3) for o in orders]}")


def test_criterion_10_rigid_body():
    model = load_model("rigidbody")  # triaxial inertia (1, 2, 3)
    traj = integrate(model.dyn, [0.0, 0.3, 1.2, 0.4, 0.3, -0.2, 0.5], 1.0, 1e-3)
    drifts = []
    for gen in model.actions["rotations"].generators:
        ch, _, ok_gen = noether_charge(gen, model.theta)
        assert ok_gen
        d, _ = conserved_drift(ch.value, traj)
        drifts.append(d)
    ok = all(d < 1e-6 for d in drifts)
    report(10, "asymmetric top: three rotation charges conserved", ok,
           f"drifts {['%.2e' % d for d in drifts]}")


def _all_catalog_entries(models):
    out = []
    for model in models:
        for action in model.actions.values():
            pts = model.sample_phase(12, seed=11)
            entries = momentum_map(action, model.theta, pts, anchor=model.anchor())
            out += [(model, e) for e in entries]
    return out


def test_criterion_11_lift_reproduces_generators(catalog_models):
    worst = 0.0
    worst_offset = math.inf
    for model, entry in _all_catalog_entries(catalog_models):
        pts = model.sample_phase(10, seed=12)
        worst = max(worst, generator_match(entry, model.omega, pts))
        off = copy.copy(entry)
        off.tau = entry.tau + 1.0
        worst_offset = min(worst_offset, generator_match(off, model.omega, pts))
    ok = worst < 1e-9 and worst_offset > 0.999
    report(11, "charge lifts reproduce their generators; unit offset detected", ok,
           f"match {worst:.2e}; weakest offset residual {worst_offset:.3f}")


def test_criterion_12_components_quantisable(catalog_models):
    worst_f0 = 0.0
    count = 0
    for model, entry in _all_catalog_entries(catalog_models):
        pts_e = model.sample_e(4, seed=13)
        sq = classify_special_quadratic(entry.charge.value, model.G,
                                        fit_tol=1e-10, validate_at=pts_e)
        for p in pts_e:
            worst_f0 = max(worst_f0, abs(value(sq.f0(p)) - entry.tau))
        count += 1
    ok = worst_f0 < 1e-12
    report(12, f"all {count} momentum-map components are quadratic with the "
               "generator's time scale", ok, f"time-scale error {worst_f0:.2e}")


def test_criterion_13_lift_homomorphism():
    model = load_model("free3d")
    pts = model.sample_phase(50, seed=14)
    charges = list(named_charges(model, check_points=pts[:10]).values())
    worst = 0.0
    for i, f in enumerate(charges):
        for g in charges[i + 1 :]:
            for tau in (0.0, 1.0):
                for sigma in (0.0, 1.0):
                    hf = tau_lift(f.value, tau, model.omega)
                    hg = tau_lift(g.value, sigma, model.omega)
                    pb = pair_bracket((f.value, tau), (g.value, sigma), model.omega)[0]
                    for p in pts:
                        comm = vector_commutator(hf, hg, p)
                        lifted = tau_lift_values(pb, 0.0, model.omega, p)
                        worst = max(worst, max(
                            abs(value(a) - value(b)) for a, b in zip(comm, lifted)
                        ))
    ok = worst < 1e-6
    report(13, "lift commutators equal the lifted bracket over all charge "
               "pairs and time scales", ok, f"max defect {worst:.2e}")


def test_criterion_14_special_bracket_algebra():
    model = load_model("free3d")
    om = model.omega
    charges = list(named_charges(model).values())
    pts = model.sample_phase(3, seed=15)
    pts_e = model.sample_e(2, seed=15)
    closure_ok = True
    for i, f in enumerate(charges):
        for g in charges[i + 1 :]:
            sq = special_bracket(f, g, om)
            try:
                for x in pts_e:
                    sq.validate(x)
            except Exception:
                closure_ok = False
    worst = 0.0
    rng = random.Random(16)
    triples = set()
    while len(triples) < 10:
        triples.add(tuple(sorted(rng.sample(range(len(charges)), 3))))
    for (i, j, k) in triples:
        f, g, h = charges[i], charges[j], charges[k]
        t1 = special_bracket(special_bracket(f, g, om), h, om, classify=False)
        t2 = special_bracket(special_bracket(g, h, om), f, om, classify=False)
        t3 = special_bracket(special_bracket(h, f, om), g, om, classify=False)
        for p in pts:
            worst = max(worst, abs(value(t1(p)) + value(t2(p)) + value(t3(p))))
    ok = closure_ok and worst < 1e-8
    report(14, "bracket of quadratic charges closes and satisfies Jacobi", ok,
           f"closure {closure_ok}; Jacobi defect {worst:.2e}")


def test_criterion_15_determinism(tmp_path):
    jobs = [
        ["check-symmetry", "--model", "free3d", "--field", "rotations", "--points", "8"],
        ["check-symmetry", "--model", "cyclotron", "--field", "x1^2 d1", "--points", "6"],
        ["noether", "--model", "rigidbody", "--field", "rotations", "--points", "6"],
        ["momentum-map", "--model", "free2d", "--action", "translations", "--points", "6"],
        ["brackets", "--model", "free2d", "--points", "6"],
        ["derive", "--model", "cyclotron", "--point", "0,0.1,0.2,0.3,1,0,0"],
    ]
    names = ["check-symmetry.json", "check-symmetry.json", "noether.json",
             "momentum-map.json", "brackets.json", "derive.json"]
    import contextlib
    import io

    blobs = [[], []]
    for run in (0, 1):
        for j, job in enumerate(jobs):
            out = tmp_path / f"run{run}-{j}"
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(job + ["--seed", "7", "--out", str(out)])
            blobs[run].append((out / names[j]).read_bytes())
    ok = all(a == b for a, b in zip(blobs[0], blobs[1]))
    report(15, "full command suite is byte-identical across runs", ok,
           f"{len(jobs)} reports compared")

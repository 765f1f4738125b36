"""Per-point cost of each layer, by direct untraced calls at sample points.

Each kernel is called at a cycle of seeded sample points until a time
budget is spent (and at least once per point); the reported figure is the
median wall time of one call, in microseconds.  The generator for the Lie
families is the model's first rotation generator, or ``x1 d2 - x2 d1``
when the model declares no rotations; the two phase functions for the
tau-lift and the lift commutator are the Noether charges of that generator
and of time translation.
"""

import statistics
import time

# ROADMAP baseline per point, in ms, as (rigidbody, free3d).  None: no
# baseline figure.
BASELINE_MS = {
    "geometry.gamma00_us_per_pt": (0.47, 0.02),
    "geometry.omega_matrix_us_per_pt": (0.65, 0.04),
    "symmetry.lie_spacetime_connection_us_per_pt": (75.0, 0.37),
    "symmetry.lie_phase_connection_us_per_pt": (88.0, 0.15),
    "symmetry.lie_dynamical_us_per_pt": (11.6, 0.29),
    "symmetry.lie_two_form_us_per_pt": (31.0, 2.5),
    "symmetry.lie_euler_lagrange_us_per_pt": (15.0, 0.5),
    "symmetry.lie_one_form_us_per_pt": (4.1, 0.5),
    "symmetry.tau_lift_us_per_pt": (None, 0.28),
    "symmetry.vector_commutator_us_per_pt": (None, 12.0),
}

LIE_FAMILIES = ("spacetime_connection", "phase_connection", "dynamical", "metric",
                "two_form", "euler_lagrange", "one_form", "lagrangian")

KERNEL_METRICS = (
    ["fields.eval_us_per_pt", "fields.partial1_us_per_pt", "fields.partial2_us_per_pt",
     "geometry.metric_inv_us_per_pt", "geometry.gamma00_us_per_pt",
     "geometry.omega_matrix_us_per_pt"]
    + [f"symmetry.lie_{f}_us_per_pt" for f in LIE_FAMILIES]
    + ["symmetry.tau_lift_us_per_pt", "symmetry.vector_commutator_us_per_pt",
       "dynamics.rk4_step_us"]
)

RK4_STEPS = 20


def _median_us(fn, points, budget_s):
    times = []
    spent = 0.0
    k = 0
    while k < len(points) or spent < budget_s:
        p = points[k % len(points)]
        t0 = time.perf_counter()
        fn(p)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        k += 1
    return statistics.median(times) * 1e6


def kernel_table(model, seed, points=3, budget_s=0.3):
    """{metric name: microseconds per point} for one loaded model."""
    from galimech import dynamics, geometry, symmetry
    from galimech.cli import resolve_generators
    from galimech.fields import ZERO

    n = model.chart.n
    G, omega, dyn = model.G, model.omega, model.dyn
    pts_e = model.sample_e(points, seed)
    pts_ph = model.sample_phase(points, seed)
    pts_te = model.sample_te(points, seed)
    pts_j2 = model.sample_j2(points, seed)
    entries = [G.entry(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    if "rotations" in model.actions:
        X = model.actions["rotations"].generators[0]
    else:
        X = resolve_generators(model, "x1 d2 - x2 d1")[0][0]
    clock = symmetry.SpacetimeVectorField(model.chart, 1.0, [ZERO] * n)
    f, _, _ = symmetry.noether_charge(X, model.theta)
    g, _, _ = symmetry.noether_charge(clock, model.theta)
    lag, _ = geometry.lagrangian_and_momentum(model.theta)

    def vec(p):
        return X.prolong1_values(p)

    def hf(p):
        return symmetry.tau_lift_values(f.value, X.x0, omega, p)

    def hg(p):
        return symmetry.tau_lift_values(g.value, 1.0, omega, p)

    lk = symmetry.lie_spacetime_connection(X, model.K)
    lg = symmetry.lie_phase_connection(X, model.pconn)
    ld = symmetry.lie_dynamical(X, dyn)
    lm = symmetry.lie_metric(X, G)
    ll = symmetry.lie_lagrangian(X, lag)
    e_slots = range(n + 1)
    kernels = {
        "fields.eval_us_per_pt": (lambda p: [f_(p) for f_ in entries], pts_e),
        "fields.partial1_us_per_pt": (
            lambda p: [f_.partial((i,), p) for f_ in entries for i in e_slots], pts_e),
        "fields.partial2_us_per_pt": (
            lambda p: [f_.partial((i, j), p) for f_ in entries for i in e_slots
                       for j in e_slots if i <= j], pts_e),
        "geometry.metric_inv_us_per_pt": (G.inv, pts_e),
        "geometry.gamma00_us_per_pt": (dyn.gamma00_values, pts_ph),
        "geometry.omega_matrix_us_per_pt": (omega.matrix, pts_ph),
        "symmetry.lie_spacetime_connection_us_per_pt": (lk, pts_te),
        "symmetry.lie_phase_connection_us_per_pt": (lg, pts_ph),
        "symmetry.lie_dynamical_us_per_pt": (ld, pts_ph),
        "symmetry.lie_metric_us_per_pt": (lm, pts_e),
        "symmetry.lie_two_form_us_per_pt": (
            lambda p: symmetry.lie_two_form(vec, omega.matrix, p), pts_ph),
        "symmetry.lie_euler_lagrange_us_per_pt": (
            lambda p: symmetry.lie_euler_lagrange(X, G, dyn, p), pts_j2),
        "symmetry.lie_one_form_us_per_pt": (
            lambda p: symmetry.lie_one_form(vec, model.theta.components, p), pts_ph),
        "symmetry.lie_lagrangian_us_per_pt": (ll, pts_ph),
        "symmetry.tau_lift_us_per_pt": (hf, pts_ph),
        "symmetry.vector_commutator_us_per_pt": (
            lambda p: symmetry.vector_commutator(hf, hg, p), pts_ph),
        "dynamics.rk4_step_us": (
            lambda p: dynamics.integrate(dyn, p, RK4_STEPS * 1e-3, 1e-3), pts_ph),
    }
    out = {name: _median_us(fn, pts, budget_s) for name, (fn, pts) in kernels.items()}
    out["dynamics.rk4_step_us"] /= RK4_STEPS
    return out


def baseline_notes(table, model_name):
    """Lines comparing a kernel table with the ROADMAP baseline (+-20%)."""
    col = {"rigidbody": 0, "free3d": 1}.get(model_name)
    lines = []
    for name, pair in BASELINE_MS.items():
        base = pair[col] if col is not None else None
        got_ms = table[name] / 1000.0
        if base is None:
            lines.append(f"{name}: {got_ms:.4g} ms/pt (no baseline)")
            continue
        ratio = got_ms / base
        flag = "" if 0.8 <= ratio <= 1.2 else "  <-- outside +-20%"
        lines.append(f"{name}: {got_ms:.4g} ms/pt vs baseline {base} ms ({ratio:.2f}x){flag}")
    return lines

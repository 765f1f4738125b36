"""Shared helpers for the test suite: random connections and models, a
metric connection given by explicit coefficient fields, a deliberately
non-metric two-form, a strategy for config field specs, and the structure
checks only the tests read (metric compatibility, the observed two-form and
its closure, the Euler-Lagrange matrix, the zero connection), the raised
forms of the two-form, the motion row and the lift operator that the
lowered forms must reproduce, the per-pair product-rule form of the
bracket defects that ``symmetry.pair_defects`` must reproduce, and the
numpy form of the RK4 loop that ``dynamics.integrate`` must reproduce, the
models with a potential form that closed forms are checked on, and the drift of a phase function along
a trajectory and the empirical order of the integrator."""

import math
import random

import numpy as np

from hypothesis import strategies as st

from galimech import duals
from galimech.catalog import Model, catalog_names, load_model, model_from_config
from galimech.fields import Chart, Field, ZERO, constant, coordinate, polynomial, program
from galimech.dynamics import IntegrationError, StepError, integrate, law_of_motion_rhs
from galimech.geometry import (
    Metric,
    PhaseTwoForm,
    SpacetimeConnection,
    _sym_key,
    identity_metric,
    lift_of,
    metric_record,
    motion_of,
    phase_from_spacetime,
)
from galimech.symmetry import _along, apply_lift, commutator, gamma_dot


def random_connection(chart, rng):
    """Symmetric random polynomial coefficient set for a spacetime
    connection."""
    n = chart.n
    sym = {}
    for lam in range(0, n + 1):
        for mu in range(lam, n + 1):
            fields = []
            for _ in range(n):
                terms = [(rng.uniform(-1, 1), {})]
                terms.append((rng.uniform(-1, 1), {rng.randrange(0, n + 1): 1}))
                fields.append(polynomial(terms))
            sym[(lam, mu)] = fields
    return SpacetimeConnection(chart, sym)


def explicit_connection(G, phi2=None, time_gauge=None):
    """Metric connection of G given by explicit coefficient fields, each a
    bare callable that lowers from ``G.jet`` and raises with ``G.inv`` at
    the point.  The gauge part is given by fields too: ``phi2``
    ({(a, b): field} for a < b) is the antisymmetric part of the lowered
    time-space blocks, and ``time_gauge`` (n fields, raised) is the
    time-time block; both default to zero."""
    n = G.chart.n
    phi2 = phi2 or {}

    def lowered(lam, mu, h, xs):
        dg = G.jet(xs)[1]
        if lam:
            return -0.5 * (dg[lam][h - 1][mu - 1] + dg[mu][h - 1][lam - 1] - dg[h][lam - 1][mu - 1])
        v = -0.5 * dg[0][h - 1][mu - 1]
        key = (min(h, mu), max(h, mu))
        if h != mu and key in phi2:
            v = v + (0.5 if h < mu else -0.5) * phi2[key](xs)
        return v

    def coefficient(lam, mu, i):
        def fn(xs):
            ginv = G.inv(xs)
            return sum(ginv[i][h - 1] * lowered(lam, mu, h, xs) for h in range(1, n + 1))

        return Field(fn)

    sym = {(lam, mu): [coefficient(lam, mu, i) for i in range(n)]
           for lam in range(n + 1) for mu in range(max(lam, 1), n + 1)}
    sym[(0, 0)] = list(time_gauge or [ZERO] * n)
    return SpacetimeConnection(G.chart, sym)


def random_compatible_model(seed, n=3):
    """Randomized metric + gauge model; closed by construction since every
    derived piece comes from potentials."""
    rng = random.Random(seed)
    chart = Chart(n)

    def small_poly():
        terms = [(rng.uniform(-0.12, 0.12), {})]
        for slot in range(0, n + 1):
            terms.append((rng.uniform(-0.12, 0.12), {slot: 1}))
        terms.append((rng.uniform(-0.08, 0.08), {rng.randrange(0, n + 1): 2}))
        return polynomial(terms)

    entries = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            base = 2.0 if a == b else 0.0
            entries[(a, b)] = constant(base) + small_poly()
    A = [small_poly() for _ in range(n + 1)]
    return Model(f"random-{seed}", chart, Metric(chart, entries), A=A)


def generated_config(n, seed=0):
    """A JSON config as a generator writes one: a polynomial metric near 2I
    and a polynomial gauge potential, each polynomial a constant, the n+1
    linear terms and one square in a random slot."""
    rng = random.Random(seed)

    def poly(base):
        terms = [[base + rng.uniform(-0.12, 0.12), []]]
        terms += [[rng.uniform(-0.12, 0.12), [slot, 1]] for slot in range(n + 1)]
        terms.append([rng.uniform(-0.08, 0.08), [rng.randrange(n + 1), 2]])
        return {"kind": "polynomial", "coeffs": terms}

    return {
        "name": f"generated-n{n}",
        "n": n,
        "metric": {"entries": {f"{a},{b}": poly(2.0 if a == b else 0.0)
                               for a in range(1, n + 1) for b in range(a, n + 1)}},
        "potential": [poly(0.0) for _ in range(n + 1)],
    }


def generated_model(n, seed=0):
    """The model of :func:`generated_config`."""
    return model_from_config(generated_config(n, seed))


# models with a potential form: the catalog's, random ones and generated configs
POTENTIAL_MODELS = [*catalog_names(), *(f"random-{s}" for s in range(4)),
                    *(f"config-n{n}" for n in (2, 3, 4))]


def potential_model(name):
    """The model of a :data:`POTENTIAL_MODELS` name."""
    if name.startswith("random-"):
        return random_compatible_model(int(name[len("random-"):]))
    if name.startswith("config-n"):
        return generated_model(int(name[len("config-n"):]))
    return load_model(name)


def nonmetric_two_form():
    """Deliberately broken: the two-form of the Euclidean metric and a
    connection that is not compatible with it."""
    chart = Chart(3)
    K = metric_record(identity_metric(chart), {(1, 1): [coordinate(1), ZERO, ZERO]})
    return PhaseTwoForm(phase_from_spacetime(K))


# -- field specs as a config writes them ---------------------------------------------

COEFFICIENTS = st.floats(-1.5, 1.5)


def field_specs(slots):
    """Strategy for :func:`galimech.fields.from_config` specs reading chart
    slots drawn from ``slots``: constants, coordinates and polynomials
    (negative powers included), with exp at the leaves, combined by sin, cos,
    sum, product, scale and pow."""
    leaf = st.one_of(
        COEFFICIENTS.map(lambda c: {"kind": "constant", "value": c}),
        slots.map(lambda k: {"kind": "coord", "index": k}),
        st.lists(
            st.tuples(COEFFICIENTS, st.lists(st.tuples(slots, st.integers(-1, 3)), max_size=3)),
            min_size=1, max_size=3,
        ).map(lambda terms: {"kind": "polynomial",
                             "coeffs": [[c, [x for pair in e for x in pair]] for c, e in terms]}),
    )
    bounded_leaf = st.one_of(leaf, leaf.map(lambda f: {"kind": "exp", "of": f}))

    def extend(children):
        return st.one_of(
            st.builds(lambda k, f: {"kind": k, "of": f}, st.sampled_from(["sin", "cos"]),
                      children),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: {"kind": "sum", "terms": ts}),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: {"kind": "product", "factors": ts}),
            st.builds(lambda c, f: {"kind": "scale", "by": c, "of": f}, COEFFICIENTS, children),
            st.builds(lambda e, f: {"kind": "pow", "of": f, "exp": e}, st.integers(0, 3),
                      children),
        )

    return st.recursive(bounded_leaf, extend, max_leaves=6)


# -- structure checks only the tests read --------------------------------------


def zero_connection(chart):
    return SpacetimeConnection(chart, {})


def euler_lagrange_matrix(G, dyn, p, accel):
    """Horizontal two-form of the motion residual at second-order data."""
    n = G.chart.n
    m = [[0.0] * (n + 1) for _ in range(n + 1)]
    for b, s in enumerate(motion_of(dyn.lowered(p), p[n + 1 : 2 * n + 1], accel)):
        m[0][1 + b] = s
        m[1 + b][0] = -s
    return m


def observed_two_form(omega, observer, xs_e):
    """Component matrix of the observed spacetime 2-form (twice the observer
    pullback of the phase 2-form; the doubling cancels against the
    antisymmetric-pair count, so for a flat model with a pure field the
    matrix reproduces the coupled field entries)."""
    chart = omega.chart
    n = chart.n
    phase_pt = observer.phase_point(xs_e)
    m = omega.matrix(phase_pt)
    # tangent map of the section: d(o^i)/dx^lam fills the velocity rows
    do = [
        [observer.comps[i].partial((lam,), xs_e) for lam in range(0, n + 1)]
        for i in range(n)
    ]
    out = [[0.0] * (n + 1) for _ in range(n + 1)]
    for lam in range(0, n + 1):
        for mu in range(0, n + 1):
            s = m[lam][mu]
            for i in range(n):
                s = s + do[i][mu] * m[lam][n + 1 + i]
                s = s + do[i][lam] * m[n + 1 + i][mu]
                for j in range(n):
                    s = s + do[i][lam] * do[j][mu] * m[n + 1 + i][n + 1 + j]
            out[lam][mu] = s
    return out


def metric_compat_residual(K, G, xs):
    """Covariant-constancy defect of the metric under the vertical
    restriction of a spacetime connection."""
    n = G.chart.n
    kv = K.values(xs)
    gm, dg = G.jet(xs)

    def kval(lam, i, mu):
        return kv[_sym_key(lam, mu)][i - 1]

    worst = 0.0
    for lam in range(0, n + 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                r = dg[lam][a - 1][b - 1]
                for k in range(1, n + 1):
                    r = r + kval(lam, k, a) * gm[k - 1][b - 1]
                    r = r + kval(lam, k, b) * gm[a - 1][k - 1]
                worst = max(worst, abs(duals.value(r)))
    return worst


def dphi_residual(omega, observer, xs_e):
    """Closure defect of the observed 2-form at a spacetime point."""
    n = omega.chart.n

    def comp(xs):
        return observed_two_form(omega, observer, xs)

    dm = duals.grad(comp, list(xs_e))
    worst = 0.0
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                r = dm[a][b][c] + dm[b][c][a] + dm[c][a][b]
                worst = max(worst, abs(duals.value(r)))
    return worst


# -- the raised forms --------------------------------------------------------------


def raised_two_form(omega, xs):
    """Omega assembled from ``G.mat`` and the raised lift coefficients gl,
    lowering each product by G: G_ak gl^k for the spatial and time rows."""
    n = omega.chart.n
    v = xs[n + 1 : 2 * n + 1]
    gm = omega.G.mat(xs)
    gl = omega.conn.lift_values(xs)
    dim = 2 * n + 1
    m = [[0.0] * dim for _ in range(dim)]
    gv = [sum(gm[a][b] * v[b] for b in range(n)) for a in range(n)]
    for a in range(n):
        for b in range(n):
            m[n + 1 + a][1 + b] = gm[a][b]
            m[1 + b][n + 1 + a] = -gm[a][b]
        m[n + 1 + a][0] = -gv[a]
        m[0][n + 1 + a] = gv[a]
    for a in range(n):
        for b in range(n):
            m[1 + a][1 + b] = sum(gm[a][k] * gl[k][1 + b] - gm[b][k] * gl[k][1 + a]
                                  for k in range(n))
    for b in range(n):
        s = -sum(gm[k][b] * gl[k][0] for k in range(n))
        s = s - sum(gv[k] * gl[k][1 + b] for k in range(n))
        m[0][1 + b] = s
        m[1 + b][0] = -s
    return m


def raised_motion_row(dyn, xs, accel):
    """G_ab (accel^a - gamma^a) from ``G.mat`` and the acceleration program."""
    n = dyn.chart.n
    gm, g00 = dyn.G.mat(xs), dyn.gamma00_values(xs)
    return [sum(gm[a][b] * (accel[a] - g00[a]) for a in range(n)) for b in range(n)]


def program_lift_operator(omega):
    """The lift operator (u, Lam) with the ``sym`` blocks and G^-1 evaluated
    by one program of the connection's fields and the metric's inverse node."""
    n, dim = omega.chart.n, 2 * omega.chart.n + 1
    blocks = program({**omega.conn.sym, "G^-1": [omega.G.inv_node]})

    def op(xs):
        kv = blocks(xs)
        ginv = kv["G^-1"][0]
        v = xs[n + 1 : 2 * n + 1]
        gl = lift_of(kv, v)
        b = [[_along(ginv[h], gl[k][1:]) for k in range(n)] for h in range(n)]
        lam = [[0.0] * dim for _ in range(dim)]
        for h in range(n):
            for k in range(n):
                lam[1 + h][n + 1 + k], lam[n + 1 + k][1 + h] = -ginv[h][k], ginv[h][k]
                lam[n + 1 + h][n + 1 + k] = b[h][k] - b[k][h]
        return [1.0, *v, *(g[0] + _along(g[1:], v) for g in gl)], lam

    return op


def lift_jet(opjet, djet, tau):
    """Jet of the lift tau u + Lam.df from the jets of ``lift_operator``
    and of df, by the product rule:
    d_k(tau u + Lam.df) = tau d_k u + (d_k Lam).df + Lam.(d_k df)."""
    (op, dop), (df, ddf) = opjet, djet
    return apply_lift(op, df, tau), [
        [a + _along(row, dd) for a, row in zip(apply_lift(dk, df, tau), op[1])]
        for dk, dd in zip(dop, ddf)]


def bracket_jet(hjet, gjet):
    """Jet of the Poisson bracket {f, g} = dg.h_f from the jets of dg and of
    h_f = Lam.df, the zero-scale lift of f (:func:`lift_jet`), by the
    product rule: d_k{f,g} = (d_k dg).h_f + dg.(d_k h_f)."""
    (hf, dhf), (dg, ddg) = hjet, gjet
    return _along(dg, hf), [_along(a, hf) + _along(dg, b) for a, b in zip(ddg, dhf)]


def per_pair_defects(opjet, djets, taus, pairs):
    """``symmetry.pair_defects`` one pair at a time in plain floats: each
    charge's lift jets at zero and at its time scale, then per pair the
    commutator of the two lifts minus the zero-scale lift of the bracket's
    gradient."""
    hjets = [lift_jet(opjet, d, 0.0) for d in djets]
    lifts = [lift_jet(opjet, d, tau) for d, tau in zip(djets, taus)]
    return [[a - b for a, b in zip(commutator(lifts[i], lifts[j]), apply_lift(
        opjet[0], bracket_jet(hjets[i], djets[j])[1], 0.0))] for i, j in pairs]


def numpy_rk4(dyn, p0, T, h):
    """The RK4 loop of ``dynamics.integrate`` on numpy arrays, as it was
    before the states became lists of floats: the (t, x, v) arrays of the
    run, with the same checks and messages."""
    if h <= 0 or T <= 0:
        raise StepError("need positive horizon and step")
    n = dyn.chart.n
    if not np.isfinite(ratio := T / h):
        raise StepError(f"the step count T/h = {ratio:.3g} is not finite")
    steps = int(round(ratio))
    if steps == 0:
        raise StepError(f"the step count T/h = {ratio:.3g} rounds to 0")
    try:
        ts, xs, vs = np.empty(steps + 1), np.empty((steps + 1, n)), np.empty((steps + 1, n))
    except (MemoryError, ValueError):
        raise StepError(f"the arrays of {ratio:.3g} steps cannot be allocated") from None

    def rhs(state, k):
        s = state.tolist()
        if not all(map(math.isfinite, s)):
            raise IntegrationError(f"non-finite state at step {k}")
        try:
            return np.array([1.0, *s[n + 1 :], *law_of_motion_rhs(dyn, s)])
        except OverflowError:
            raise IntegrationError(f"the acceleration overflows at step {k}") from None

    state = np.array(p0, dtype=float)
    ts[0], xs[0], vs[0] = state[0], state[1 : n + 1], state[n + 1 :]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = rhs(state, k)
            k2 = rhs(state + 0.5 * h * k1, k)
            k3 = rhs(state + 0.5 * h * k2, k)
            k4 = rhs(state + h * k3, k)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                raise IntegrationError(f"non-finite state at step {k}")
            ts[k], xs[k], vs[k] = state[0], state[1 : n + 1], state[n + 1 :]
    return ts, xs, vs


def conserved_drift(fn, traj, dyn=None):
    """Max drift of a phase function along a trajectory, and (when the
    connection is supplied) the max of its derivative along the motion
    direction, which is integration-independent."""
    vals = [duals.value(fn(traj.phase_coords(k))) for k in range(len(traj))]
    drift = duals.worst([v - vals[0] for v in vals])
    residual = None
    if dyn is not None:
        residual = duals.worst([gamma_dot(fn, dyn, traj.phase_coords(k))
                                for k in range(0, len(traj), max(1, len(traj) // 64))])
    return drift, residual


def convergence_order(dyn, p0, T, exact_fn, hs):
    """Empirical order fit: log2 error ratios against an analytic solution.

    ``exact_fn(t)`` returns the exact (x, v) arrays at time t.
    """
    errs = []
    for h in hs:
        traj = integrate(dyn, p0, T, h)
        xe, ve = exact_fn(traj.t[-1])
        errs.append(
            max(
                np.max(np.abs(traj.x[-1] - np.asarray(xe))),
                np.max(np.abs(traj.v[-1] - np.asarray(ve))),
            )
        )
    orders = [
        np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
        for i in range(len(hs) - 1)
    ]
    return errs, orders

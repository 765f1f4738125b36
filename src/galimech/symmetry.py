"""Symmetry machinery: prolongations, Lie derivatives, conserved charges,
momentum maps, covariant Hamiltonian lifts and brackets.

Vector fields on spacetime are taken projectable with constant time
component, which is exactly the class whose Lie derivative annihilates the
time form.  Their holonomic lift to phase space adds the velocity
components d/dt X^i computed along the contact direction; the tangent lift
lives on TE.  Lie derivatives of the non-tensorial objects (metric,
connections) use the well-defined restricted expressions; every coordinate
formula here is cross-checked in the tests against a finite-flow pullback
oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from . import duals
from .duals import value, partial_multi
from .fields import Field, ZERO, as_field, constant, coordinate, support
from .geometry import SingularOmegaError, _sym_key, lagrangian_and_momentum


TOL_PASS = 1e-9
TOL_FAIL = 1e-3


class NotASymmetryError(RuntimeError):
    """A generator failed its invariance check where one is required."""


class ClassifyError(RuntimeError):
    """A phase function is not of the admissible quadratic type."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class SpacetimeVectorField:
    """Projectable vector field with constant time component."""

    def __init__(self, chart, x0, comps, label=""):
        self.chart = chart
        self.x0 = float(x0)
        self.comps = [as_field(c) for c in comps]
        self.label = label

    def values_e(self, xs):
        return [self.x0] + [c(xs) for c in self.comps]

    def hat(self, i, xs):
        """Velocity component of the holonomic lift: d/dt X^i along contact."""
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        c = self.comps[i - 1]
        s = c.partial((0,), xs)
        for k in range(1, n + 1):
            s = s + c.partial((k,), xs) * v[k - 1]
        return s

    def prolong1_values(self, xs):
        """Components of the holonomic lift on phase space."""
        n = self.chart.n
        out = [self.x0]
        out += [c(xs) for c in self.comps]
        out += [self.hat(i, xs) for i in range(1, n + 1)]
        return out

    def prolongT_values(self, te_xs):
        """Components of the tangent lift on TE, coordinates (x, xdot)."""
        n = self.chart.n
        xdot = te_xs[n + 1 : 2 * n + 2]
        out = [self.x0]
        out += [c(te_xs) for c in self.comps]
        out.append(0.0)  # time component is constant
        for i in range(1, n + 1):
            c = self.comps[i - 1]
            s = c.partial((0,), te_xs) * xdot[0]
            for k in range(1, n + 1):
                s = s + c.partial((k,), te_xs) * xdot[k]
            out.append(s)
        return out

    def prolong2_extra(self, j2_xs):
        """Acceleration components of the second holonomic lift, at second
        order data (x, v, a) laid out as 3n+1 coordinates."""
        n = self.chart.n
        v = j2_xs[n + 1 : 2 * n + 1]
        acc = j2_xs[2 * n + 1 : 3 * n + 1]
        out = []
        for i in range(1, n + 1):
            c = self.comps[i - 1]
            s = c.partial((0, 0), j2_xs)
            for k in range(1, n + 1):
                s = s + 2.0 * c.partial((0, k), j2_xs) * v[k - 1]
                s = s + c.partial((k,), j2_xs) * acc[k - 1]
                for l in range(1, n + 1):
                    s = s + c.partial((k, l), j2_xs) * v[k - 1] * v[l - 1]
            out.append(s)
        return out


def spacetime_commutator(X, Y):
    """Bracket of two projectable fields (time components are constant)."""
    chart = X.chart

    def comp(i):
        def fn(xs):
            s = X.x0 * Y.comps[i - 1].partial((0,), xs) - Y.x0 * X.comps[i - 1].partial((0,), xs)
            for k in range(1, chart.n + 1):
                s = s + X.comps[k - 1](xs) * Y.comps[i - 1].partial((k,), xs)
                s = s - Y.comps[k - 1](xs) * X.comps[i - 1].partial((k,), xs)
            return s

        return Field(fn)

    return SpacetimeVectorField(chart, 0.0, [comp(i) for i in range(1, chart.n + 1)])


def lie_dt(chart, raw_comps):
    """Components of the Lie derivative of the time form for an
    unconstrained vector field; used to classify raw fields."""
    x0 = as_field(raw_comps[0])

    def comp(lam):
        return Field(lambda xs, l=lam: x0.partial((l,), xs))

    return [comp(lam) for lam in range(0, chart.n + 1)]


def classify_spacetime(chart, raw_comps, points, tol=TOL_PASS):
    """Classify a raw (n+1)-component field; returns (field_or_None, residual)."""
    comps = [as_field(c) for c in raw_comps]
    ld = lie_dt(chart, comps)
    worst = 0.0
    for xs in points:
        worst = max(worst, max(abs(value(c(xs))) for c in ld))
    if worst > tol:
        return None, worst
    x0 = value(comps[0](points[0]))
    return SpacetimeVectorField(chart, x0, comps[1:]), worst


# -- Lie derivatives by coordinate formula ---------------------------------


def lie_metric(X, G):
    """Vertical-restricted Lie derivative of the metric; returns a function
    of a spacetime point giving the symmetric n x n matrix."""
    chart = G.chart
    n = chart.n

    def at(xs):
        out = [[0.0] * n for _ in range(n)]
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                g = G.entry(a, b)
                s = X.x0 * g.partial((0,), xs)
                for lam in range(1, n + 1):
                    s = s + X.comps[lam - 1](xs) * g.partial((lam,), xs)
                for k in range(1, n + 1):
                    s = s + G.entry(k, b)(xs) * X.comps[k - 1].partial((a,), xs)
                    s = s + G.entry(a, k)(xs) * X.comps[k - 1].partial((b,), xs)
                out[a - 1][b - 1] = s
                out[b - 1][a - 1] = s
        return out

    return at


def lie_phase_connection(X, pconn):
    """Lie derivative of the phase connection along the holonomic lift;
    returns a function of a phase point giving rows over d^mu and
    components i (an (n+1) x n array)."""
    chart = pconn.chart
    n = chart.n

    def at(xs):
        v = xs[n + 1 : 2 * n + 1]
        kv = pconn.blocks(xs)
        gl = pconn.lift_values(xs)
        # dgl[lam][i][mu]: derivative along x^lam of the lift coefficient
        # (mu, i) at fixed velocity; zero outside the connection's support
        flat = [[0.0] * (n + 1) for _ in range(n)]
        dgl = [partial_multi(pconn.lift_values, xs, lam) if duals.reads(pconn.blocks, lam)
               else flat for lam in range(n + 1)]
        xhat = [X.hat(i, xs) for i in range(1, n + 1)]
        out = []
        for mu in range(0, n + 1):
            row = []
            for i in range(1, n + 1):
                ci = X.comps[i - 1]
                # d_mu of the lift velocity component
                s = ci.partial((0, mu), xs)
                for k in range(1, n + 1):
                    s = s + ci.partial((k, mu), xs) * v[k - 1]
                for lam in range(1, n + 1):
                    s = s - gl[i - 1][lam] * X.comps[lam - 1].partial((mu,), xs)
                s = s - X.x0 * dgl[0][i - 1][mu]
                for lam in range(1, n + 1):
                    s = s - X.comps[lam - 1](xs) * dgl[lam][i - 1][mu]
                for k in range(1, n + 1):
                    s = s - xhat[k - 1] * kv[_sym_key(mu, k)][i - 1]
                    s = s + gl[k - 1][mu] * X.comps[i - 1].partial((k,), xs)
                row.append(s)
            out.append(row)
        return out

    return at


def lie_dynamical(X, dyn):
    """Lie derivative of the second-order connection along the holonomic
    lift (equivalently the bracket with the associated vector field);
    returns a function of a phase point giving the n components."""
    chart = dyn.chart
    n = chart.n

    def at(xs):
        v = xs[n + 1 : 2 * n + 1]
        g00 = dyn.gamma00_values(xs)
        # spacetime directions outside the connection's support give zeros
        dg = [partial_multi(dyn.gamma00_values, xs, d) if d > n or duals.reads(dyn.blocks, d)
              else [0.0] * n for d in range(2 * n + 1)]
        xhat = [X.hat(i, xs) for i in range(1, n + 1)]
        out = []
        for i in range(1, n + 1):
            ci = X.comps[i - 1]
            s = X.x0 * dg[0][i - 1]
            for lam in range(1, n + 1):
                s = s + X.comps[lam - 1](xs) * dg[lam][i - 1]
            for k in range(1, n + 1):
                s = s + xhat[k - 1] * dg[n + k][i - 1]
                s = s - g00[k - 1] * ci.partial((k,), xs)
            # total second derivative of X^i along the contact direction
            d2 = ci.partial((0, 0), xs)
            for k in range(1, n + 1):
                d2 = d2 + 2.0 * ci.partial((0, k), xs) * v[k - 1]
                for l in range(1, n + 1):
                    d2 = d2 + ci.partial((k, l), xs) * v[k - 1] * v[l - 1]
            out.append(s - d2)
        return out

    return at


def lie_spacetime_connection(X, K):
    """Lie derivative of the spacetime connection along the tangent lift;
    returns a function of a TE point (x, xdot) giving rows over d^lam and
    components i."""
    chart = K.chart
    n = chart.n

    def at(te):
        xdot = te[n + 1 : 2 * n + 2]
        kv = K.values(te)
        # dkv[al]: every coefficient block differentiated along x^al (zero off the support)
        flat = {key: [0.0] * n for key in kv}
        dkv = [partial_multi(K.values, te, al) if duals.reads(K.blocks, al) else flat
               for al in range(n + 1)]

        def kentry(lam, i, mu):
            return kv[_sym_key(lam, mu)][i - 1]

        dx = [[X.comps[j - 1].partial((lam,), te) for lam in range(0, n + 1)] for j in range(1, n + 1)]
        out = []
        for lam in range(0, n + 1):
            row = []
            for i in range(1, n + 1):
                s = 0.0
                for nu in range(0, n + 1):
                    key = _sym_key(lam, nu)
                    t = X.x0 * dkv[0][key][i - 1]
                    for al in range(1, n + 1):
                        t = t + X.comps[al - 1](te) * dkv[al][key][i - 1]
                    s = s + t * xdot[nu]
                for j in range(1, n + 1):
                    for rho in range(0, n + 1):
                        s = s + kentry(lam, i, j) * dx[j - 1][rho] * xdot[rho]
                    for nu in range(0, n + 1):
                        s = s - kentry(lam, j, nu) * xdot[nu] * dx[i - 1][j]
                for mu in range(1, n + 1):
                    for nu in range(0, n + 1):
                        s = s + kentry(mu, i, nu) * xdot[nu] * dx[mu - 1][lam]
                ci = X.comps[i - 1]
                s = s - ci.partial((lam, 0), te) * xdot[0]
                for nu in range(1, n + 1):
                    s = s - ci.partial((lam, nu), te) * xdot[nu]
                row.append(s)
            out.append(row)
        return out

    return at


def lie_lagrangian(X, lag):
    """Directional derivative of the Lagrangian density along the holonomic
    lift; vanishing is the Lagrangian form of invariance."""
    n = lag.chart.n

    def at(xs):
        s = X.x0 * duals.partial(lag.value, xs, 0)
        for a in range(1, n + 1):
            s = s + X.comps[a - 1](xs) * duals.partial(lag.value, xs, a)
        for k in range(1, n + 1):
            s = s + X.hat(k, xs) * duals.partial(lag.value, xs, n + k)
        return s

    return at


# -- Cartan-formula Lie derivative of forms --------------------------------


def lie_one_form(vec_fn, comp_fn, xs):
    """Cartan formula for a one-form given by its component list."""
    dim = len(xs)
    y = vec_fn(xs)
    dcomp = [partial_multi(comp_fn, xs, d) for d in range(dim)]

    def contraction(p):
        yy = vec_fn(p)
        cc = comp_fn(p)
        return sum(yy[a] * cc[a] for a in range(dim))

    grad_c = [duals.partial(contraction, xs, d) for d in range(dim)]
    out = []
    for b in range(dim):
        s = grad_c[b]
        for a in range(dim):
            s = s + y[a] * (dcomp[a][b] - dcomp[b][a])
        out.append(s)
    return out


def lie_two_form(vec_fn, mat_fn, xs):
    """Cartan formula for a two-form given by its evaluation matrix."""
    dim = len(xs)
    y = vec_fn(xs)
    dm = [partial_multi(mat_fn, xs, d) for d in range(dim)]

    def eta(p):
        yy = vec_fn(p)
        mm = mat_fn(p)
        return [sum(yy[a] * mm[a][b] for a in range(dim)) for b in range(dim)]

    deta = [partial_multi(eta, xs, d) for d in range(dim)]
    out = [[0.0] * dim for _ in range(dim)]
    for b in range(dim):
        for c in range(b + 1, dim):
            s = deta[b][c] - deta[c][b]
            for a in range(dim):
                s = s + y[a] * (dm[a][b][c] + dm[b][c][a] + dm[c][a][b])
            out[b][c] = s
            out[c][b] = -s
    return out


def lie_euler_lagrange(X, G, dyn, j2_xs):
    """Lie derivative of the motion two-form along the second holonomic
    lift, evaluated at second-order data (x, v, a)."""
    chart = G.chart
    n = chart.n

    def e_row(j2):
        xs = j2[: 2 * n + 1]
        gm = G.mat(j2)
        g00 = dyn.gamma00_values(xs)
        acc = j2[2 * n + 1 : 3 * n + 1]
        return [
            sum(gm[a][b] * (acc[a] - g00[a]) for a in range(n)) for b in range(n)
        ]

    e0 = e_row(j2_xs)
    xhat = [X.hat(i, j2_xs) for i in range(1, n + 1)]
    xacc = X.prolong2_extra(j2_xs)
    # directional derivative along the second lift
    d_e = [partial_multi(e_row, j2_xs, d) for d in range(3 * n + 1)]
    out = []
    for j in range(n):
        s = X.x0 * d_e[0][j]
        for k in range(1, n + 1):
            s = s + X.comps[k - 1](j2_xs) * d_e[k][j]
            s = s + xhat[k - 1] * d_e[n + k][j]
            s = s + xacc[k - 1] * d_e[2 * n + k][j]
            s = s + e0[k - 1] * X.comps[k - 1].partial((j + 1,), j2_xs)
        out.append(s)
    return out


# -- finite-flow oracles ----------------------------------------------------


def taylor_flow(vec_fn, xs, s):
    """Second-order Taylor flow of a vector field; exact enough for
    difference-quotient Lie derivatives at small s."""
    v = vec_fn(xs)
    dim = len(xs)
    dv = [partial_multi(vec_fn, xs, d) for d in range(dim)]
    w = [sum(dv[b][a] * v[b] for b in range(dim)) for a in range(dim)]
    return [xs[a] + s * v[a] + 0.5 * s * s * w[a] for a in range(dim)]


def flow_jacobian(vec_fn, xs, s):
    dim = len(xs)

    def w_fn(p):
        v = vec_fn(p)
        dv = [partial_multi(vec_fn, p, d) for d in range(dim)]
        return [sum(dv[b][a] * v[b] for b in range(dim)) for a in range(dim)]

    dv = [partial_multi(vec_fn, xs, d) for d in range(dim)]
    dw = [partial_multi(w_fn, xs, d) for d in range(dim)]
    jac = [
        [
            (1.0 if a == b else 0.0) + s * value(dv[b][a]) + 0.5 * s * s * value(dw[b][a])
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    return jac


def _pullback_cov(tensor_fn, rank, vec_fn, xs, s):
    q = [value(c) for c in taylor_flow(vec_fn, xs, s)]
    jac = flow_jacobian(vec_fn, xs, s)
    t = tensor_fn(q)
    dim = len(xs)
    if rank == 1:
        return [sum(jac[c][b] * value(t[c]) for c in range(dim)) for b in range(dim)]
    out = [[0.0] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            out[a][b] = sum(
                jac[c][a] * jac[d][b] * value(t[c][d]) for c in range(dim) for d in range(dim)
            )
    return out


def lie_flow_cov(tensor_fn, rank, vec_fn, xs, s):
    """Difference-quotient Lie derivative of a covariant tensor."""
    plus = _pullback_cov(tensor_fn, rank, vec_fn, xs, s)
    minus = _pullback_cov(tensor_fn, rank, vec_fn, xs, -s)
    if rank == 1:
        return [(p - m) / (2 * s) for p, m in zip(plus, minus)]
    return [
        [(plus[a][b] - minus[a][b]) / (2 * s) for b in range(len(xs))]
        for a in range(len(xs))
    ]


def lie_flow_mixed(tensor_fn, vec_fn, xs, s):
    """Difference-quotient Lie derivative of a (1,1) tensor."""
    dim = len(xs)

    def pb(sgn):
        q = [value(c) for c in taylor_flow(vec_fn, xs, sgn)]
        jac = np.array(flow_jacobian(vec_fn, xs, sgn))
        jinv = np.linalg.inv(jac)
        t = np.array([[value(v) for v in row] for row in tensor_fn(q)])
        return jinv @ t @ jac

    return (pb(s) - pb(-s)) / (2 * s)


def lie_flow_vector(field_fn, vec_fn, xs, s):
    """Difference-quotient Lie derivative of a vector field (the bracket)."""
    dim = len(xs)

    def pb(sgn):
        q = [value(c) for c in taylor_flow(vec_fn, xs, sgn)]
        jac = np.array(flow_jacobian(vec_fn, xs, sgn))
        y = np.array([value(c) for c in field_fn(q)])
        return np.linalg.solve(jac, y)

    return (pb(s) - pb(-s)) / (2 * s)


def lie_flow_metric(G, X, xs_e, s, time_row=None):
    """Flow oracle for the metric: pull back an extension with the given
    time row (default zero), then restrict to the spatial block."""
    chart = G.chart
    n = chart.n

    def ext(p):
        m = [[0.0] * (n + 1) for _ in range(n + 1)]
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                m[a][b] = G.entry(a, b)(p)
            if time_row is not None:
                m[0][a] = time_row[a - 1](p)
                m[a][0] = time_row[a - 1](p)
        return m

    def vfn(p):
        return X.values_e(p)

    full = lie_flow_cov(ext, 2, vfn, list(xs_e), s)
    return [[full[a][b] for b in range(1, n + 1)] for a in range(1, n + 1)]


def vertical_projector_phase(pconn):
    """(1,1)-tensor of the phase connection: projection onto the velocity
    directions along the horizontal lift."""
    n = pconn.chart.n

    def mat(xs):
        gl = pconn.lift_values(xs)
        dim = 2 * n + 1
        m = [[0.0] * dim for _ in range(dim)]
        for i in range(n):
            m[n + 1 + i][n + 1 + i] = 1.0
            for lam in range(0, n + 1):
                m[n + 1 + i][lam] = -gl[i][lam]
        return m

    return mat


def vertical_projector_spacetime(K):
    """(1,1)-tensor on TE of a spacetime connection."""
    n = K.chart.n

    def mat(te):
        xdot = te[n + 1 : 2 * n + 2]
        dim = 2 * (n + 1)
        m = [[0.0] * dim for _ in range(dim)]
        m[n + 1][n + 1] = 1.0  # time dot-row
        kv = K.values(te)
        for i in range(1, n + 1):
            m[n + 1 + i][n + 1 + i] = 1.0
            for lam in range(0, n + 1):
                s = 0.0
                for nu in range(0, n + 1):
                    s = s + kv[_sym_key(lam, nu)][i - 1] * xdot[nu]
                m[n + 1 + i][lam] = -s
        return m

    return mat


# -- invariance report ------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Residuals of the invariance conditions tied by the structure
    correspondences, with per-family verdicts."""

    model: str
    generator: str
    residuals: dict
    tol_pass: float = TOL_PASS
    tol_fail: float = TOL_FAIL

    def verdict(self, name):
        r = self.residuals[name]
        if r < self.tol_pass:
            return "pass"
        if r > self.tol_fail:
            return "fail"
        return "inconclusive"

    def verdicts(self):
        return {k: self.verdict(k) for k in self.residuals}

    def consistent(self):
        """True when the verdicts respect the correspondence structure:
        the three connection conditions agree; the two-form condition
        agrees with (phase connection + metric); the motion-form condition
        agrees with the two-form condition."""
        v = self.verdicts()
        if "inconclusive" in v.values():
            return False
        conn = {v["spacetime_connection"], v["phase_connection"], v["dynamical_connection"]}
        if len(conn) != 1:
            return False
        pair = "fail" if (v["phase_connection"] == "fail" or v["metric"] == "fail") else "pass"
        if v["two_form"] != pair:
            return False
        if v["motion_form"] != v["two_form"]:
            return False
        if "cartan_form" in v and "lagrangian" in v:
            if v["cartan_form"] != v["lagrangian"]:
                return False
        return True


def check_equivalences(model, X, points_e, points_phase, points_te, points_j2,
                       tol_pass=TOL_PASS, tol_fail=TOL_FAIL):
    """Evaluate every invariance residual family for one generator."""
    n = model.chart.n
    res = {}

    lk = lie_spacetime_connection(X, model.K)
    res["spacetime_connection"] = max(
        max(abs(value(x)) for row in lk(p) for x in row) for p in points_te
    )
    lg = lie_phase_connection(X, model.pconn)
    res["phase_connection"] = max(
        max(abs(value(x)) for row in lg(p) for x in row) for p in points_phase
    )
    ld = lie_dynamical(X, model.dyn)
    res["dynamical_connection"] = max(
        max(abs(value(x)) for x in ld(p)) for p in points_phase
    )
    lm = lie_metric(X, model.G)
    res["metric"] = max(
        max(abs(value(x)) for row in lm(p) for x in row) for p in points_e
    )

    def vec(p):
        return X.prolong1_values(p)

    res["two_form"] = max(
        max(abs(value(x)) for row in lie_two_form(vec, model.omega.matrix, p) for x in row)
        for p in points_phase
    )
    res["motion_form"] = max(
        max(abs(value(x)) for x in lie_euler_lagrange(X, model.G, model.dyn, p))
        for p in points_j2
    )
    if model.theta is not None:
        res["cartan_form"] = max(
            max(abs(value(x)) for x in lie_one_form(vec, model.theta.components, p))
            for p in points_phase
        )
        lag, _ = lagrangian_and_momentum(model.theta)
        ll = lie_lagrangian(X, lag)
        res["lagrangian"] = max(abs(value(ll(p))) for p in points_phase)

    return EquivalenceReport(
        getattr(model, "name", "?"), X.label or "X", res, tol_pass, tol_fail
    )


# -- quantisable phase functions -------------------------------------------


class SpecialQuadratic:
    """Phase function whose velocity dependence is (1/2) f0 * G(v, v) +
    linear + scalar, with coefficient fields on spacetime.  Its ``deps``
    (phase slots read) follow from theirs and the non-zero coefficients."""

    def __init__(self, G, f0, flin, fconst):
        self.G = G
        self.chart = G.chart
        self.f0 = as_field(f0)
        self.flin = [as_field(f) for f in flin]
        self.fconst = as_field(fconst)
        vel = [coordinate(self.chart.vel(a)) for a in range(1, self.chart.n + 1)]
        quad = [] if self.f0.is_zero else [self.f0, G, *vel]
        self.deps = support(self.fconst, *quad, *(f * v for f, v in zip(self.flin, vel)))

    def value(self, xs):
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        quad = 0.0 if self.f0.is_zero else 0.5 * self.f0(xs) * self.G.norm_sq(xs)
        s = quad + self.fconst(xs)
        for a in range(n):
            s = s + self.flin[a](xs) * v[a]
        return s

    __call__ = value

    def has_constant_time_component(self, points, tol=1e-12):
        vals = [value(self.f0(p)) for p in points]
        return max(vals) - min(vals) <= tol


def gamma_dot(fn, dyn, xs):
    """Derivative of a phase function (honouring its ``deps``) along the
    second-order connection."""
    n = dyn.chart.n
    vec = dyn.vector_values(xs)
    g = duals.grad(fn, list(xs))
    return sum(vec[a] * g[a] for a in range(2 * n + 1))


def noether_charge(X, theta, check_points=None, tol=TOL_PASS):
    """Conserved charge of a generator preserving the potential form.

    The charge is minus the contraction of the generator into the form,
    assembled directly in coefficient shape.  When sample points are given,
    the invariance residual of the form is measured; a generator that fails
    it still yields a function, flagged as not conserved.
    """
    chart = theta.chart
    n = chart.n
    G = theta.G
    flin = [-sum((X.comps[a - 1] * G.entry(a, b) for a in range(1, n + 1)), ZERO)
            for b in range(1, n + 1)]
    fconst = constant(-X.x0) * theta.A[0]
    for a in range(1, n + 1):
        fconst = fconst - X.comps[a - 1] * theta.A[a]
    charge = SpecialQuadratic(G, constant(X.x0), flin, fconst)
    residual = None
    if check_points is not None:
        def vec(p):
            return X.prolong1_values(p)

        residual = max(
            max(abs(value(x)) for x in lie_one_form(vec, theta.components, p))
            for p in check_points
        )
    conserved = residual is None or residual < tol
    return charge, residual, conserved


@dataclass
class MomentumMapEntry:
    """One component of a momentum map: a conserved charge, its constant
    time scale, and the gauge anchor fixing the additive constant."""

    label: str
    generator: SpacetimeVectorField
    charge: SpecialQuadratic
    tau: float
    anchor_point: list
    anchor_value: float
    symmetry_residual: float
    conserved: bool


@dataclass
class LieAlgebraAction:
    """Ordered generators of an infinitesimal action, with optional
    structure constants c[p][q] = coefficients of [e_p, e_q]."""

    name: str
    generators: list
    structure: dict = field(default_factory=dict)

    def closure_residual(self, points):
        """Commutator-closure defect against the declared constants."""
        worst = 0.0
        for (p, q), coeffs in self.structure.items():
            bracket = spacetime_commutator(self.generators[p], self.generators[q])
            for xs in points:
                got = bracket.values_e(xs)
                want = [0.0] * len(got)
                for r, c in enumerate(coeffs):
                    if c:
                        ge = self.generators[r].values_e(xs)
                        want = [w + c * g for w, g in zip(want, ge)]
                worst = max(
                    worst, max(abs(value(a) - value(b)) for a, b in zip(got, want))
                )
        return worst


def momentum_map(action, theta, check_points, anchor=None, tol=TOL_PASS,
                 require_symmetry=True):
    """Momentum map of a projectable action preserving the potential form.

    Per generator the charge is the contraction charge and the time scale
    is the (constant) time component of the generator.  The additive gauge
    is fixed by recording the charge value at the anchor (chart origin with
    zero velocity by default).
    """
    chart = theta.chart
    n = chart.n
    if anchor is None:
        anchor = [0.0] * (2 * n + 1)
    entries = []
    for idx, gen in enumerate(action.generators):
        charge, residual, conserved = noether_charge(gen, theta, check_points, tol)
        if require_symmetry and not conserved:
            raise NotASymmetryError(
                f"generator {gen.label or idx} of action {action.name}: "
                f"invariance residual {residual:.3e}"
            )
        entries.append(
            MomentumMapEntry(
                label=gen.label or f"{action.name}[{idx}]",
                generator=gen,
                charge=charge,
                tau=gen.x0,
                anchor_point=list(anchor),
                anchor_value=value(charge.value(anchor)),
                symmetry_residual=residual,
                conserved=conserved,
            )
        )
    return entries


# -- covariant Hamiltonian lift ----------------------------------------------


def tau_lift_values(fn, tau, omega, xs):
    """Components of the covariant lift of a phase function at a point.

    Closed-form path: the unique vector field with the given time
    component whose contraction into the two-form is df - (gamma.f) dt.
    The connection is evaluated once; df honours the ``deps`` of ``fn``.
    """
    chart = omega.chart
    n = chart.n
    ginv = omega.G.inv(xs)
    gmat = omega.G.mat(xs)
    gl = omega.conn.lift_values(xs)
    v = xs[n + 1 : 2 * n + 1]
    # the acceleration off the lift along the contact direction: gl[i][0] + gl[i][h] v^h
    g00 = [gl[i][0] + sum(gl[i][1 + h] * v[h] for h in range(n)) for i in range(n)]
    df = duals.grad(fn, list(xs))

    y_sp = [
        -sum(ginv[h][k] * df[n + 1 + k] for k in range(n)) for h in range(n)
    ]
    # correction matrix corr[k][l] = gl[l][1+k] - sum_{r,t} gmat[k][r]
    # ginv[l][t] gl[r][1+t], built once per point through the product
    # gl_ginv[r][l] = sum_t gl[r][1+t] ginv[l][t]
    gl_ginv = [
        [sum(gl[r][1 + t] * ginv[l][t] for t in range(n)) for l in range(n)]
        for r in range(n)
    ]
    inner = []
    for k in range(n):
        s = df[1 + k]
        for l in range(n):
            corr = gl[l][1 + k] - sum(gmat[k][r] * gl_ginv[r][l] for r in range(n))
            s = s + corr * df[n + 1 + l]
        inner.append(s)
    y_vel = [sum(ginv[h][k] * inner[k] for k in range(n)) for h in range(n)]

    out = [tau]
    for a in range(n):
        out.append(tau * v[a] + y_sp[a])
    for a in range(n):
        out.append(tau * g00[a] + y_vel[a])
    return out


def tau_lift_solve(fn, tau, omega, xs):
    """Oracle path for the lift: solve the constrained contraction system
    numerically and add the time-scaled second-order connection."""
    chart = omega.chart
    n = chart.n
    xs = [float(c) for c in xs]
    m = np.array([[value(x) for x in row] for row in omega.matrix(xs)])
    df = [value(d) for d in duals.grad(fn, xs)]
    gdot = value(gamma_dot(fn, omega.dyn, xs))
    rhs = np.array(df)
    rhs[0] -= gdot
    # unknown vertical part: slots 1..2n; rows are all 2n+1 form components
    a = m[1:, :].T
    sol, res, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < 2 * n:
        raise SingularOmegaError("contraction system is rank deficient")
    fit = a @ sol
    if np.max(np.abs(fit - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        raise SingularOmegaError("contraction system is inconsistent")
    gamma_vec = [value(c) for c in omega.dyn.vector_values(xs)]
    out = [tau * g for g in gamma_vec]
    for i in range(2 * n):
        out[1 + i] += sol[i]
    return out


def generator_match(entry, omega, points):
    """Defect between the lifted charge (at its own time scale) and the
    holonomic lift of the generator; two-sided per the uniqueness of the
    lift in its time component."""
    worst = 0.0
    for xs in points:
        lifted = tau_lift_values(entry.charge, entry.tau, omega, xs)
        direct = entry.generator.prolong1_values(xs)
        worst = max(
            worst, max(abs(value(a) - value(b)) for a, b in zip(lifted, direct))
        )
    return worst


# -- classification of quadratic phase functions ------------------------------


def _velocity_nodes(n):
    nodes = [[0.0] * n]
    for h in range(n):
        e = [0.0] * n
        e[h] = 1.0
        nodes.append(list(e))
        e2 = [0.0] * n
        e2[h] = 2.0
        nodes.append(e2)
    for h in range(n):
        for k in range(h + 1, n):
            e = [0.0] * n
            e[h] = 1.0
            e[k] = 1.0
            nodes.append(e)
    return nodes


def _quad_design_row(v, n):
    row = []
    for h in range(n):
        for k in range(h, n):
            row.append((0.5 if h == k else 1.0) * v[h] * v[k])
    row.extend(v)
    row.append(1.0)
    return row


def classify_special_quadratic(fn, G, fit_tol=1e-10, probe=None, validate_at=None):
    """Fit a phase function as quadratic in the velocities with quadratic
    part proportional to the metric.

    Returns a :class:`SpecialQuadratic` whose coefficient fields evaluate by
    refitting at each base point (so they compose with the derivative
    engine).  With ``validate_at`` base points the fit is checked eagerly:
    :class:`ClassifyError` is raised when the residual at probe velocities
    is too large or the quadratic part is not metric proportional.
    """
    chart = G.chart
    n = chart.n
    nodes = _velocity_nodes(n)
    design = np.array([_quad_design_row(v, n) for v in nodes])
    dinv = np.linalg.inv(design)
    if probe is None:
        probe = [[0.3 + 0.1 * i for i in range(n)], [1.0] * n, [-0.7, 0.4] + [0.2] * (n - 2)]

    def fit(xs_e):
        base = list(xs_e[: n + 1])
        vals = [fn(base + list(v)) for v in nodes]
        coeffs = [
            sum(dinv[r][c] * vals[c] for c in range(len(vals)))
            for r in range(len(vals))
        ]
        quad = {}
        idx = 0
        for h in range(n):
            for k in range(h, n):
                quad[(h, k)] = coeffs[idx]
                idx += 1
        lin = coeffs[idx : idx + n]
        const = coeffs[idx + n]
        return quad, lin, const

    def check(xs_e):
        quad, lin, const = fit(xs_e)
        base = list(xs_e[: n + 1])
        scale = 1.0 + max(abs(value(c)) for c in list(lin) + [const] + list(quad.values()))
        for v in probe:
            pred = const
            for h in range(n):
                pred = pred + lin[h] * v[h]
                for k in range(h, n):
                    m = 0.5 if h == k else 1.0
                    pred = pred + m * quad[(h, k)] * v[h] * v[k]
            got = fn(base + list(v))
            if abs(value(got) - value(pred)) > fit_tol * scale:
                raise ClassifyError(
                    "not-special-quadratic",
                    f"probe residual {abs(value(got) - value(pred)):.3e} at {base}",
                )
        gm = [[value(x) for x in row] for row in G.mat(base + [0.0] * n)]
        qm = [[value(quad[_sym_key(h, k)]) for k in range(n)] for h in range(n)]
        tr = sum(
            sum(np.linalg.inv(np.array(gm))[h][k] * qm[k][h] for k in range(n))
            for h in range(n)
        )
        f0 = tr / n
        for h in range(n):
            for k in range(n):
                if abs(qm[h][k] - f0 * gm[h][k]) > fit_tol * (1.0 + abs(f0)):
                    raise ClassifyError(
                        "not-metric-proportional",
                        f"entry ({h},{k}) deviates by {abs(qm[h][k] - f0 * gm[h][k]):.3e}",
                    )
        return f0

    def f0_fn(xs):
        quad, _, _ = fit(xs)
        gm = G.mat(list(xs[: n + 1]) + [0.0] * n)
        ginv = duals.invert_generic(gm)
        tr = 0.0
        for h in range(n):
            for k in range(n):
                tr = tr + ginv[h][k] * quad[_sym_key(k, h)]
        return tr / n

    def lin_fn(a):
        def f(xs):
            _, lin, _ = fit(xs)
            return lin[a]

        return Field(f)

    def const_fn(xs):
        _, _, const = fit(xs)
        return const

    if validate_at is not None:
        for xs_e in validate_at:
            check(xs_e)
    sq = SpecialQuadratic(G, Field(f0_fn), [lin_fn(a) for a in range(n)], Field(const_fn))
    sq.validate = check
    return sq


# -- brackets ----------------------------------------------------------------


def poisson_bracket(f_fn, g_fn, omega, xs):
    """Contraction of the two zero-scale lifts into the two-form."""
    hf = tau_lift_values(f_fn, 0.0, omega, xs)
    hg = tau_lift_values(g_fn, 0.0, omega, xs)
    m = omega.matrix(xs)
    dim = len(m)
    return sum(
        hg[a] * hf[b] * m[a][b] for a in range(dim) for b in range(dim)
        if not (isinstance(m[a][b], float) and m[a][b] == 0.0)
    )


def special_bracket(f, g, omega, classify=True, fit_tol=1e-10, at=None):
    """Bracket closing on the quadratic phase functions with constant time
    component: the Poisson bracket corrected by the time scales contracted
    through the second-order connection.  ``at`` is the base point where
    the constant time components are read (defaults to the chart origin)."""
    for sq, nm in ((f, "f"), (g, "g")):
        if not isinstance(sq, SpecialQuadratic):
            raise ClassifyError("not-special-quadratic", f"{nm} is not in coefficient form")
    at = at if at is not None else [0.0] * (omega.chart.n + 1)
    f0 = value(f.f0(at))
    g0 = value(g.f0(at))

    def val(xs):
        s = poisson_bracket(f, g, omega, xs)
        if f0:
            s = s + f0 * gamma_dot(g, omega.dyn, xs)
        if g0:
            s = s - g0 * gamma_dot(f, omega.dyn, xs)
        return s

    if not classify:
        return val
    return classify_special_quadratic(val, omega.G, fit_tol=fit_tol)


def pair_bracket(f_pair, g_pair, omega):
    """Bracket of (function, time-scale) pairs: the Poisson bracket with
    zero time scale."""
    f_fn, _tau = f_pair
    g_fn, _sigma = g_pair

    def val(xs):
        return poisson_bracket(f_fn, g_fn, omega, xs)

    return val, 0.0


def vector_commutator(u_fn, v_fn, xs):
    """Bracket of two vector fields given by component functions."""
    dim = len(xs)
    u = u_fn(xs)
    v = v_fn(xs)
    du = [partial_multi(u_fn, xs, d) for d in range(dim)]
    dv = [partial_multi(v_fn, xs, d) for d in range(dim)]
    return [
        sum(u[c] * dv[c][a] - v[c] * du[c][a] for c in range(dim))
        for a in range(dim)
    ]

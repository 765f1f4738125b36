"""Symmetry machinery: prolongations, Lie derivatives, conserved charges,
momentum maps, covariant Hamiltonian lifts and brackets.

Vector fields on spacetime are taken projectable with constant time
component, which is exactly the class whose Lie derivative annihilates the
time form.  Their holonomic lift to phase space adds the velocity
components d/dt X^i computed along the contact direction; the tangent lift
lives on TE.  Lie derivatives of the non-tensorial objects (metric,
connections) use the well-defined restricted expressions.  Every family
reads the jet (the value and all first partials) of each input once per
point and combines the jets algebraically; the Lie derivatives of forms use
the coordinate form of Cartan's identity.  Each formula is cross-checked in
the tests against a finite-flow pullback oracle (:mod:`galimech.oracles`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import duals
from .duals import value
from .fields import Field, ZERO, as_field, constant, coordinate, support
from .geometry import _sym_key, gamma00_of, lagrangian_and_momentum, lift_of, motion_row


TOL_PASS = 1e-9
TOL_FAIL = 1e-3


class NotASymmetryError(RuntimeError):
    """A generator failed its invariance check where one is required."""


class ClassifyError(RuntimeError):
    """A phase function is not of the admissible quadratic type."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def _along(row, u):
    """sum_k row[k] u[k]: a row of partials contracted with a direction."""
    pairs = zip(row, u)
    r, w = next(pairs)
    s = r * w
    for r, w in pairs:
        s = s + r * w
    return s


class SpacetimeVectorField:
    """Projectable vector field with constant time component.

    ``d1`` and ``d2`` evaluate the first and second partials of the
    components once per point; the lifts contract them with a direction.
    The holonomic lift reads the components' slots and v^k for each x^k
    they read (``prolong1_values_deps``).
    """

    def __init__(self, chart, x0, comps, label=""):
        self.chart = chart
        self.x0 = float(x0)
        self.comps = [as_field(c) for c in comps]
        self.label = label
        s = support(*self.comps)
        self.prolong1_values_deps = None if s is None else s | {
            chart.n + k for k in s if 1 <= k <= chart.n}

    def values_e(self, xs):
        return [self.x0] + [c(xs) for c in self.comps]

    def d1(self, xs):
        """d1[i][lam] = d_lam X^(i+1), lam = 0..n."""
        e = range(self.chart.n + 1)
        return [[c.partial((lam,), xs) for lam in e] for c in self.comps]

    def d2(self, xs):
        """d2[i][lam][mu] = d_lam d_mu X^(i+1); each pair is evaluated once."""
        e = range(self.chart.n + 1)
        out = []
        for c in self.comps:
            h = {(lam, mu): c.partial((lam, mu), xs) for lam in e for mu in e if lam <= mu}
            out.append([[h[_sym_key(lam, mu)] for mu in e] for lam in e])
        return out

    def prolong1_values(self, xs):
        """Components of the holonomic lift on phase space."""
        return self._prolong1(xs, self.d1(xs))

    def _prolong1(self, xs, d1):
        # velocity part: d/dt X^i along the contact direction (1, v)
        n = self.chart.n
        u = [1.0, *xs[n + 1 : 2 * n + 1]]
        return self.values_e(xs) + [_along(r, u) for r in d1]

    def prolongT_values(self, te_xs):
        """Components of the tangent lift on TE, coordinates (x, xdot)."""
        n = self.chart.n
        xdot = te_xs[n + 1 : 2 * n + 2]
        # the time component is constant
        return self.values_e(te_xs) + [0.0] + [_along(r, xdot) for r in self.d1(te_xs)]


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
    n = G.chart.n

    def at(xs):
        gm, dgm = G.mat(xs), duals.grad(G.mat, xs)
        xe, d1 = X.values_e(xs), X.d1(xs)
        out = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                s = _along([dg[a][b] for dg in dgm], xe)
                for k in range(n):
                    s = s + gm[k][b] * d1[k][a + 1]
                    s = s + gm[a][k] * d1[k][b + 1]
                out[a][b] = out[b][a] = s
        return out

    return at


def lie_phase_connection(X, pconn):
    """Lie derivative of the phase connection along the holonomic lift;
    returns a function of a phase point giving rows over d^mu and
    components i (an (n+1) x n array)."""
    n = pconn.chart.n

    def at(xs):
        v = xs[n + 1 : 2 * n + 1]
        u = [1.0, *v]
        kv, dkv = pconn.blocks(xs[: n + 1]), duals.grad(pconn.blocks, xs[: n + 1])
        # gl[i][mu] and its partials dgl[lam][i][mu] along x^lam at fixed velocity
        gl, dgl = lift_of(kv, v), [lift_of(dk, v) for dk in dkv]
        d1, d2 = X.d1(xs), X.d2(xs)
        lift = X._prolong1(xs, d1)
        out = []
        for mu in range(0, n + 1):
            row = []
            for i in range(n):
                # d_mu of the lift velocity component
                s = _along(d2[i][mu], u)
                for lam in range(1, n + 1):
                    s = s - gl[i][lam] * d1[lam - 1][mu]
                s = s - _along([dg[i][mu] for dg in dgl], lift[: n + 1])
                for k in range(1, n + 1):
                    s = s - lift[n + k] * kv[_sym_key(mu, k)][i]
                    s = s + gl[k - 1][mu] * d1[i][k]
                row.append(s)
            out.append(row)
        return out

    return at


def lie_dynamical(X, dyn):
    """Lie derivative of the second-order connection along the holonomic
    lift (equivalently the bracket with the associated vector field);
    returns a function of a phase point giving the n components."""
    n = dyn.chart.n

    def at(xs):
        v = xs[n + 1 : 2 * n + 1]
        u = [1.0, *v]
        kv, dkv = dyn.blocks(xs[: n + 1]), duals.grad(dyn.blocks, xs[: n + 1])
        g00, gl = gamma00_of(kv, v), lift_of(kv, v)
        # dg[d][i] = d_d gamma^i: from the blocks' partials along x^lam, and
        # 2 gl[i][k] along v^k
        dg = [gamma00_of(dk, v) for dk in dkv] + [[2.0 * g[k] for g in gl] for k in range(1, n + 1)]
        d1, d2 = X.d1(xs), X.d2(xs)
        lift = X._prolong1(xs, d1)
        out = []
        for i in range(n):
            s = _along([d[i] for d in dg], lift)
            for k in range(1, n + 1):
                s = s - g00[k - 1] * d1[i][k]
            # total second derivative of X^i along the contact direction
            out.append(s - _along([_along(r, u) for r in d2[i]], u))
        return out

    return at


def lie_spacetime_connection(X, K):
    """Lie derivative of the spacetime connection along the tangent lift;
    returns a function of a TE point (x, xdot) giving rows over d^lam and
    components i."""
    n = K.chart.n
    e = range(n + 1)

    def at(te):
        xdot = te[n + 1 : 2 * n + 2]
        kv, dkv = K.blocks(te[: n + 1]), duals.grad(K.blocks, te[: n + 1])
        xe, d1, d2 = X.values_e(te), X.d1(te), X.d2(te)
        xk = {key: [_along([dk[key][i] for dk in dkv], xe) for i in range(n)] for key in kv}

        def along_xdot(blocks):  # [lam][i]: blocks[(lam, nu)][i] xdot^nu
            return [[_along([blocks[_sym_key(lam, nu)][i] for nu in e], xdot) for i in range(n)]
                    for lam in e]

        # kx: the connection along xdot; xdk: the same of its derivative along X
        kx, xdk = along_xdot(kv), along_xdot(xk)
        tdot = [_along(r, xdot) for r in d1]
        out = []
        for lam in e:
            row = []
            for i in range(n):
                s = xdk[lam][i]
                for j in range(n):
                    s = s + kv[_sym_key(lam, j + 1)][i] * tdot[j]
                    s = s - kx[lam][j] * d1[i][j + 1]
                    s = s + kx[j + 1][i] * d1[j][lam]
                row.append(s - _along(d2[i][lam], xdot))
            out.append(row)
        return out

    return at


def lie_lagrangian(X, lag):
    """Directional derivative of the Lagrangian density along the holonomic
    lift; vanishing is the Lagrangian form of invariance."""

    def at(xs):
        return _along(duals.grad(lag.value, xs), X.prolong1_values(xs))

    return at


# -- Lie derivative of forms from jets -------------------------------------------


def lie_one_form(vec_fn, comp_fn, xs):
    """Lie derivative of a one-form given by its component list, from the
    jets of Y and c: (L_Y c)_b = Y^a d_a c_b + c_a d_b Y^a."""
    dim = len(xs)
    y, dy = vec_fn(xs), duals.grad(vec_fn, xs)
    c, dc = comp_fn(xs), duals.grad(comp_fn, xs)
    return [_along([d[b] for d in dc], y) + _along(c, dy[b]) for b in range(dim)]


def lie_two_form(vec_fn, mat_fn, xs):
    """Lie derivative of a two-form given by its evaluation matrix, from
    the jets of Y and W:
    (L_Y W)_bc = Y^a d_a W_bc + W_ac d_b Y^a + W_ba d_c Y^a."""
    dim = len(xs)
    y, dy = vec_fn(xs), duals.grad(vec_fn, xs)
    m, dm = mat_fn(xs), duals.grad(mat_fn, xs)
    out = [[0.0] * dim for _ in range(dim)]
    for b in range(dim):
        for c in range(b + 1, dim):
            s = _along([d[b][c] for d in dm], y)
            s = s + _along([row[c] for row in m], dy[b]) + _along(m[b], dy[c])
            out[b][c] = s
            out[c][b] = -s
    return out


def lie_euler_lagrange(X, G, dyn, j2_xs):
    """Lie derivative of the motion two-form along the second holonomic
    lift, evaluated at second-order data (x, v, a)."""
    n = G.chart.n

    def e_row(j2):
        return motion_row(G, dyn, j2[: 2 * n + 1], j2[2 * n + 1 : 3 * n + 1])

    s = support(G, dyn.blocks)
    e_row.deps = None if s is None else s | frozenset(range(n + 1, 3 * n + 1))
    e0, d_e = e_row(j2_xs), duals.grad(e_row, j2_xs)
    d1, d2 = X.d1(j2_xs), X.d2(j2_xs)
    u = [1.0, *j2_xs[n + 1 : 2 * n + 1]]
    acc = j2_xs[2 * n + 1 : 3 * n + 1]
    # the second lift adds d^2/dt^2 X^i along the contact direction
    lift = X._prolong1(j2_xs, d1) + [
        _along([_along(r, u) for r in h], u) + _along(r1[1:], acc) for h, r1 in zip(d2, d1)]
    out = []
    for j in range(n):
        s = _along([d[j] for d in d_e], lift)
        for k in range(n):
            s = s + e0[k] * d1[k][j + 1]
        out.append(s)
    return out


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


def _worst(family, points):
    """Largest |entry| of a residual family (nested lists of scalars) over points."""
    def leaves(r):
        return [x for e in r for x in leaves(e)] if isinstance(r, list) else [r]

    return max(abs(value(x)) for p in points for x in leaves(family(p)))


def check_equivalences(model, X, points_e, points_phase, points_te, points_j2,
                       tol_pass=TOL_PASS, tol_fail=TOL_FAIL):
    """Evaluate every invariance residual family for one generator."""
    lift = X.prolong1_values
    res = {
        "spacetime_connection": _worst(lie_spacetime_connection(X, model.K), points_te),
        "phase_connection": _worst(lie_phase_connection(X, model.pconn), points_phase),
        "dynamical_connection": _worst(lie_dynamical(X, model.dyn), points_phase),
        "metric": _worst(lie_metric(X, model.G), points_e),
        "two_form": _worst(lambda p: lie_two_form(lift, model.omega.matrix, p), points_phase),
        "motion_form": _worst(lambda p: lie_euler_lagrange(X, model.G, model.dyn, p), points_j2),
    }
    if model.theta is not None:
        res["cartan_form"] = _worst(lambda p: lie_one_form(lift, model.theta.components, p),
                                    points_phase)
        lag, _ = lagrangian_and_momentum(model.theta)
        res["lagrangian"] = _worst(lie_lagrangian(X, lag), points_phase)

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

    def coefficients(self, xs):
        """(f0, [linear coefficients], constant) at the base point of ``xs``."""
        return self.f0(xs), [f(xs) for f in self.flin], self.fconst(xs)

    def value(self, xs):
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        f0, lin, const = self.coefficients(xs)
        quad = 0.0 if self.f0.is_zero else 0.5 * f0 * self.G.norm_sq(xs)
        s = quad + const
        for a in range(n):
            s = s + lin[a] * v[a]
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
        residual = _worst(lambda p: lie_one_form(X.prolong1_values, theta.components, p),
                          check_points)
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
    """The velocities of a fit: 0, e_h and 2 e_h, then e_h + e_k for h < k."""
    e = [[float(h == k) for k in range(n)] for h in range(n)]
    pairs = [[a + b for a, b in zip(e[h], e[k])] for h in range(n) for k in range(h + 1, n)]
    return [[0.0] * n] + [row for eh in e for row in (eh, [2.0 * x for x in eh])] + pairs


def _quad_design_row(v, n):
    quad = [(0.5 if h == k else 1.0) * v[h] * v[k] for h in range(n) for k in range(h, n)]
    return quad + list(v) + [1.0]


class _FittedQuadratic(SpecialQuadratic):
    """A classified phase function: ``fit`` gives (f0, lin, const, quad) at
    a base point, and the coefficient fields are views of it."""

    def __init__(self, G, fit, validate):
        n = G.chart.n
        super().__init__(G, Field(lambda xs: fit(xs)[0]),
                         [Field(lambda xs, a=a: fit(xs)[1][a]) for a in range(n)],
                         Field(lambda xs: fit(xs)[2]))
        self.fit = fit
        self.validate = validate

    def coefficients(self, xs):
        return self.fit(xs)[:3]


def classify_special_quadratic(fn, G, fit_tol=1e-10, probe=None, validate_at=None):
    """Fit a phase function as quadratic in the velocities with quadratic
    part proportional to the metric.

    Returns a :class:`SpecialQuadratic` whose coefficients come from one
    fit per base point (so they compose with the derivative engine).  With
    ``validate_at`` base points the fit is checked eagerly:
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

    def fit(xs):
        """(f0, lin, const, quad) at the base point of ``xs``, from one
        evaluation per node; f0 is the metric trace of the quadratic part."""
        base = list(xs[: n + 1])
        vals = [fn(base + list(v)) for v in nodes]
        coeffs = [sum(dinv[r][c] * vals[c] for c in range(len(vals))) for r in range(len(vals))]
        keys = [(h, k) for h in range(n) for k in range(h, n)]
        quad = dict(zip(keys, coeffs))
        lin, const = coeffs[len(keys) : len(keys) + n], coeffs[len(keys) + n]
        ginv = duals.invert_generic(G.mat(base + [0.0] * n))
        tr = 0.0
        for h in range(n):
            for k in range(n):
                tr = tr + ginv[h][k] * quad[_sym_key(k, h)]
        return tr / n, lin, const, quad

    def check(xs_e):
        f0, lin, const, quad = fit(xs_e)
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
        f0 = value(f0)
        for h in range(n):
            for k in range(n):
                dev = abs(value(quad[_sym_key(h, k)]) - f0 * gm[h][k])
                if dev > fit_tol * (1.0 + abs(f0)):
                    raise ClassifyError("not-metric-proportional",
                                        f"entry ({h},{k}) deviates by {dev:.3e}")
        return f0

    if validate_at is not None:
        for xs_e in validate_at:
            check(xs_e)
    return _FittedQuadratic(G, fit, check)


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
    u, du = u_fn(xs), duals.grad(u_fn, xs)
    v, dv = v_fn(xs), duals.grad(v_fn, xs)
    return [
        sum(u[c] * dv[c][a] - v[c] * du[c][a] for c in range(dim))
        for a in range(dim)
    ]

"""Symmetry machinery: prolongations, Lie derivatives, conserved charges,
momentum maps, covariant Hamiltonian lifts and brackets.

Vector fields on spacetime are taken projectable with constant time
component, which is exactly the class whose Lie derivative annihilates the
time form.  Their holonomic lift to phase space adds the velocity
components d/dt X^i computed along the contact direction; the tangent lift
lives on TE.  Lie derivatives of the non-tensorial objects (metric,
connections) use the well-defined restricted expressions.  Each family is
one formula over the jets (the value and all first partials) of its
structure and of the generator at a point; the Lie derivatives of forms use
the coordinate form of Cartan's identity.  Each formula is cross-checked in
the tests against a finite-flow pullback oracle (:mod:`galimech.oracles`).
"""

import functools
import math
from dataclasses import dataclass, field

from . import duals
from .duals import value, worst
from .fields import Field, ZERO, as_field, constant, coordinate, program, support
from .geometry import _sym_key, gamma00_of, lift_of, omega_jet, quadratic_field


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

    ``jet`` evaluates the components and their first partials, one program
    per point; ``d2``, the second partials, is a second program, compiled
    only when a family reads them (none for constant components).  The
    holonomic and tangent lifts are contractions of the first partials with
    a direction.
    """

    def __init__(self, chart, x0, comps, label=""):
        self.chart = chart
        self.x0 = float(x0)
        self.comps = [as_field(c) for c in comps]
        self.label = label

    @functools.cached_property
    def jet(self):
        """(e, d1) at a point, one program: e the time component and the
        components, d1[i][lam] = d_lam X^(i+1), lam = 0..n."""
        e, comps = range(self.chart.n + 1), self.comps
        return program(([constant(self.x0), *comps], [[c.d(lam) for lam in e] for c in comps]))

    @functools.cached_property
    def d2(self):
        """d2[i][lam][mu] = d_lam d_mu X^(i+1), as one program; fresh zeros,
        with no program, when every component is constant."""
        e, m = range(self.chart.n + 1), len(self.comps)
        if all(c.const_value is not None for c in self.comps):
            return lambda xs: [[[0.0 for _ in e] for _ in e] for _ in range(m)]
        return program([[[c.d(min(lam, mu)).d(max(lam, mu)) for mu in e] for lam in e]
                        for c in self.comps])

    @functools.cached_property
    def prolong1_values(self):
        """Components of the holonomic lift on phase space: x0, X^i and
        d/dt X^i = d_lam X^i u^lam along the contact direction u = (1, v),
        from :attr:`jet`.  It reads the components' slots and the velocity
        of each direction some component varies along."""
        jet, n = self.jet, self.chart.n

        def lift(xs):
            return _lift(*jet(xs), xs[n + 1 : 2 * n + 1])

        varied = [k for k in range(1, n + 1) if not all(c.d(k).is_zero for c in self.comps)]
        lift.deps = support(*self.comps, *(coordinate(self.chart.vel(k)) for k in varied))
        return lift

    def prolongT_values(self, te_xs):
        """Components of the tangent lift on TE, coordinates (x, xdot)."""
        n = self.chart.n
        xdot = te_xs[n + 1 : 2 * n + 2]
        e, d1 = self.jet(te_xs)
        # the time component is constant
        return e + [0.0] + [_along(r, xdot) for r in d1]


def _lift(e, d1, v):
    """The holonomic lift's components x0, X^i and d_lam X^i u^lam,
    u = (1, v), from a generator's jet (e, d1) at velocity ``v``."""
    u = [1.0, *v]
    return e + [_along(r, u) for r in d1]


def _lift_partials(d1, d2, v):
    """The partials of the holonomic lift's components along each phase
    slot, in closed form: along x^mu they are 0, d_mu X^i and
    d_mu d_lam X^i u^lam; along v^k they are 0, 0 and d_k X^i.  With ``d2``
    None the velocity components' partials are left 0.0: a horizontal form
    (:func:`noether_charges`) multiplies each of them by 0.0."""
    n, u, zeros = len(d1), [1.0, *v], [0.0] * len(d1)
    along_x = [[0.0, *(r[mu] for r in d1),
                *(zeros if d2 is None else (_along(h[mu], u) for h in d2))] for mu in range(n + 1)]
    return along_x + [[0.0, *zeros, *(zeros if d2 is None else (r[k] for r in d1))]
                      for k in range(1, n + 1)]


def charge_differential(cjet, xjet):
    """dF of the charge F = -(x0 theta_0 + X^a theta_a) of a generator, in
    closed form from the jets of the potential form and of the generator
    (:attr:`SpacetimeVectorField.jet`):
    d_k F = -(x0 d_k theta_0 + X^a d_k theta_a + theta_a d_k X^a), where
    d_k X^a is 0 along the velocities."""
    (c, dc), (e, d1) = cjet, xjet
    n = len(d1)
    dx = [[r[k] for r in d1] for k in range(n + 1)] + [[0.0] * n] * n  # dx[k][a-1] = d_k X^a
    return [-(_along(d[: n + 1], e) + _along(c[1 : n + 1], dxk)) for d, dxk in zip(dc, dx)]


def _lagrangian_partials(cjet, v):
    """dL of the Lagrangian L = theta_0 + theta_a v^a from the jet of the
    potential form's components, which is its own contact splitting:
    d_k L = d_k theta_0 + v^a d_k theta_a, plus theta_a along v^a."""
    (c, dc), n = cjet, len(v)
    return [d[0] + _along(d[1 : n + 1], v) + (c[k - n] if k > n else 0.0)
            for k, d in enumerate(dc)]


def spacetime_commutator(X, Y):
    """Bracket of two projectable fields (time components are constant),
    built by field algebra from the components' derivative fields."""
    n = X.chart.n

    def comp(x, y):
        s = X.x0 * y.d(0) - Y.x0 * x.d(0)
        for k in range(1, n + 1):
            s = s + X.comps[k - 1] * y.d(k) - Y.comps[k - 1] * x.d(k)
        return s

    return SpacetimeVectorField(X.chart, 0.0, [comp(x, y) for x, y in zip(X.comps, Y.comps)])


def lie_dt(chart, raw_comps):
    """Components of the Lie derivative of the time form for an
    unconstrained vector field; used to classify raw fields."""
    x0 = as_field(raw_comps[0])
    return [x0.d(lam) for lam in range(0, chart.n + 1)]


def classify_spacetime(chart, raw_comps, points, tol=TOL_PASS):
    """Classify a raw (n+1)-component field; returns (field_or_None, residual)."""
    comps = [as_field(c) for c in raw_comps]
    ld = lie_dt(chart, comps)
    residual = worst([[c(xs) for c in ld] for xs in points])
    if not residual <= tol:  # a nan residual is no classification
        return None, residual
    x0 = value(comps[0](points[0]))
    return SpacetimeVectorField(chart, x0, comps[1:]), residual


# -- Lie derivatives by coordinate formula ---------------------------------


def _lie_metric(gjet, xe, d1):
    (gm, dgm), n = gjet, len(d1)
    out = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s = _along([dg[a][b] for dg in dgm], xe)
            for k in range(n):
                s = s + gm[k][b] * d1[k][a + 1]
                s = s + gm[a][k] * d1[k][b + 1]
            out[a][b] = out[b][a] = s
    return out


def lie_metric(X, G):
    """Vertical-restricted Lie derivative of the metric; returns a function
    of a spacetime point giving the symmetric n x n matrix."""
    return lambda xs: _lie_metric(G.jet(xs), *X.jet(xs))


def _raised_jet(conn, xs):
    """The connection blocks and their partials along x^0..x^n at ``xs``,
    from one run of the record's jet."""
    n = conn.chart.n
    return conn.raise_(xs[: n + 1], *conn.jet(xs))[:2]


def _prolong_jet(X, xs):
    """X's first and second partials and its holonomic lift at ``xs``."""
    (e, d1), n = X.jet(xs), X.chart.n
    return d1, X.d2(xs), _lift(e, d1, xs[n + 1 : 2 * n + 1])


def _lifted(kjet, xs):
    """The record's raised jet ``kjet`` (partials along x^0..x^n) lifted at
    the velocity of ``xs``, as no generator changes it: the blocks, gl =
    lift_of and its partials along x^lam, gamma = gamma00_of and its
    partials (the blocks' along x^lam, then 2 gl[i][k] along v^k)."""
    (kv, dkv), n = kjet, len(kjet[1]) - 1
    v = xs[n + 1 : 2 * n + 1]
    gl = lift_of(kv, v)
    return kv, gl, [lift_of(dk, v) for dk in dkv], gamma00_of(kv, v), (
        [gamma00_of(dk, v) for dk in dkv] + [[2.0 * g[k] for g in gl] for k in range(1, n + 1)])


def _lie_phase_connection(lifted, xs, d1, d2, lift):
    (kv, gl, dgl, _, _), n = lifted, len(d1)
    u = [1.0, *xs[n + 1 : 2 * n + 1]]
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


def lie_phase_connection(X, pconn):
    """Lie derivative of the phase connection along the holonomic lift;
    returns a function of a phase point giving rows over d^mu and
    components i (an (n+1) x n array)."""
    return lambda xs: _lie_phase_connection(
        _lifted(_raised_jet(pconn, xs), xs), xs, *_prolong_jet(X, xs))


def _lie_dynamical(lifted, xs, d1, d2, lift):
    (_, _, _, g00, dg), n = lifted, len(d1)
    u = [1.0, *xs[n + 1 : 2 * n + 1]]
    out = []
    for i in range(n):
        s = _along([d[i] for d in dg], lift)
        for k in range(1, n + 1):
            s = s - g00[k - 1] * d1[i][k]
        # total second derivative of X^i along the contact direction
        out.append(s - _along([_along(r, u) for r in d2[i]], u))
    return out


def lie_dynamical(X, dyn):
    """Lie derivative of the second-order connection along the holonomic
    lift (equivalently the bracket with the associated vector field);
    returns a function of a phase point giving the n components."""
    return lambda xs: _lie_dynamical(_lifted(_raised_jet(dyn, xs), xs), xs, *_prolong_jet(X, xs))


def _lie_spacetime_connection(kjet, te, xe, d1, d2):
    (kv, dkv), n = kjet, len(d1)
    e = range(n + 1)
    xdot = te[n + 1 : 2 * n + 2]
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


def lie_spacetime_connection(X, K):
    """Lie derivative of the spacetime connection along the tangent lift;
    returns a function of a TE point (x, xdot) giving rows over d^lam and
    components i."""
    return lambda te: _lie_spacetime_connection(_raised_jet(K, te), te, *X.jet(te), X.d2(te))


def lie_lagrangian(X, lag):
    """Directional derivative of the Lagrangian density along the holonomic
    lift; vanishing is the Lagrangian form of invariance.  ``lag`` is the
    potential form, whose jet gives dL (:func:`_lagrangian_partials`)."""
    n = lag.chart.n
    return lambda xs: _along(_lagrangian_partials(lag.jet(xs), xs[n + 1 : 2 * n + 1]),
                             X.prolong1_values(xs))


# -- Lie derivative of forms from jets -------------------------------------------


def _lie_one_form(cjet, yjet):
    (c, dc), (y, dy) = cjet, yjet
    return [_along([d[b] for d in dc], y) + _along(c, dy[b]) for b in range(len(y))]


def lie_one_form(vec_fn, comp_fn, xs):
    """Lie derivative of a one-form given by its component list, from the
    jets of Y and c: (L_Y c)_b = Y^a d_a c_b + c_a d_b Y^a."""
    return _lie_one_form(duals.jet(comp_fn, xs), duals.jet(vec_fn, xs))


def _lie_two_form(mjet, yjet):
    (m, dm), (y, dy) = mjet, yjet
    dim = len(y)
    out = [[0.0] * dim for _ in range(dim)]
    for b in range(dim):
        for c in range(b + 1, dim):
            s = _along([d[b][c] for d in dm], y)
            s = s + _along([row[c] for row in m], dy[b]) + _along(m[b], dy[c])
            out[b][c] = s
            out[c][b] = -s
    return out


def lie_two_form(vec_fn, mat_fn, xs):
    """Lie derivative of a two-form given by its evaluation matrix, from
    the jets of Y and W:
    (L_Y W)_bc = Y^a d_a W_bc + W_ac d_b Y^a + W_ba d_c Y^a."""
    return _lie_two_form(duals.jet(mat_fn, xs), duals.jet(vec_fn, xs))


def _lie_euler_lagrange(ejet, j2, d1, d2, lift):
    (e0, d_e), n = ejet, len(d1)
    u = [1.0, *j2[n + 1 : 2 * n + 1]]
    acc = j2[2 * n + 1 : 3 * n + 1]
    # the second lift adds d^2/dt^2 X^i along the contact direction
    lift = lift + [
        _along([_along(r, u) for r in h], u) + _along(r1[1:], acc) for h, r1 in zip(d2, d1)]
    out = []
    for j in range(n):
        s = _along([d[j] for d in d_e], lift)
        for k in range(n):
            s = s + e0[k] * d1[k][j + 1]
        out.append(s)
    return out


def lie_euler_lagrange(X, G, dyn, j2_xs):
    """Lie derivative of the motion two-form (its row reads the metric ``G``
    of ``dyn``'s record) along the second holonomic lift, at (x, v, a)."""
    return _lie_euler_lagrange(dyn.motion_jet(j2_xs), j2_xs, *_prolong_jet(X, j2_xs))


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


def _note(running, family, residual):
    running[family] = worst(residual, running.get(family))


def check_equivalences(model, gens, points_e, points_phase, points_te, points_j2,
                       tol_pass=TOL_PASS, tol_fail=TOL_FAIL):
    """One :class:`EquivalenceReport` per generator of ``gens``.  At each
    point the jets that do not depend on the generator (G, theta and from it
    dL, and the connection record the model's connections share, whose one
    jet gives the raised blocks', lifted by :func:`_lifted`, Omega's and the
    motion row's) are evaluated once, and every generator's families read
    them; the holonomic lift's jet is in closed form from the generator's."""
    n, theta, pconn = model.chart.n, model.theta, model.pconn
    running = [{} for _ in gens]
    for te in points_te:
        kjet = _raised_jet(model.K, te)
        for X, w in zip(gens, running):
            _note(w, "spacetime_connection", _lie_spacetime_connection(
                kjet, te, *X.jet(te), X.d2(te)))
    for xs in points_phase:
        ljet = pconn.jet(xs)  # the record of Omega too
        lifted = _lifted(pconn.raise_(xs[: n + 1], *ljet)[:2], xs)
        mjet = omega_jet(ljet, xs[n + 1 : 2 * n + 1])
        if theta is not None:
            cjet = theta.jet(xs)
            dlag = _lagrangian_partials(cjet, xs[n + 1 : 2 * n + 1])
        for X, w in zip(gens, running):
            d1, d2, lift = _prolong_jet(X, xs)
            yjet = lift, _lift_partials(d1, d2, xs[n + 1 : 2 * n + 1])
            _note(w, "phase_connection", _lie_phase_connection(lifted, xs, d1, d2, lift))
            _note(w, "dynamical_connection", _lie_dynamical(lifted, xs, d1, d2, lift))
            _note(w, "two_form", _lie_two_form(mjet, yjet))
            if theta is not None:
                _note(w, "cartan_form", _lie_one_form(cjet, yjet))
                _note(w, "lagrangian", _along(dlag, lift))
    for xs in points_e:
        gjet = model.G.jet(xs)
        for X, w in zip(gens, running):
            _note(w, "metric", _lie_metric(gjet, *X.jet(xs)))
    for j2 in points_j2:
        ejet = model.dyn.motion_jet(j2)
        for X, w in zip(gens, running):
            _note(w, "motion_form", _lie_euler_lagrange(ejet, j2, *_prolong_jet(X, j2)))
    name = getattr(model, "name", "?")
    return [EquivalenceReport(name, X.label or "X", w, tol_pass, tol_fail)
            for X, w in zip(gens, running)]


# -- quantisable phase functions -------------------------------------------


class SpecialQuadratic:
    """Phase function whose velocity dependence is (1/2) f0 * G(v, v) +
    linear + scalar, with coefficient fields on spacetime.  ``value`` is
    that function as one :func:`~galimech.geometry.quadratic_field`, and
    ``deps`` (the phase slots it reads) is the field's."""

    def __init__(self, G, f0, flin, fconst):
        self.G = G
        self.chart = G.chart
        self.f0 = as_field(f0)
        self.flin = [as_field(f) for f in flin]
        self.fconst = as_field(fconst)
        self.value = quadratic_field(G, self.f0, self.flin, self.fconst)
        self.deps = self.value.deps

    def __call__(self, xs):
        return self.value(xs)


def gamma_dot(fn, dyn, xs):
    """Derivative of a phase function (honouring its ``deps``) along the
    second-order connection."""
    return _along(dyn.vector_values(xs), duals.grad(fn, list(xs)))


def noether_charges(gens, theta, check_points=None, tol=TOL_PASS, dyn=None):
    """:func:`noether_charge` of each generator of ``gens``; at each check
    point the form's jet is evaluated once for all of them.  The form is
    horizontal, so its Lie derivative reads only the partials of the lift's
    spacetime components, the generator's first partials.  With the
    second-order connection ``dyn``, each entry also carries the worst
    derivative of the charge along the motion over the check points, its
    :func:`charge_differential` contracted with the motion's vector."""
    n, G = theta.chart.n, theta.G
    assert all(f.is_zero for f in theta.fields[n + 1 :]), "the potential form is horizontal"
    at = [(p, theta.jet(p), None if dyn is None else dyn.vector_values(p))
          for p in check_points or ()]
    residuals, rates = [None] * len(gens), [None] * len(gens)
    for k, X in enumerate(gens):
        for p, cjet, vec in at:
            xjet, v = X.jet(p), p[n + 1 : 2 * n + 1]
            yjet = _lift(*xjet, v), _lift_partials(xjet[1], None, v)
            residuals[k] = worst(_lie_one_form(cjet, yjet), residuals[k])
            if dyn is not None:
                rates[k] = worst(_along(vec, charge_differential(cjet, xjet)), rates[k])
    out = []
    for X, residual in zip(gens, residuals):
        flin = [-sum((X.comps[a - 1] * G.entry(a, b) for a in range(1, n + 1)), ZERO)
                for b in range(1, n + 1)]
        fconst = constant(-X.x0) * theta.A[0]
        for a in range(1, n + 1):
            fconst = fconst - X.comps[a - 1] * theta.A[a]
        charge = SpecialQuadratic(G, constant(X.x0), flin, fconst)
        out.append((charge, residual, residual is None or residual < tol))
    return out if dyn is None else [(*c, rate) for c, rate in zip(out, rates)]


def noether_charge(X, theta, check_points=None, tol=TOL_PASS):
    """Conserved charge of a generator preserving the potential form.

    The charge is minus the contraction of the generator into the form,
    assembled directly in coefficient shape.  When sample points are given,
    the invariance residual of the form is measured; a generator that fails
    it still yields a function, flagged as not conserved.
    """
    return noether_charges([X], theta, check_points, tol)[0]


@dataclass
class MomentumMapEntry:
    """One component of a momentum map: a conserved charge, its constant
    time scale, and the gauge anchor fixing the additive constant."""

    label: str
    generator: SpacetimeVectorField
    charge: SpecialQuadratic
    theta: object  # the potential form; the charge is -(x0 theta_0 + X^a theta_a)
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
        """Commutator-closure defect against the declared constants: the
        fields [e_p, e_q] - sum_r c_r e_r of the declared pairs, time
        component first, as one program evaluated at each point."""
        defects = []
        for (p, q), coeffs in self.structure.items():
            bracket = spacetime_commutator(self.generators[p], self.generators[q])
            want = [0.0] + [ZERO] * len(bracket.comps)
            for r, c in enumerate(coeffs):
                if c:
                    g = self.generators[r]
                    want = [w + c * x for w, x in zip(want, [g.x0, *g.comps])]
            defects.append([a - b for a, b in zip([bracket.x0, *bracket.comps], want)])
        run = program(defects)
        return worst([run(xs) for xs in points])


def momentum_map(action, theta, check_points, anchor=None, tol=TOL_PASS):
    """Momentum map of a projectable action preserving the potential form.

    Per generator the charge is the contraction charge and the time scale
    is the (constant) time component of the generator.  The additive gauge
    is fixed by recording the charge value at the anchor (chart origin with
    zero velocity by default).  A generator whose invariance residual is
    above ``tol`` raises :class:`NotASymmetryError`; a nan residual (an
    overflowing input, not a verdict) stays in its entry, ``conserved``
    False, for the caller to report.
    """
    anchor = [0.0] * (2 * theta.chart.n + 1) if anchor is None else anchor
    entries = []
    charges = noether_charges(action.generators, theta, check_points, tol)
    for idx, (gen, (charge, residual, conserved)) in enumerate(zip(action.generators, charges)):
        if not (conserved or math.isnan(residual)):
            raise NotASymmetryError(
                f"generator {gen.label or idx} of action {action.name}: "
                f"invariance residual {residual:.3e}"
            )
        entries.append(
            MomentumMapEntry(
                label=gen.label or f"{action.name}[{idx}]",
                generator=gen,
                charge=charge,
                theta=theta,
                tau=gen.x0,
                anchor_point=list(anchor),
                anchor_value=value(charge.value(anchor)),
                symmetry_residual=residual,
                conserved=conserved,
            )
        )
    return entries


# -- covariant Hamiltonian lift ----------------------------------------------


def lift_operator(omega):
    """The lift as a linear map, as a callable of a phase point: (u, Lam)
    with u = [1, v, gamma] the second-order connection and Lam the Poisson
    tensor of (dt, Omega).  The lift of a phase function f at time scale
    tau is tau u + Lam.df; its blocks are Lam[x^h][v^k] = -G^hk,
    Lam[v^h][x^k] = G^hk and Lam[v^h][v^k] = B^hk - B^kh with
    B = G^-1 gl_sp^T, and its time row and column are zero.  The blocks
    and G^-1 are the record's :attr:`~galimech.geometry.PhaseConnection.raised`."""
    n, dim, conn = omega.chart.n, 2 * omega.chart.n + 1, omega.conn

    def op(xs):
        kv, ginv = conn.raised(xs)
        v = xs[n + 1 : 2 * n + 1]
        gl = lift_of(kv, v)
        b = [[_along(ginv[h], gl[k][1:]) for k in range(n)] for h in range(n)]
        lam = [[0.0] * dim for _ in range(dim)]
        for h in range(n):
            for k in range(n):
                # one entry of G^-1 fills both mirror entries: Lam is exactly antisymmetric
                lam[1 + h][n + 1 + k], lam[n + 1 + k][1 + h] = -ginv[h][k], ginv[h][k]
                lam[n + 1 + h][n + 1 + k] = b[h][k] - b[k][h]
        return [1.0, *v, *(g[0] + _along(g[1:], v) for g in gl)], lam

    op.deps = omega.deps
    return op


def apply_lift(op, df, tau):
    """tau u + Lam.df: the lift of a differential ``df`` at time scale
    ``tau``, from the value ``op`` = (u, Lam) of :func:`lift_operator`."""
    u, lam = op
    return [tau * a + _along(row, df) for a, row in zip(u, lam)]


def tau_lift_values(fn, tau, omega, xs):
    """Components of the covariant lift of a phase function at a point:
    tau u + Lam.df, with df honouring the ``deps`` of ``fn``."""
    return apply_lift(lift_operator(omega)(xs), duals.grad(fn, list(xs)), tau)


def tau_lift(fn, tau, omega):
    """The lift of :func:`tau_lift_values` as a callable of a phase point.
    It reads the operator and df, so its ``deps`` is the union of theirs:
    the two-form's and ``fn``'s."""

    def lift(xs):
        return tau_lift_values(fn, tau, omega, xs)

    lift.deps = support(Field(fn, duals.deps_of(fn)), lift_operator(omega))
    return lift


def lift_jet(opjet, djet, tau):
    """Jet of the lift tau u + Lam.df from the jets of :func:`lift_operator`
    and of df, by the product rule:
    d_k(tau u + Lam.df) = tau d_k u + (d_k Lam).df + Lam.(d_k df)."""
    (op, dop), (df, ddf) = opjet, djet
    return apply_lift(op, df, tau), [
        [a + _along(row, dd) for a, row in zip(apply_lift(dk, df, tau), op[1])]
        for dk, dd in zip(dop, ddf)]


def generator_match(entry, omega, points):
    """Defect between the lifted charge (at its own time scale) and the
    holonomic lift of the generator; two-sided per the uniqueness of the
    lift in its time component.  The charge's dF is its
    :func:`charge_differential` from the jets of the potential form and of
    the generator."""
    op, theta, X = lift_operator(omega), entry.theta, entry.generator
    return worst([[a - b for a, b in zip(
        apply_lift(op(xs), charge_differential(theta.jet(xs), X.jet(xs)), entry.tau),
        X.prolong1_values(xs))] for xs in points])


# -- classification of quadratic phase functions ------------------------------


class _ClassifiedQuadratic(SpecialQuadratic):
    """A classified phase function: its value and ``deps`` are the function's
    own, and each coefficient field is a bare callable of a base point that
    reads only its own part of the function's velocity jet."""

    def __init__(self, G, fn, f0, flin, fconst, validate):
        self.G, self.chart, self.f0, self.flin, self.fconst = G, G.chart, f0, flin, fconst
        self.value, self.deps, self.validate = fn, duals.deps_of(fn), validate


def classify_special_quadratic(fn, G, fit_tol=1e-10, validate_at=None):
    """Read a phase function as quadratic in the velocities with quadratic
    part proportional to the metric.

    Its coefficients at a base point are its jet along the velocity slots
    at v = 0 (exact, and honouring the ``deps`` of ``fn``): fconst = fn(x, 0),
    flin_h = d_{v_h} fn and quad_hk = d_{v_h} d_{v_k} fn; f0 is the metric
    trace of quad over n.  Returns a :class:`SpecialQuadratic` whose value
    is ``fn`` itself, and whose coefficient fields each read only their own
    part of the jet.  With ``validate_at`` base points the reading is
    checked eagerly: :class:`ClassifyError` is raised when the residual at
    probe velocities is too large or the quadratic part is not metric
    proportional.
    """
    n = G.chart.n
    probe = [[0.3 + 0.1 * i for i in range(n)], [1.0] * n, [-0.7, 0.4] + [0.2] * (n - 2)]

    def at(xs):  # the base point of xs, at zero velocity
        return list(xs[: n + 1]) + [0.0] * n

    def read_f0(xs):
        """(f0, quad) at the base point of ``xs``."""
        quad = {(h, k): duals.partial2(fn, at(xs), n + 1 + h, n + 1 + k)
                for h in range(n) for k in range(h, n)}
        ginv = G.inv(xs[: n + 1])
        return sum(ginv[h][k] * quad[_sym_key(k, h)] for h in range(n) for k in range(n)) / n, quad

    flin = [Field(lambda xs, s=n + 1 + h: duals.partial(fn, at(xs), s)) for h in range(n)]
    fconst = Field(lambda xs: fn(at(xs)))

    def check(xs_e):
        (f0, quad), base = read_f0(xs_e), list(xs_e[: n + 1])
        lin, const = [f(xs_e) for f in flin], fconst(xs_e)
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
    return _ClassifiedQuadratic(G, fn, Field(lambda xs: read_f0(xs)[0]), flin, fconst, check)


# -- brackets ----------------------------------------------------------------


def poisson_bracket(f_fn, g_fn, omega, xs):
    """The Poisson bracket {f, g} = dg.Lam.df at a point: dg along the
    zero-scale lift of f."""
    df = duals.grad(f_fn, xs)
    return _along(duals.grad(g_fn, xs), apply_lift(lift_operator(omega)(xs), df, 0.0))


def special_bracket(f, g, omega, classify=True):
    """Bracket closing on the quadratic phase functions with constant time
    component: the Poisson bracket corrected by the time scales contracted
    through the second-order connection.  The time scales are constant, and
    are read at the chart origin.  Its value reads one :func:`lift_operator`
    evaluation and one grad per function."""
    for sq, nm in ((f, "f"), (g, "g")):
        if not isinstance(sq, SpecialQuadratic):
            raise ClassifyError("not-special-quadratic", f"{nm} is not in coefficient form")
    origin = [0.0] * (omega.chart.n + 1)
    f0 = value(f.f0(origin))
    g0 = value(g.f0(origin))
    lift = lift_operator(omega)

    def val(xs):
        # dg.(f0 u + Lam.df) - g0 u.df = {f, g} + f0 gamma.g - g0 gamma.f
        op, df = lift(xs), duals.grad(f, xs)
        return _along(duals.grad(g, xs), apply_lift(op, df, f0)) - g0 * _along(op[0], df)

    if not classify:
        return val
    return classify_special_quadratic(val, omega.G)


def commutator(ujet, vjet):
    """Bracket of two vector fields from their jets (values, grad) at a point."""
    (u, du), (v, dv), dim = ujet, vjet, range(len(ujet[0]))
    return [sum(u[c] * dv[c][a] - v[c] * du[c][a] for c in dim) for a in dim]


def charge_jets(charges, dim):
    """One program giving (dF, [d_k dF for k]) of each charge's field F
    over the ``dim`` phase slots, by the field's derivative rules."""
    e = range(dim)
    return program([[[F.d(k) for k in e], [[F.d(min(k, h)).d(max(k, h)) for h in e] for k in e]]
                    for F in (f.value for f in charges)])


def bracket_jet(hjet, gjet):
    """Jet of the Poisson bracket {f, g} = dg.h_f from the jets of dg and of
    h_f = Lam.df, the zero-scale lift of f (:func:`lift_jet`), by the
    product rule: d_k{f,g} = (d_k dg).h_f + dg.(d_k h_f)."""
    (hf, dhf), (dg, ddg) = hjet, gjet
    return _along(dg, hf), [_along(a, hf) + _along(dg, b) for a, b in zip(ddg, dhf)]


def vector_commutator(u_fn, v_fn, xs):
    """Bracket of two vector fields given by component functions."""
    return commutator(duals.jet(u_fn, xs), duals.jet(v_fn, xs))

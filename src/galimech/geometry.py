"""Derived geometric structure on spacetime and phase-space charts.

Everything is expressed in the coordinate basis with the ordering
(d0, d^a, dv^a) on phase space.  Two-forms are represented by their
evaluation matrices M[A][B] = omega(e_A, e_B) under the wedge convention
(alpha ^ beta)(X, Y) = alpha(X) beta(Y) - alpha(Y) beta(X).

Index conventions: spacetime indices lam, mu run 0..n with 0 the time
slot; spatial indices a, b, h, k run 1..n; the velocity slot of spatial
index a is n+a.

Connection coefficients follow the sign convention in which the geodesic
acceleration is a *plus* contraction, i.e. the spatial coefficients of a
metric-compatible connection are minus the usual Christoffel symbols.
"""

import numpy as np

from . import duals
from .fields import Field, ZERO, as_field, constant, support
from .units import ScaledScalar, DIMENSIONLESS


class SingularMetricError(RuntimeError):
    """Metric failed a positive-definiteness probe."""


class SingularOmegaError(RuntimeError):
    """Constrained contraction solve was rank deficient."""


def _sym_key(a, b):
    return (a, b) if a <= b else (b, a)


class Metric:
    """Spacelike metric: symmetric positive-definite matrix of fields on E."""

    def __init__(self, chart, entries):
        """``entries`` maps (a, b) with 1 <= a <= b <= n to a Field."""
        self.chart = chart
        self._e = {}
        n = chart.n
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                f = entries.get((a, b), ZERO if a != b else None)
                if f is None:
                    raise ValueError(f"metric diagonal entry ({a},{a}) missing")
                self._e[(a, b)] = as_field(f)
        self.is_constant = all(f.const_value is not None for f in self._e.values())
        self.deps = self.mat_deps = support(*self._e.values())
        self._const_mat = None
        self._const_inv = None
        if self.is_constant:
            m = [
                [self._e[_sym_key(a, b)].const_value for b in range(1, n + 1)]
                for a in range(1, n + 1)
            ]
            self._const_mat = m
            self._const_inv = np.linalg.inv(np.array(m)).tolist()

    def entry(self, a, b):
        return self._e[_sym_key(a, b)]

    def mat(self, xs):
        n = self.chart.n
        if self._const_mat is not None:
            return [row[:] for row in self._const_mat]
        vals = {k: f(xs) for k, f in self._e.items()}
        return [[vals[_sym_key(a, b)] for b in range(1, n + 1)] for a in range(1, n + 1)]

    def inv(self, xs):
        if self._const_inv is not None:
            return [row[:] for row in self._const_inv]
        try:
            return duals.invert_generic(self.mat(xs))
        except ZeroDivisionError:
            raise SingularMetricError(f"metric is singular at {list(map(duals.value, xs))}") from None

    def norm_sq(self, xs):
        """G(v, v) for the velocity slots v of a phase point."""
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        gm = self.mat(xs)
        out = 0.0
        for a in range(n):
            for b in range(n):
                out = out + gm[a][b] * v[a] * v[b]
        return out

    def check_spd(self, points):
        """Cholesky probe at sample points; raises on failure."""
        for xs in points:
            m = np.array([[float(v) for v in row] for row in self.mat(xs)])
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise SingularMetricError(
                    f"metric not positive definite at {list(xs)}"
                ) from None


def identity_metric(chart):
    return Metric(
        chart,
        {(a, b): constant(1.0 if a == b else 0.0) for a in range(1, chart.n + 1) for b in range(a, chart.n + 1)},
    )


def _with_velocities(deps, n):
    """A slot set plus the velocity slots n+1..2n (unknown stays unknown)."""
    return None if deps is None else deps | frozenset(range(n + 1, 2 * n + 1))


def _field_blocks(sym):
    """Evaluator of a coefficient set given by fields {(lam, mu): [n fields]};
    its ``deps`` is the union of theirs."""

    def blocks(xs):
        return {k: [f(xs) for f in fs] for k, fs in sym.items()}

    blocks.deps = support(*(f for fs in sym.values() for f in fs))
    return blocks


class SpacetimeConnection:
    """dt-preserving torsion-free linear connection K[lam][i][mu], with the
    (lam, mu) symmetry shared structurally (one entry per unordered pair).

    ``blocks`` evaluates the whole connection in one pass: at a point it
    returns {(lam, mu) with lam <= mu: [n values]}.  The fields in ``sym``
    are per-component views for code that reads a single coefficient; a
    connection built from fields alone evaluates those fields.
    """

    def __init__(self, chart, sym, blocks=None):
        """``sym`` maps (lam, mu) with lam <= mu to a list of n fields
        (component index i = 1..n); ``blocks``, when given, is the evaluator
        those fields are views of."""
        self.chart = chart
        n = chart.n
        self.sym = {
            (lam, mu): list(sym.get((lam, mu), [ZERO] * n))
            for lam in range(0, n + 1)
            for mu in range(lam, n + 1)
        }
        self.blocks = blocks or _field_blocks(self.sym)

    def entry(self, lam, i, mu):
        """Coefficient field K_lam^i_mu (i spatial, 1..n)."""
        return self.sym[_sym_key(lam, mu)][i - 1]

    def values(self, xs):
        """All coefficients at a point: dict {(lam, mu): [n values]}."""
        return self.blocks(xs)


def zero_connection(chart):
    return SpacetimeConnection(chart, {})


class MetricBlocks:
    """One-pass evaluator of a metric-compatible connection.

    At a point it returns every coefficient block {(lam, mu): [n values]}
    from one metric inverse and one seeded pass per spacetime direction
    over the pair (metric, gauge potential A), which differentiates G and A
    together.  The gauge part is read from dA: its spatial curl fixes the
    antisymmetric part of the lowered time-space blocks, and
    d_a A_0 - d_0 A_a, raised by the same inverse, is the time-time block.
    Without A, the explicit gauge fields ``phi2`` and ``time_gauge`` of
    :func:`metric_connection` are read once per point instead.  ``em`` is a
    minimally coupled field, whose (q/m)-scaled raised entries enter the
    time-space blocks at half weight and the time-time block at full weight.
    ``deps`` is the union of the inputs' supports; seeded passes run only
    along the support of G and A (``_inputs_deps``).
    """

    def __init__(self, G, A=None, phi2=None, time_gauge=None, em=None):
        self.G = G
        self.A = None if A is None or all(a.is_zero for a in A) else A
        self.phi2 = phi2 or {}
        self.time_gauge = time_gauge
        self.em = em
        self._inputs_deps = support(G, *(self.A or ()))
        self.deps = support(G, *(self.A or ()), *self.phi2.values(), *(time_gauge or ()),
                            *(em._e.values() if em is not None else ()))

    def _inputs(self, p):
        """(G, A) at a point; each part is empty when it has no partials."""
        return ([] if self.G.is_constant else self.G.mat(p),
                [] if self.A is None else [a(p) for a in self.A])

    def __call__(self, xs):
        G, A, em = self.G, self.A, self.em
        n = G.chart.n
        ginv = G.inv(xs)
        # d[lam] = (dg[lam], da[lam]) with dg[lam][h][b] = d_lam G_(h+1)(b+1)
        # and da[lam][mu] = d_lam A_mu; dg is None for a constant metric
        d = duals.grad(self._inputs, xs[: n + 1])
        dg = None if G.is_constant else [dl[0] for dl in d]

        def raised(low):
            if not any(low):  # exact float zeros, as for a flat metric
                return [0.0] * n
            return [sum(ginv[i][h] * low[h] for h in range(n)) for i in range(n)]

        if A is None:
            curl = {k: f(xs) for k, f in self.phi2.items()}
            tt = [0.0] * n if self.time_gauge is None else [f(xs) for f in self.time_gauge]
        else:
            da = [dl[1] for dl in d]
            curl = {
                (a, b): da[a][b] - da[b][a] for a in range(1, n + 1) for b in range(a + 1, n + 1)
            }
            tt = raised([da[a][0] - da[0][a] for a in range(1, n + 1)])

        out = {}
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                out[(a, b)] = [0.0] * n if dg is None else raised([
                    -0.5 * (dg[a][h - 1][b - 1] + dg[b][h - 1][a - 1] - dg[h][a - 1][b - 1])
                    for h in range(1, n + 1)
                ])
        for b in range(1, n + 1):
            low = []
            for h in range(1, n + 1):
                v = 0.0 if dg is None else -0.5 * dg[0][h - 1][b - 1]
                key = _sym_key(h, b)
                if key in curl and h != b:
                    sgn = 1.0 if h < b else -1.0
                    v = v + 0.5 * sgn * curl[key]
                if em is not None:
                    v = v + 0.5 * em.coupling * em.value(h, b, xs)
                low.append(v)
            out[(0, b)] = raised(low)
        if em is not None:
            f0 = raised([em.coupling * em.value(h, 0, xs) for h in range(1, n + 1)])
            tt = [t + f for t, f in zip(tt, f0)]
        out[(0, 0)] = tt
        return out


def _derived_connection(chart, blocks):
    """Spacetime connection of an evaluator, with per-component views."""
    n = chart.n
    views = {
        (lam, mu): [Field(lambda xs, k=(lam, mu), i=i: blocks(xs)[k][i], deps=blocks.deps)
                    for i in range(n)]
        for lam in range(0, n + 1)
        for mu in range(lam, n + 1)
    }
    return SpacetimeConnection(chart, views, blocks)


def metric_connection(chart, G, phi2=None, time_gauge=None, A=None):
    """Metric-compatible connection.

    The spatial block and the symmetric time part are determined by the
    metric.  The gauge part comes from a spacetime 1-form potential ``A``
    (n+1 fields), chosen so the derived two-form is exact, or else from
    explicit fields: ``phi2`` (antisymmetric spatial fields, entered as a
    dict {(a, b): Field} for a < b) fixes the antisymmetric part of the
    lowered time-space coefficients, and ``time_gauge`` (n fields, raised
    index) fixes the time-time coefficients.  All default to zero.
    """
    phi2 = {k: as_field(f) for k, f in (phi2 or {}).items() if not as_field(f).is_zero}
    if time_gauge is not None:
        time_gauge = [as_field(f) for f in time_gauge]
    return _derived_connection(chart, MetricBlocks(G, A, phi2, time_gauge))


def _phase_sym(vel, aff, n):
    """Spacetime indexing {(lam, mu): fields} of phase-connection data."""
    return {
        (lam, mu): vel[(lam, mu)] if mu else aff[lam]
        for lam in range(0, n + 1)
        for mu in range(lam, n + 1)
    }


def _phase_maps(sym, n):
    """Phase-connection data (vel, aff) of a spacetime-indexed field set."""
    vel = {(lam, k): sym[_sym_key(lam, k)] for lam in range(0, n + 1) for k in range(1, n + 1)}
    aff = {lam: sym[_sym_key(lam, 0)] for lam in range(0, n + 1)}
    return vel, aff


def _dynamical_sym(quad, lin, const, n):
    """Spacetime indexing {(lam, mu): fields} of second-order data."""
    sym = {(0, 0): const}
    for h in range(1, n + 1):
        sym[(0, h)] = lin[h]
        for k in range(h, n + 1):
            sym[(h, k)] = quad[(h, k)]
    return sym


class PhaseConnection:
    """Affine connection of the velocity bundle.

    ``vel[(lam, k)]`` holds the n fields multiplying v^k in the lift along
    d^lam; ``aff[lam]`` the velocity-independent part.  The correspondence
    with a spacetime connection is pure re-indexing, so the maps below
    share field objects and round-trip exactly, and hand along the one-pass
    evaluator ``blocks`` (spacetime indexing); the fields are views.
    """

    def __init__(self, chart, vel, aff, blocks=None):
        self.chart = chart
        self.vel = vel
        self.aff = aff
        self.blocks = blocks or _field_blocks(_phase_sym(vel, aff, chart.n))

    def lift_values(self, xs):
        """gl[k][lam]: value of the lift coefficient for component k along
        d^lam, as a full (affine in velocity) function of the phase point."""
        n = self.chart.n
        return lift_of(self.blocks(xs), xs[n + 1 : 2 * n + 1])


def lift_of(kv, v):
    """Lift coefficients gl[k][lam] = K_(lam,0)^k + K_(lam,j)^k v^j of the
    blocks ``kv`` at velocity ``v``; linear in ``kv``, so it also lifts
    derivative blocks."""
    n = len(v)
    gl = []
    for k in range(n):
        row = []
        for lam in range(0, n + 1):
            s = kv[_sym_key(lam, 0)][k]
            for j in range(1, n + 1):
                s = s + kv[_sym_key(lam, j)][k] * v[j - 1]
            row.append(s)
        gl.append(row)
    return gl


def gamma00_of(kv, v):
    """Acceleration K_(0,0) + 2 K_(0,h) v^h + K_(h,k) v^h v^k of the blocks
    ``kv`` at velocity ``v``; linear in ``kv``, like :func:`lift_of`."""
    n = len(v)
    out = []
    for i in range(n):
        s = kv[(0, 0)][i]
        for h in range(1, n + 1):
            s = s + 2.0 * kv[(0, h)][i] * v[h - 1]
            for k in range(h, n + 1):
                mult = 1.0 if h == k else 2.0
                s = s + mult * kv[(h, k)][i] * v[h - 1] * v[k - 1]
        out.append(s)
    return out


def phase_from_spacetime(K):
    vel, aff = _phase_maps(K.sym, K.chart.n)
    return PhaseConnection(K.chart, vel, aff, K.blocks)


def spacetime_from_phase(gamma):
    chart = gamma.chart
    return SpacetimeConnection(chart, _phase_sym(gamma.vel, gamma.aff, chart.n), gamma.blocks)


class DynamicalConnection:
    """Second-order connection with coefficients polynomial in velocity.

    Evaluated in one pass through ``blocks`` (spacetime indexing, shared
    with the phase connection it corresponds to); the fields are views.
    """

    def __init__(self, chart, quad, lin, const, blocks=None):
        self.chart = chart
        self.quad = quad  # {(h, k) h <= k: [n fields]}
        self.lin = lin  # {h: [n fields]}
        self.const = const  # [n fields]
        self.blocks = blocks or _field_blocks(_dynamical_sym(quad, lin, const, chart.n))

    def gamma00_values(self, xs):
        n = self.chart.n
        return gamma00_of(self.blocks(xs), xs[n + 1 : 2 * n + 1])

    def vector_values(self, xs):
        """Components of the associated phase vector field (time part 1)."""
        n = self.chart.n
        return [1.0, *xs[n + 1 : 2 * n + 1], *self.gamma00_values(xs)]


def dynamical_from_phase(gamma):
    chart = gamma.chart
    n = chart.n
    quad = {}
    lin = {}
    for h in range(1, n + 1):
        lin[h] = gamma.aff[h]
        for k in range(h, n + 1):
            quad[(h, k)] = gamma.vel[(h, k)]
    return DynamicalConnection(chart, quad, lin, gamma.aff[0], gamma.blocks)


def phase_from_dynamical(dyn):
    n = dyn.chart.n
    vel, aff = _phase_maps(_dynamical_sym(dyn.quad, dyn.lin, dyn.const, n), n)
    return PhaseConnection(dyn.chart, vel, aff, dyn.blocks)


class EMField:
    """Antisymmetric spacetime 2-form with particle data.

    Stores the raw field entries f[(lam, mu)] for lam < mu; the coupling
    scale q/m multiplies everywhere the field enters derived objects.
    """

    def __init__(self, chart, entries, q, m):
        self.chart = chart
        self._e = {k: as_field(f) for k, f in entries.items()}
        for (lam, mu) in self._e:
            if not lam < mu:
                raise ValueError("field entries must be given with lam < mu")
        self.q = q if isinstance(q, ScaledScalar) else ScaledScalar(float(q), DIMENSIONLESS)
        self.m = m if isinstance(m, ScaledScalar) else ScaledScalar(float(m), DIMENSIONLESS)

    @property
    def coupling(self):
        return self.q.value / self.m.value

    def entry(self, lam, mu):
        if lam == mu:
            return ZERO
        if lam < mu:
            return self._e.get((lam, mu), ZERO)
        return -self._e.get((mu, lam), ZERO)

    def value(self, lam, mu, xs):
        if lam == mu:
            return 0.0
        sgn = 1.0
        if lam > mu:
            lam, mu, sgn = mu, lam, -1.0
        f = self._e.get((lam, mu))
        return 0.0 if f is None else sgn * f(xs)


class Observer:
    """Section of the phase bundle: n velocity fields on E."""

    def __init__(self, chart, comps=None):
        self.chart = chart
        self.comps = [as_field(c) for c in (comps or [ZERO] * chart.n)]

    def phase_point(self, xs_e):
        return list(xs_e[: self.chart.n + 1]) + [c(xs_e) for c in self.comps]


class PhaseTwoForm:
    """Cosymplectic two-form of a metric and a phase connection.

    Carries back-references to (G, Gamma); the associated second-order
    connection is the unique one annihilated by the form.  The matrix reads
    the slots of G and of the connection, and the velocities.
    """

    def __init__(self, G, gamma_conn):
        self.chart = G.chart
        self.G = G
        self.conn = gamma_conn
        self.dyn = dynamical_from_phase(gamma_conn)
        self.matrix_deps = _with_velocities(support(G, gamma_conn.blocks), G.chart.n)

    def matrix(self, xs):
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        gm = self.G.mat(xs)
        gl = self.conn.lift_values(xs)
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
                s = sum(gm[a][k] * gl[k][1 + b] - gm[b][k] * gl[k][1 + a] for k in range(n))
                m[1 + a][1 + b] = s
        for b in range(n):
            s = -sum(gm[k][b] * gl[k][0] for k in range(n))
            s = s - sum(gv[k] * gl[k][1 + b] for k in range(n))
            m[0][1 + b] = s
            m[1 + b][0] = -s
        return m

    def contraction(self, vec_vals, xs):
        """Components of the one-form i_Y Omega for Y given by components."""
        m = self.matrix(xs)
        dim = len(m)
        return [
            sum(vec_vals[a] * m[a][b] for a in range(dim)) for b in range(dim)
        ]

    def nondegeneracy_det(self, xs):
        """Determinant probe for dt ^ Omega^n: first row is dt, the rest are
        the rows of Omega on the kernel basis of dt."""
        n = self.chart.n
        m = self.matrix(xs)
        dim = 2 * n + 1
        rows = [[1.0] + [0.0] * (dim - 1)]
        for a in range(1, dim):
            rows.append([float(x) for x in m[a]])
        return float(np.linalg.det(np.array(rows)))


def minimal_coupling(omega, em):
    """Total structure absorbing an electromagnetic field.

    Returns the two-form of the total connection, whose time-space and
    time-time coefficients pick up the raised field entries scaled by
    q/(2m) and q/m respectively.  Entrywise the evaluation matrix equals
    the matrix of ``omega`` plus the (q/m)-scaled field embedded in the
    spacetime block.  ``omega`` must come from a metric connection.
    """
    if em is None or em.coupling == 0.0 or not em._e:
        return omega
    nat = omega.conn.blocks
    if not isinstance(nat, MetricBlocks):
        raise TypeError("minimal coupling needs the two-form of a metric connection")
    total = MetricBlocks(nat.G, nat.A, nat.phi2, nat.time_gauge, em)
    return PhaseTwoForm(omega.G, phase_from_spacetime(_derived_connection(omega.chart, total)))


def motion_row(G, dyn, xs, accel):
    """The motion residual lowered by the metric: G_ab (accel^a - gamma^a)."""
    n = G.chart.n
    gm = G.mat(xs)
    g00 = dyn.gamma00_values(xs)
    return [sum(gm[a][b] * (accel[a] - g00[a]) for a in range(n)) for b in range(n)]


def euler_lagrange_matrix(G, dyn, p, accel):
    """Horizontal two-form of the motion residual at second-order data."""
    n = G.chart.n
    xs = p.coords() if hasattr(p, "coords") else list(p)
    m = [[0.0] * (n + 1) for _ in range(n + 1)]
    for b, s in enumerate(motion_row(G, dyn, xs, accel)):
        m[0][1 + b] = s
        m[1 + b][0] = -s
    return m


class PoincareCartan:
    """Horizontal potential one-form, stored by its metric and gauge data;
    its components read the slots of both, and the velocities."""

    def __init__(self, G, A):
        self.chart = G.chart
        self.G = G
        self.A = [as_field(a) for a in A]
        self.components_deps = _with_velocities(support(G, *self.A), G.chart.n)

    def theta0(self, xs):
        return -0.5 * self.G.norm_sq(xs) + self.A[0](xs)

    def theta_spatial(self, a, xs):
        """Component along d^a, a = 1..n."""
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        return (
            sum(self.G.entry(a, b)(xs) * v[b - 1] for b in range(1, n + 1))
            + self.A[a](xs)
        )

    def components(self, xs):
        n = self.chart.n
        out = [self.theta0(xs)]
        out += [self.theta_spatial(a, xs) for a in range(1, n + 1)]
        out += [0.0] * n
        return out


class LagrangianForm:
    """Contact splitting of a Poincare-Cartan form, sharing its metric and
    gauge data: ``value`` is the Lagrangian (the time-horizontal d0
    coefficient) and ``component`` the momentum (the velocity derivative of
    the Lagrangian: the spatial components of the form)."""

    def __init__(self, G, A):
        self.chart = G.chart
        self.G = G
        self.A = A
        self.value_deps = _with_velocities(support(G, *A), G.chart.n)

    def value(self, xs):
        n = self.chart.n
        v = xs[n + 1 : 2 * n + 1]
        lin = sum(self.A[a](xs) * v[a - 1] for a in range(1, n + 1))
        return 0.5 * self.G.norm_sq(xs) + lin + self.A[0](xs)

    component = PoincareCartan.theta_spatial


def poincare_cartan(G, A):
    """Build the potential one-form from metric and gauge fields."""
    return PoincareCartan(G, A)


def lagrangian_and_momentum(theta):
    """Contact splitting of the potential form: (Lagrangian, momentum), one
    object that shares the form's coefficient data."""
    split = LagrangianForm(theta.G, theta.A)
    return split, split


def cartan_from_lagrangian(lag, mom):
    """Inverse of the splitting; exact because the data is shared."""
    if lag.G is not mom.G or lag.A is not mom.A:
        raise ValueError("Lagrangian and momentum must come from one splitting")
    return PoincareCartan(lag.G, lag.A)


def observed_split(theta, observer):
    """Observer decomposition of a potential form.

    Returns the observed Hamiltonian as a phase function and the observed
    momentum components (the spatial components of the form, expressed in
    the observer's coframe d^a - o^a d^0).
    """
    n = theta.chart.n

    def ham(xs):
        s = theta.theta0(xs)
        for a in range(1, n + 1):
            c = observer.comps[a - 1]
            if not c.is_zero:
                s = s + c(xs) * theta.theta_spatial(a, xs)
        return -s

    moms = [
        (lambda xs, a=a: theta.theta_spatial(a, xs)) for a in range(1, n + 1)
    ]
    return ham, moms


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


def closure_residual(omega, p):
    """Max cyclic-derivative residual of the two-form at a phase point."""
    xs = p.coords() if hasattr(p, "coords") else list(p)
    dim = 2 * omega.chart.n + 1
    dm = duals.grad(omega.matrix, xs)
    worst = 0.0
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                r = dm[a][b][c] + dm[b][c][a] + dm[c][a][b]
                worst = max(worst, abs(duals.value(r)))
    return worst


def reeb_residual(omega, dyn, p):
    """Contraction norm and time-normalisation defect of a second-order
    connection against the two-form; both vanish for the associated one."""
    xs = p.coords() if hasattr(p, "coords") else list(p)
    vec = dyn.vector_values(xs)
    contr = omega.contraction(vec, xs)
    return (
        max(abs(duals.value(c)) for c in contr),
        abs(duals.value(vec[0]) - 1.0),
    )


def metric_compat_residual(K, G, xs):
    """Covariant-constancy defect of the metric under the vertical
    restriction of a spacetime connection."""
    n = G.chart.n
    kv = K.values(xs)

    def kval(lam, i, mu):
        return kv[_sym_key(lam, mu)][i - 1]

    worst = 0.0
    for lam in range(0, n + 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                r = G.entry(a, b).partial((lam,), xs)
                for k in range(1, n + 1):
                    r = r + kval(lam, k, a) * G.entry(k, b)(xs)
                    r = r + kval(lam, k, b) * G.entry(a, k)(xs)
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

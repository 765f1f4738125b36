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

import functools
import operator

import numpy as np

from . import duals
from .fields import ONE, ZERO, _matvec, as_field, constant, coordinate, inverse, matvec, program, support
from .units import ScaledScalar, DIMENSIONLESS


class SingularMetricError(RuntimeError):
    """Metric failed a positive-definiteness probe."""


class SingularOmegaError(RuntimeError):
    """Constrained contraction solve was rank deficient."""


def _sym_key(a, b):
    return (a, b) if a <= b else (b, a)


class Metric:
    """Spacelike metric: symmetric positive-definite matrix of fields on E.
    Its matrix and its jet are each one :func:`~galimech.fields.program`.
    ``inv_node`` is G^-1 as one :func:`~galimech.fields.inverse` node over
    the entry fields, which :func:`~galimech.fields.matvec` raises by: a
    program passes the values of the entry lines it already has to
    :meth:`inv`, the one place a metric is inverted.  A constant metric is
    checked once, when it is built.
    """

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
        self.deps = support(*self._e.values())
        self._g = [self.entry(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        self.mat = program(_rows(self._g, n))
        self.inv_node = inverse(self._g, lambda g, xs: self.inv(xs, g))
        if all(f.const_value is not None for f in self._e.values()):
            m = self.mat(None)  # constant entries read no slot
            try:
                _inverse_program(n)([e for row in m for e in row])
            except ZeroDivisionError:
                raise SingularMetricError(f"constant metric {m} is singular") from None

    def entry(self, a, b):
        return self._e[_sym_key(a, b)]

    @functools.cached_property
    def jet(self):
        """(G, [d_lam G for lam = 0..n]) at a point, from one pass of one
        program compiled on first use; a partial off an entry's support is
        the constant 0.0."""
        g, n = self._g, self.chart.n
        return program((_rows(g, n), [_rows([f.d(lam) for f in g], n) for lam in range(n + 1)]))

    def inv(self, xs, g=None):
        """G^-1 at a point, by the straight-line program of the chart
        dimension (:func:`_inverse_program`), on floats and on duals; ``g``
        is G there, its n*n entries row by row, when a program has them.  A
        zero pivot is a :class:`SingularMetricError` naming the point."""
        g = [e for row in self.mat(xs) for e in row] if g is None else g
        try:
            return _inverse_program(self.chart.n)(g)
        except ZeroDivisionError:
            raise SingularMetricError(f"metric is singular at {list(map(duals.value, xs))}") from None

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


def _rows(fs, n):
    """The n*n ``fs``, row by row, as n rows."""
    return [fs[a * n : a * n + n] for a in range(n)]


@functools.cache
def _inverse_program(n):
    """The inverse of a symmetric n x n matrix given by its n*n entries row
    by row, as one :func:`~galimech.fields.program` of those slots: the
    factors of A = L D L^T without pivoting, then A^-1 = L^-T D^-1 L^-1.
    It reads the upper triangle, and divides only by the pivots, so a zero
    pivot raises ZeroDivisionError.  Its text depends only on n, so it is
    built once per chart dimension."""
    a = [[coordinate(i * n + j) for j in range(n)] for i in range(n)]
    # low[i][j] = L_ij and ld[i][j] = L_ij D_j for j < i; r[j] = 1 / D_j
    low, ld, r = [[ZERO] * n for _ in range(n)], [[ZERO] * n for _ in range(n)], []
    for j in range(n):
        col = [a[j][i] - sum((low[i][k] * ld[j][k] for k in range(j)), ZERO) for i in range(j, n)]
        r.append(ONE / col[0])  # col[0] is the pivot D_j
        for i in range(j + 1, n):
            ld[i][j], low[i][j] = col[i - j], col[i - j] * r[j]
    # m = L^-1, unit lower triangular, column by column
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            m[i][j] = -sum((low[i][k] * m[k][j] for k in range(j, i)), ZERO)
    inv = {(i, j): sum((m[k][i] * m[k][j] * r[k] for k in range(j, n)), ZERO)
           for i in range(n) for j in range(i, n)}
    return program([[inv[_sym_key(i, j)] for j in range(n)] for i in range(n)])


def quadratic_field(G, f0, flin, fconst):
    """The special quadratic phase function (1/2) f0 G(v, v) + flin.v + fconst
    of spacetime coefficient fields, as one field over the phase chart whose
    velocity slots n+1..2n are v.  It is summed as (1/2) f0 G(v, v) + fconst,
    then each flin_a v^a in turn, with G(v, v) summed over the entries row
    by row and built only for a non-zero f0."""
    n = G.chart.n
    f0, out = as_field(f0), as_field(fconst)
    v = [coordinate(G.chart.vel(a)) for a in range(1, n + 1)]
    if not f0.is_zero:
        norm = sum((G.entry(a, b) * v[a - 1] * v[b - 1]
                    for a in range(1, n + 1) for b in range(1, n + 1)), ZERO)
        out = constant(0.5) * f0 * norm + out
    for f, va in zip(flin, v):
        out = out + as_field(f) * va
    return out


def identity_metric(chart):
    return Metric(chart, {(a, a): ONE for a in range(1, chart.n + 1)})


class _Coefficients:
    """One coefficient record of a connection, shared by the three
    connections in bijection (spacetime, phase, second-order).

    ``sym`` maps (lam, mu) with lam <= mu to n fields (component index
    i = 1..n), the K[lam][i][mu] of a dt-preserving torsion-free connection
    with its (lam, mu) symmetry shared structurally.  A metric record keeps
    its metric ``G`` and lowered vectors ``low`` too: ``sym`` is ``low``
    raised by one :func:`~galimech.fields.matvec` by ``G.inv_node`` each.
    The record has one program of its ``fields``, ``lowered``: ``low`` and
    under "G" G's n*n entries row by row (a record without a metric:
    ``sym``), and one jet, their values and partials.  The correspondence
    maps hand the record and its programs on unchanged (:meth:`read_as`);
    the classes differ only in reading it.
    """

    def __init__(self, chart, sym, G=None, low=None):
        keys = [(lam, mu) for lam in range(chart.n + 1) for mu in range(lam, chart.n + 1)]
        self.chart, self.G = chart, G
        self.sym = {k: sym.get(k, [ZERO] * chart.n) for k in keys}
        self.low = None if low is None else {k: low.get(k, [ZERO] * chart.n) for k in keys}
        self.deps = support(*(f for fs in self.sym.values() for f in fs))
        self.fields = self.sym if G is None else {**self.low, "G": G._g}

    def read_as(self, cls):
        """This record read as a ``cls`` connection: the two share one state,
        so also the programs compiled for either."""
        other = object.__new__(cls)
        other.__dict__ = self.__dict__
        return other

    @functools.cached_property
    def lowered(self):
        """The record's program, compiled on first use."""
        return program(self.fields)

    @functools.cached_property
    def jet(self):
        """(values, [partials along x^lam for lam = 0..n]) of :attr:`lowered`
        at a point, one program compiled on first use."""
        kv, e = self.fields, range(self.chart.n + 1)
        return program((kv, [{k: [f.d(lam) for f in fs] for k, fs in kv.items()} for lam in e]))

    @functools.cached_property
    def raise_(self):
        """raise_(xs, kv, dkv=()) is (blocks, partials, G^-1) at the point
        ``xs``: each lowered block of ``kv`` times G^-1 (a zero block as it
        is), and from each of ``dkv``, lowered partials along one slot, the
        blocks' by d(G^-1 w) = G^-1 (dw - dG G^-1 w); without a metric,
        ``kv``, ``dkv``, None.  It closes over what it reads, not over the
        record that caches it, so it makes no reference cycle."""
        G, n, mv = self.G, self.chart.n, _matvec(self.chart.n)
        zero = {k: fs[0].is_zero for k, fs in self.sym.items()}

        def raise_(xs, kv, dkv=()):
            if G is None:
                return kv, dkv, None
            ginv = G.inv(xs, kv["G"])
            blocks = {k: kv[k] if z else mv(ginv, kv[k]) for k, z in zero.items()}
            partials = []
            for dk in dkv:
                dg = _rows(dk["G"], n)
                partials.append({k: dk[k] if z else mv(ginv, [
                    d - s for d, s in zip(dk[k], mv(dg, blocks[k]))]) for k, z in zero.items()})
            return blocks, partials, ginv

        return raise_

    @functools.cached_property
    def raised(self):
        """(blocks, G^-1) at a point from one run of :attr:`lowered`."""
        lowered, raise_ = self.lowered, self.raise_
        return lambda xs: raise_(xs, lowered(xs))[::2]


class SpacetimeConnection(_Coefficients):
    """The record read as a linear connection on spacetime."""

    def entry(self, lam, i, mu):
        """Coefficient field K_lam^i_mu (i spatial, 1..n)."""
        return self.sym[_sym_key(lam, mu)][i - 1]

    def values(self, xs):
        """All coefficients at a point: dict {(lam, mu): [n values]}."""
        return self.raised(xs)[0]


def metric_record(G, low):
    """The metric record of G with lowered vectors ``low``."""
    return SpacetimeConnection(G.chart, {k: matvec(G.inv_node, v) for k, v in low.items()}, G, low)


def metric_connection(chart, G, A=None):
    """Metric-compatible connection of the metric G and a spacetime 1-form
    potential ``A`` (n+1 fields, default zero), chosen so the derived
    two-form is exact.  Its lowered vectors come from the derivative rules
    of G and A: -(d_a G_hb + d_b G_ha - d_h G_ab)/2 for the spatial blocks;
    -d_0 G_hb/2 plus half the curl d_h A_b - d_b A_h for the time-space
    blocks; d_h A_0 - d_0 A_h for the time-time block.
    """
    n = chart.n
    sp = range(1, n + 1)
    A = [ZERO] * (n + 1) if A is None else [as_field(a) for a in A]
    g, half = G.entry, constant(0.5)

    def curl(a, b):  # d_a A_b - d_b A_a
        return A[b].d(a) - A[a].d(b)

    low = {(a, b): [constant(-0.5) * (g(h, b).d(a) + g(h, a).d(b) - g(a, b).d(h)) for h in sp]
           for a in sp for b in range(a, n + 1)}
    for b in sp:
        low[(0, b)] = [constant(-0.5) * g(h, b).d(0) + (
            half * curl(h, b) if h < b else -half * curl(b, h) if h > b else ZERO) for h in sp]
    low[(0, 0)] = [A[0].d(h) - A[h].d(0) for h in sp]
    return metric_record(G, low)


class PhaseConnection(_Coefficients):
    """The record read as the affine connection of the velocity bundle: the
    lift along d^lam is K_(lam,0) + K_(lam,k) v^k."""

    def lift_values(self, xs):
        """gl[k][lam]: value of the lift coefficient for component k along
        d^lam, as a full (affine in velocity) function of the phase point."""
        n = self.chart.n
        return lift_of(self.raised(xs)[0], xs[n + 1 : 2 * n + 1])


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
    ``kv`` at velocity ``v``; linear in ``kv``, like :func:`lift_of`.  The
    velocity weights of the blocks are formed once, so ``kv`` and ``v`` may
    be values or fields."""
    n = len(v)
    weights = []
    for h in range(1, n + 1):
        weights.append(((0, h), 2.0 * v[h - 1]))
        weights += [((h, k), (1.0 if h == k else 2.0) * (v[h - 1] * v[k - 1]))
                    for k in range(h, n + 1)]
    out = []
    for i in range(n):
        s = kv[(0, 0)][i]
        for key, w in weights:
            s = s + w * kv[key][i]
        out.append(s)
    return out


def phase_from_spacetime(K):
    return K.read_as(PhaseConnection)


def spacetime_from_phase(gamma):
    return gamma.read_as(SpacetimeConnection)


class DynamicalConnection(_Coefficients):
    """The record read as a second-order connection: the acceleration is
    K_(0,0) + 2 K_(0,h) v^h + K_(h,k) v^h v^k."""

    @functools.cached_property
    def _acceleration(self):
        """The acceleration as one program over the phase chart, compiled
        on first use.  A metric record contracts its lowered vectors with
        the velocity slots and raises the sum once, by ``G.inv_node``."""
        n = self.chart.n
        v = [coordinate(n + h) for h in range(1, n + 1)]
        if self.G is None:
            return program(gamma00_of(self.sym, v))
        return program(matvec(self.G.inv_node, gamma00_of(self.low, v)))

    def gamma00_values(self, xs):
        return self._acceleration(xs)

    def vector_values(self, xs):
        """Components of the associated phase vector field (time part 1)."""
        n = self.chart.n
        return [1.0, *xs[n + 1 : 2 * n + 1], *self.gamma00_values(xs)]

    def motion_jet(self, j2):
        """(row, [partials along every slot]) of :func:`motion_of` at
        j2 = (x, v, a), from one run of the record's jet: along x^lam the
        row of the lowered partials, along v^k -2 lg_b^k, along a^k G_bk."""
        n = self.chart.n
        (kv, dkv), v, a = self.jet(j2), j2[n + 1 : 2 * n + 1], j2[2 * n + 1 :]
        lg = lift_of(kv, v)
        return motion_of(kv, v, a), ([motion_of(dk, v, a) for dk in dkv]
                                     + [[-2.0 * r[k] for r in lg] for k in range(1, n + 1)]
                                     + _rows(kv["G"], n))


def dynamical_from_phase(gamma):
    return gamma.read_as(DynamicalConnection)


def phase_from_dynamical(dyn):
    return dyn.read_as(PhaseConnection)


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


class Observer:
    """Section of the phase bundle: n velocity fields on E."""

    def __init__(self, chart, comps=None):
        self.chart = chart
        self.comps = [as_field(c) for c in (comps or [ZERO] * chart.n)]

    def phase_point(self, xs_e):
        return list(xs_e[: self.chart.n + 1]) + [c(xs_e) for c in self.comps]


class PhaseTwoForm:
    """Cosymplectic two-form of a phase connection's metric record.

    Carries back-references to the record and its metric G; the associated
    second-order connection is the unique one annihilated by the form.  The
    matrix reads ``deps``: the slots of G and of the connection, and the
    velocities.
    """

    def __init__(self, gamma_conn):
        self.chart, self.G, self.conn = gamma_conn.chart, gamma_conn.G, gamma_conn
        self.dyn = dynamical_from_phase(gamma_conn)
        vel = (coordinate(self.chart.vel(a)) for a in range(1, self.chart.n + 1))
        self.deps = support(self.G, gamma_conn, *vel)

    def matrix(self, xs):
        """:func:`omega_of` the record's lowered program at ``xs``."""
        n = self.chart.n
        return omega_of(self.conn.lowered(xs), xs[n + 1 : 2 * n + 1])

    def jet(self, xs):
        """:func:`omega_jet` of the record's jet at ``xs``."""
        n = self.chart.n
        return omega_jet(self.conn.jet(xs), xs[n + 1 : 2 * n + 1])

    def contraction(self, vec_vals, xs):
        """Components of the one-form i_Y Omega for Y given by components."""
        m = self.matrix(xs)
        dim = len(m)
        return [
            sum(vec_vals[a] * m[a][b] for a in range(dim)) for b in range(dim)
        ]

    def nondegeneracy_det(self, xs):
        """:func:`nondegeneracy_of` the matrix at ``xs``."""
        return nondegeneracy_of(self.matrix(xs))


def omega_of(kv, v):
    """Omega = G_ab (dv^a - gl^a) ^ (dx^b - v^b dt) from a record's lowered
    values ``kv`` at velocity ``v``: G, G.v and the lowered lift lg = G.gl,
    each antisymmetric pair computed once.  Linear in ``kv`` at fixed ``v``,
    so of the lowered partials it gives Omega's."""
    n, g, lg = len(v), kv["G"], lift_of(kv, v)
    dim = 2 * n + 1
    m = [[0.0] * dim for _ in range(dim)]
    for a in range(n):
        gv = sum(g[a * n + b] * v[b] for b in range(n))
        m[n + 1 + a][0], m[0][n + 1 + a] = -gv, gv
        for b in range(n):
            m[n + 1 + a][1 + b], m[1 + b][n + 1 + a] = g[a * n + b], -g[a * n + b]
        for b in range(a + 1, n):
            s = lg[a][1 + b] - lg[b][1 + a]
            m[1 + a][1 + b], m[1 + b][1 + a] = s, -s
        s = -lg[a][0] - sum(v[c] * lg[c][1 + a] for c in range(n))
        m[0][1 + a], m[1 + a][0] = s, -s
    return m


def omega_jet(kjet, v):
    """(Omega, [partials along every phase slot]) from a record's jet
    ``kjet`` at velocity ``v``: along x^lam :func:`omega_of` the lowered
    partials; along v^k, with low_(lam,mu)a the lowered blocks and
    lg = lift_of(kv, v), [v^a][t] = -G_ak, [x^a][x^b] = low_(b,k)a -
    low_(a,k)b and [t][x^a] = -low_(0,k)a - lg_k^a - v^c low_(a,k)c, each
    mirrored antisymmetrically, and 0.0 elsewhere."""
    (kv, dkv), n = kjet, len(v)
    g, lg, dim = kv["G"], lift_of(kv, v), 2 * n + 1
    along_v = []
    for k in range(1, n + 1):
        m = [[0.0] * dim for _ in range(dim)]
        for a in range(n):
            low = kv[_sym_key(1 + a, k)]
            m[n + 1 + a][0], m[0][n + 1 + a] = -g[a * n + k - 1], g[a * n + k - 1]
            for b in range(a + 1, n):
                s = kv[_sym_key(1 + b, k)][a] - low[b]
                m[1 + a][1 + b], m[1 + b][1 + a] = s, -s
            s = -kv[(0, k)][a] - lg[k - 1][1 + a] - sum(v[c] * low[c] for c in range(n))
            m[0][1 + a], m[1 + a][0] = s, -s
        along_v.append(m)
    return omega_of(kv, v), [omega_of(dk, v) for dk in dkv] + along_v


def nondegeneracy_of(m):
    """Determinant probe for dt ^ Omega^n from the matrix ``m`` of Omega at
    a point: first row is dt, the rest are the rows of Omega on the kernel
    basis of dt."""
    rows = [[1.0] + [0.0] * (len(m) - 1)] + [[float(x) for x in row] for row in m[1:]]
    with np.errstate(all="ignore"):  # a non-finite determinant is the caller's to report
        return float(np.linalg.det(np.array(rows)))


def minimal_coupling(omega, em):
    """Total structure absorbing an electromagnetic field.

    Returns the two-form of the total connection, whose lowered time-space
    and time-time vectors pick up the field entries scaled by q/(2m) and
    q/m respectively.  Entrywise the evaluation matrix equals the matrix of
    ``omega`` plus the (q/m)-scaled field embedded in the spacetime block.
    """
    if em is None or em.coupling == 0.0 or not em._e:
        return omega
    low, c, sp = omega.conn.low, em.coupling, range(1, omega.chart.n + 1)
    low = {**low, (0, 0): [v + constant(c) * em.entry(h, 0) for h, v in zip(sp, low[(0, 0)])]}
    for b in sp:
        low[(0, b)] = [v + constant(0.5 * c) * em.entry(h, b) for h, v in zip(sp, low[(0, b)])]
    return PhaseTwoForm(phase_from_spacetime(metric_record(omega.G, low)))


def motion_of(kv, v, accel):
    """The motion row G_ab accel^a - (G gamma)_b from a record's lowered
    values ``kv`` at velocity ``v``.  Linear in ``kv`` at fixed ``v`` and
    ``accel``, so of the lowered partials it gives the row's."""
    n, g = len(v), kv["G"]
    return [sum(g[b * n + a] * accel[a] for a in range(n)) - e
            for b, e in enumerate(gamma00_of(kv, v))]


class PoincareCartan:
    """Horizontal potential one-form of metric and gauge data.  Its 2n+1
    components are ``fields`` over the phase chart (-G(v, v)/2 + A_0, then
    A_a + G_ab v^b, then zeros), :func:`_potential_form` of G's entry
    fields, A and the velocity coordinates.  :attr:`jet` gives the
    components and their partials in closed form, the same function of
    ``G.jet`` and the 1-jet of A; no command compiles ``components``, the
    fields' program.  Each is built on first use.

    The form is also its own contact splitting: ``value`` is the Lagrangian
    field G(v, v)/2 + A_a v^a + A_0 (the time-horizontal d0 coefficient) and
    ``component`` the momentum (the velocity derivative of the Lagrangian:
    the spatial components)."""

    def __init__(self, G, A):
        self.chart = G.chart
        self.G = G
        self.A = [as_field(a) for a in A]

    @functools.cached_property
    def fields(self):
        g, n = self.G._g, self.chart.n
        v = [coordinate(self.chart.vel(a)) for a in range(1, n + 1)]
        rows = [g[i * n : (i + 1) * n] for i in range(n)]
        return _potential_form(rows, self.A, v, _form_shape(g, self.A, n), ZERO) + [ZERO] * n

    @functools.cached_property
    def value(self):
        return quadratic_field(self.G, ONE, self.A[1:], self.A[0])

    @functools.cached_property
    def components(self):
        return program(self.fields)

    @functools.cached_property
    def jet(self):
        """(components, partials) at a phase point, nested as
        ``duals.jet(components, xs)``, in closed form from ``G.jet`` and one
        program, the 1-jet of A over the spacetime slots:

        - theta_0 = -G_ab v^a v^b / 2 + A_0 and theta_a = G_ab v^b + A_a;
        - along x^lam the same form of d_lam G and d_lam A;
        - along v^k, -G_kb v^b and G_ak;
        - the velocity components and all their partials are 0.0.

        The components are :func:`_potential_form` of G's and A's values
        with the shape that builds ``fields``, so they are those of
        ``components`` bit for bit.  It closes over what it reads, not over
        the form that caches it, so it makes no reference cycle."""
        G, A, n = self.G, self.A, self.chart.n
        e = range(n + 1)
        gjet, ajet = G.jet, program((A, [[a.d(lam) for a in A] for lam in e]))
        # the structure of each form: the live entries of each row of G, and of A
        shape = _form_shape(G._g, A, n)
        d_shapes = [_form_shape([f.d(lam) for f in G._g], [a.d(lam) for a in A], n) for lam in e]
        zeros = [0.0] * n

        def jet(xs):
            (g, dg), (a, da) = gjet(xs), ajet(xs)
            v = xs[n + 1 : 2 * n + 1]
            along_x = [_potential_form(dg[lam], da[lam], v, d_shapes[lam]) + zeros for lam in e]
            along_v = [[-_sum([g[k][b] * v[b] for b in shape[0][k]]), *g[k], *zeros]
                       for k in range(n)]
            return _potential_form(g, a, v, shape) + zeros, along_x + along_v

        return jet

    def theta0(self, xs):
        return self.fields[0](xs)

    def theta_spatial(self, a, xs):
        """Component along d^a, a = 1..n."""
        return self.fields[a](xs)

    component = theta_spatial


def _form_shape(g, a, n):
    """(rows, live) of n*n metric-like fields ``g`` row by row and n+1
    potential-like fields ``a``: rows[i] lists the columns j of row i whose
    field is not structurally zero, live[mu] is whether a[mu] is not."""
    return ([[j for j in range(n) if not g[i * n + j].is_zero] for i in range(n)],
            [not f.is_zero for f in a])


def _sum(terms, zero=0.0):
    """t1 + t2 + ... from the left, as field algebra adds terms onto ZERO:
    no leading zero (a -0.0 stays -0.0); ``zero`` when there are none."""
    return functools.reduce(operator.add, terms) if terms else zero


def _potential_form(g, a, v, shape, zero=0.0):
    """[-g_ab v^a v^b / 2 + a_0, a_a + g_ab v^b for a = 1..n] of ``g`` (n
    rows), ``a`` and velocity ``v``, with the terms :func:`_form_shape`
    marks zero left out: of fields it builds the potential form's
    components, of their values and of their partials' values it evaluates
    them and their partials.  It is the one place that orders their terms,
    so the two agree bit for bit, signed zeros included."""
    rows, live = shape

    def own(mu):
        return [a[mu]] if live[mu] else []

    norm = [g[i][j] * v[i] * v[j] for i, row in enumerate(rows) for j in row]
    return [_sum(([-0.5 * _sum(norm)] if norm else []) + own(0), zero),
            *(_sum(own(i + 1) + [g[i][j] * v[j] for j in row], zero)
              for i, row in enumerate(rows))]


def poincare_cartan(G, A):
    """Build the potential one-form from metric and gauge fields."""
    return PoincareCartan(G, A)


def lagrangian_and_momentum(theta):
    """Contact splitting of the potential form: (Lagrangian, momentum), both
    the form itself, read through ``value`` and ``component``."""
    return theta, theta


def cartan_from_lagrangian(lag, mom):
    """Inverse of the splitting: the form both halves are."""
    if lag is not mom:
        raise ValueError("Lagrangian and momentum must come from one splitting")
    return lag


def observed_split(theta, observer):
    """Observer decomposition of a potential form.

    Returns the observed Hamiltonian -(theta_0 + o^a theta_a) and the
    observed momentum components (the spatial components of the form,
    expressed in the observer's coframe d^a - o^a d^0), as phase fields.
    """
    ham, moms = theta.fields[0], theta.fields[1 : theta.chart.n + 1]
    for c, f in zip(observer.comps, moms):
        ham = ham + c * f
    return -ham, moms


def closure_residual(omega, p):
    """Max cyclic-derivative residual of the two-form at a phase point,
    from its jet."""
    dim = 2 * omega.chart.n + 1
    dm = omega.jet(list(p))[1]
    return duals.worst([dm[a][b][c] + dm[b][c][a] + dm[c][a][b] for a in range(dim)
                        for b in range(a + 1, dim) for c in range(b + 1, dim)])


def reeb_residual(omega, dyn, p):
    """Contraction norm and time-normalisation defect of a second-order
    connection against the two-form; both vanish for the associated one."""
    xs = list(p)
    vec = dyn.vector_values(xs)
    contr = omega.contraction(vec, xs)
    return duals.worst(contr), abs(duals.value(vec[0]) - 1.0)

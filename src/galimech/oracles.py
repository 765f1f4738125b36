"""Independent cross-check paths for the production formulas, used by the
tests only.

Finite-flow oracles (a second-order Taylor flow and its Jacobian) give
difference-quotient Lie derivatives of covariant tensors, (1,1) tensors,
vector fields and the metric; the vertical projectors are the (1,1)
tensors of the connections; ``tau_lift_solve`` solves the lift's
constrained contraction system numerically; ``contraction_bracket`` is
the Poisson bracket as the contraction hg.Omega.hf of two zero-scale
lifts; ``pair_bracket`` is the Poisson bracket as a callable of a phase
point, whose seeded grad cross-checks the brackets' gradients in
``symmetry.pair_defects``;
``fd_oracle`` is a central finite difference.
"""

import numpy as np

from . import duals
from .duals import value
from .fields import support
from .geometry import SingularOmegaError, _sym_key
from .symmetry import gamma_dot, poisson_bracket, tau_lift, tau_lift_values


def taylor_flow(vec_fn, xs, s):
    """Second-order Taylor flow of a vector field; exact enough for
    difference-quotient Lie derivatives at small s."""
    v = vec_fn(xs)
    dim = len(xs)
    dv = duals.grad(vec_fn, xs)
    w = [sum(dv[b][a] * v[b] for b in range(dim)) for a in range(dim)]
    return [xs[a] + s * v[a] + 0.5 * s * s * w[a] for a in range(dim)]


def flow_jacobian(vec_fn, xs, s):
    dim = len(xs)

    def w_fn(p):
        v = vec_fn(p)
        dv = duals.grad(vec_fn, p)
        return [sum(dv[b][a] * v[b] for b in range(dim)) for a in range(dim)]

    dv = duals.grad(vec_fn, xs)
    dw = duals.grad(w_fn, xs)
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
        return X.jet(p)[0]

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


def contraction_bracket(f_fn, g_fn, omega, xs):
    """Contraction hg.Omega.hf of the two zero-scale lifts into the two-form."""
    hf, hg = (tau_lift_values(fn, 0.0, omega, xs) for fn in (f_fn, g_fn))
    return sum(c * h for c, h in zip(omega.contraction(hg, xs), hf))


def pair_bracket(f_pair, g_pair, omega):
    """Bracket of (function, time-scale) pairs: the Poisson bracket, which
    does not depend on the time scales, with zero time scale.  It reads the
    lift operator and the two differentials, so its ``deps`` is the union
    of the lifts' (:func:`tau_lift`)."""
    f_fn, _tau = f_pair
    g_fn, _sigma = g_pair

    def val(xs):
        return poisson_bracket(f_fn, g_fn, omega, xs)

    val.deps = support(tau_lift(f_fn, 0.0, omega), tau_lift(g_fn, 0.0, omega))
    return val, 0.0


def fd_oracle(f, alpha, xs, h):
    """Central finite-difference estimate of a partial, for cross-checks only."""
    if h <= 0:
        raise ValueError("step must be positive")
    xs = [float(c) for c in xs]

    def at(shift):
        p = list(xs)
        for slot, d in shift:
            p[slot] += d
        return value(f(p))

    if len(alpha) == 0:
        return at([])
    if len(alpha) == 1:
        a = alpha[0]
        return (at([(a, h)]) - at([(a, -h)])) / (2 * h)
    a, b = alpha
    if a == b:
        return (at([(a, h)]) - 2 * at([]) + at([(a, -h)])) / (h * h)
    return (
        at([(a, h), (b, h)])
        - at([(a, h), (b, -h)])
        - at([(a, -h), (b, h)])
        + at([(a, -h), (b, -h)])
    ) / (4 * h * h)

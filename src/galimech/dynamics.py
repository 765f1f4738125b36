"""Integration of the law of motion and conserved-quantity drift.

The motion equation is second order: the chart acceleration equals the
quadratic velocity polynomial of the second-order connection.  Time is
integrated as a state variable with unit rate so time-dependent
coefficient fields need no special casing.  The integrator is classical
fixed-step RK4; drift measurements are deterministic for a given step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .duals import value, worst


class IntegrationError(RuntimeError):
    """State became non-finite during integration."""


class StepError(ValueError):
    """The horizon and step give no usable step count."""


@dataclass
class Trajectory:
    """Uniformly sampled solution: row k of ``rows`` is the phase point
    (t_k, x_k, v_k), and ``t``, ``x`` and ``v`` are column views of it."""

    rows: np.ndarray  # shape (steps+1, 2n+1)
    h: float

    def __post_init__(self):
        n = self.rows.shape[1] // 2
        self.t, self.x, self.v = self.rows[:, 0], self.rows[:, 1 : n + 1], self.rows[:, n + 1 :]

    def phase_coords(self, k):
        return self.rows[k].tolist()

    def __len__(self):
        return len(self.rows)


def law_of_motion_rhs(dyn, xs):
    """Chart acceleration prescribed by the second-order connection."""
    return [value(a) for a in dyn.gamma00_values(list(xs))]


def integrate(dyn, p0, T, h):
    """Fixed-step RK4 for the first-order system (t, x, v) from the
    coordinate list ``p0`` = (t, x..., v...).  The states and slopes are
    lists of Python floats, so the acceleration is evaluated at floats; each
    step writes one row of the trajectory array.  A stage or step state that
    is not finite, or an acceleration that overflows, ends the run with
    :class:`IntegrationError`.  The run makes round(T/h) steps, so its last
    row is at t0 + round(T/h) h; a count that rounds to 0 is a
    :class:`StepError`."""
    if h <= 0 or T <= 0:
        raise StepError("need positive horizon and step")
    n = dyn.chart.n
    if not math.isfinite(ratio := T / h):
        raise StepError(f"the step count T/h = {ratio:.3g} is not finite")
    steps = int(round(ratio))
    if steps == 0:
        raise StepError(f"the step count T/h = {ratio:.3g} rounds to 0")
    try:
        rows = np.empty((steps + 1, 2 * n + 1))
    except (MemoryError, ValueError):
        raise StepError(f"the arrays of {ratio:.3g} steps cannot be allocated") from None

    def rhs(s, k):
        if not all(map(math.isfinite, s)):
            raise IntegrationError(f"non-finite state at step {k}")
        try:
            return [1.0, *s[n + 1 :], *law_of_motion_rhs(dyn, s)]
        except OverflowError:
            raise IntegrationError(f"the acceleration overflows at step {k}") from None

    # element by element, the float operations of the array form in its order,
    # so the states are bit for bit those of numpy arithmetic on arrays:
    # stage s + (h/2) k, step s + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
    half, sixth = 0.5 * h, h / 6.0
    state = [float(c) for c in p0]
    rows[0] = state
    for k in range(1, steps + 1):
        k1 = rhs(state, k)
        k2 = rhs([s + half * d for s, d in zip(state, k1)], k)
        k3 = rhs([s + half * d for s, d in zip(state, k2)], k)
        k4 = rhs([s + h * d for s, d in zip(state, k3)], k)
        state = [s + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if not all(map(math.isfinite, state)):
            raise IntegrationError(f"non-finite state at step {k}")
        rows[k] = state
    return Trajectory(rows, h)


def conserved_drift(fn, traj, dyn=None):
    """Max drift of a phase function along a trajectory, and (when the
    connection is supplied) the max of its derivative along the motion
    direction, which is integration-independent."""
    vals = [value(fn(traj.phase_coords(k))) for k in range(len(traj))]
    drift = worst([v - vals[0] for v in vals])
    residual = None
    if dyn is not None:
        from .symmetry import gamma_dot

        residual = worst([gamma_dot(fn, dyn, traj.phase_coords(k))
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

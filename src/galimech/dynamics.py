"""Integration of the law of motion.

The motion equation is second order: the chart acceleration equals the
quadratic velocity polynomial of the second-order connection.  Time is
integrated as a state variable with unit rate so time-dependent
coefficient fields need no special casing.  The integrator is classical
fixed-step RK4, so a trajectory is deterministic for a given step.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import rk4_step


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
    """Chart acceleration prescribed by the second-order connection at the
    phase point ``xs``: the values of its acceleration program, which are
    floats at a point of floats."""
    return dyn.gamma00_values(xs)


def integrate(dyn, p0, T, h):
    """Fixed-step RK4 for the first-order system (t, x, v) from the
    coordinate list ``p0`` = (t, x..., v...).  Each step is one call of the
    straight-line step of the chart dimension (:func:`~galimech.fields.rk4_step`),
    on states of Python floats in the order of numpy's array arithmetic, with
    the acceleration read through :func:`law_of_motion_rhs`; each step
    writes one row of the trajectory array.  A start, stage or step state
    that is not finite, or an acceleration that overflows, ends the run with
    :class:`IntegrationError` naming the step.  The run makes round(T/h)
    steps, so its last row is at t0 + round(T/h) h; a count that rounds to 0
    is a :class:`StepError`."""
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
    state = [float(c) for c in p0]
    rows[0] = state
    if not all(map(math.isfinite, state)):
        raise IntegrationError("non-finite state at step 1")
    step, acc = rk4_step(n), functools.partial(law_of_motion_rhs, dyn)
    half, sixth = 0.5 * h, h / 6.0
    try:
        for k in range(1, steps + 1):
            state = step(state, acc, half, h, sixth)
            if state is None:
                raise IntegrationError(f"non-finite state at step {k}")
            rows[k] = state
    except OverflowError:
        raise IntegrationError(f"the acceleration overflows at step {k}") from None
    return Trajectory(rows, h)

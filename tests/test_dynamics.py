import math

import numpy as np
import pytest

from galimech import dynamics, fields
from galimech.catalog import load_model
from galimech.duals import value
from galimech.dynamics import (
    IntegrationError,
    Trajectory,
    integrate,
    law_of_motion_rhs,
)
from galimech.fields import Chart, ZERO, constant, coordinate
from galimech.geometry import DynamicalConnection
from galimech.symmetry import noether_charge
from tests_support import (
    conserved_drift,
    convergence_order,
    generated_model,
    numpy_rk4,
    random_compatible_model,
)


def test_rhs_flat(free3d):
    assert law_of_motion_rhs(free3d.dyn, [0.0, 1.0, 2.0, 3.0, 0.5, -0.5, 0.1]) == [0.0, 0.0, 0.0]


def test_rhs_uniform_field_is_lorentz(cyclotron):
    # acceleration components are the coupled field contracted with velocity
    qm = cyclotron.em.coupling
    b = 1.0
    acc = law_of_motion_rhs(cyclotron.dyn, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert acc == pytest.approx([0.0, -qm * b, 0.0], abs=1e-15)
    acc = law_of_motion_rhs(cyclotron.dyn, [0.0, 0.1, 0.2, 0.3, 0.0, 2.0, 0.0])
    assert acc == pytest.approx([qm * b * 2.0, 0.0, 0.0], abs=1e-15)


def test_rhs_rigidbody_is_connection_contraction(rigidbody):
    # acceleration equals the quadratic contraction of the connection
    p = [0.0, 0.3, 1.2, 0.4, 0.5, -0.2, 0.3]
    acc = law_of_motion_rhs(rigidbody.dyn, p)
    n = 3
    v = p[4:]
    kv = rigidbody.K.values(p[:4])

    def kval(lam, i, mu):
        key = (lam, mu) if lam <= mu else (mu, lam)
        return kv[key][i - 1]

    want = []
    for i in range(1, 4):
        s = kval(0, i, 0)
        for h in range(1, 4):
            s += 2.0 * kval(0, i, h) * v[h - 1]
            for k in range(1, 4):
                s += kval(h, i, k) * v[h - 1] * v[k - 1]
        want.append(s)
    assert acc == pytest.approx(want, abs=1e-13)


def test_integrate_free_particle(free3d):
    x0 = np.array([0.1, 0.2, 0.3])
    v0 = np.array([1.0, -0.5, 0.25])
    traj = integrate(free3d.dyn, [0.0, *x0, *v0], 1.0, 1e-3)
    assert np.max(np.abs(traj.x[-1] - (x0 + v0))) < 1e-9
    assert np.max(np.abs(traj.v[-1] - v0)) == 0.0
    assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)


def test_integrate_time_grid(free3d):
    traj = integrate(free3d.dyn, [0.5, 0, 0, 0, 1, 0, 0], 0.1, 0.01)
    assert len(traj) == 11
    dts = np.diff(traj.t)
    assert np.max(np.abs(dts - 0.01)) < 1e-12
    with pytest.raises(ValueError):
        integrate(free3d.dyn, [0, 0, 0, 0, 1, 0, 0], -1.0, 0.01)


def test_integrate_cyclotron_circle(cyclotron):
    # omega = qB/m = 1: unit circle about (0, -1, 0) for v0 = e1
    T = 2 * math.pi
    traj = integrate(cyclotron.dyn, [0.0, 0, 0, 0, 1.0, 0, 0], T, 1e-3)
    center = np.array([0.0, -1.0, 0.0])
    radii = np.linalg.norm(traj.x - center, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6
    # matches the analytic solution at the reached final time
    tf = traj.t[-1]
    want = np.array([math.sin(tf), math.cos(tf) - 1.0, 0.0])
    assert np.max(np.abs(traj.x[-1] - want)) < 1e-9


def test_integrate_nonfinite_abort():
    from galimech.catalog import Model, _free_model
    from galimech.fields import Chart
    from galimech.geometry import DynamicalConnection, identity_metric

    chart = Chart(2)
    # runaway acceleration x'' = 1/(1-t)^2-like blowup via x'' = x^3 growth
    blow = DynamicalConnection(
        chart, {(0, 0): [coordinate(1) * constant(1e8) * coordinate(1) * coordinate(1), ZERO]})
    with pytest.raises(IntegrationError):
        integrate(blow, [0.0, 1.0, 0.0, 1.0, 0.0], 10.0, 0.5)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _model(name):
    if name.startswith("random-"):
        return random_compatible_model(int(name[-1]))
    if name.startswith("config-n"):
        return generated_model(int(name[-1]))
    return load_model(name)


@pytest.mark.parametrize("name", ["free2d", "free3d", "cyclotron", "rigidbody",
                                  "random-0", "random-1", "random-2", "random-3",
                                  "config-n2", "config-n4"])
def test_integrate_equals_the_numpy_loop_bit_for_bit(name):
    model = _model(name)
    p0 = model.sample_phase(1, seed=5)[0]
    traj = integrate(model.dyn, p0, 0.5, 0.01)
    ts, xs, vs = numpy_rk4(model.dyn, p0, 0.5, 0.01)
    assert len(traj) == 51
    assert (_bits(traj.t), _bits(traj.x), _bits(traj.v)) == (_bits(ts), _bits(xs), _bits(vs))


@pytest.mark.parametrize("accel, h, why", [
    (lambda: coordinate(1) * constant(1e8) * coordinate(1) * coordinate(1), 0.5,
     "non-finite state at step 3"),
    (lambda: constant(1e306), 1.0, "non-finite state at step 19"),
    (lambda: coordinate(1) ** 20, 0.1, "the acceleration overflows at step 4"),
])
def test_integrate_fails_at_the_step_of_the_numpy_loop(accel, h, why):
    dyn = DynamicalConnection(Chart(2), {(0, 0): [accel(), ZERO]})
    for run in (integrate, numpy_rk4):
        with pytest.raises(IntegrationError) as exc:
            run(dyn, [0.0, 1.0, 0.0, 1.0, 0.0], 100.0, h)
        assert str(exc.value) == why


def test_integrate_reads_the_acceleration_through_law_of_motion_rhs(rigidbody, monkeypatch):
    # four stages a step, each through the module's name, which a tracer may wrap
    calls, rhs = [], dynamics.law_of_motion_rhs
    monkeypatch.setattr(dynamics, "law_of_motion_rhs",
                        lambda dyn, xs: calls.append(xs) or rhs(dyn, xs))
    traj = integrate(rigidbody.dyn, rigidbody.sample_phase(1, seed=2)[0], 0.07, 0.01)
    assert len(traj) == 8 and len(calls) == 4 * 7


def test_one_rk4_step_serves_every_model_of_a_dimension(free3d, rigidbody, monkeypatch):
    assert fields.rk4_step(3) is fields.rk4_step(3)
    assert fields.rk4_step(2) is not fields.rk4_step(3)
    steps = []
    monkeypatch.setattr(dynamics, "rk4_step", lambda n: steps.append(fields.rk4_step(n)) or steps[-1])
    for model in (free3d, rigidbody):
        integrate(model.dyn, model.sample_phase(1, seed=3)[0], 0.02, 0.01)
    assert len(steps) == 2 and steps[0] is steps[1] is fields.rk4_step(3)


def test_conserved_drift_momentum_free(free3d):
    traj = integrate(free3d.dyn, [0.0, 0, 0, 0, 1.0, 0.5, -0.25], 1.0, 1e-3)
    X = free3d.actions["translations"].generators[0]
    charge, _, _ = noether_charge(X, free3d.theta)
    drift, residual = conserved_drift(charge.value, traj, free3d.dyn)
    assert drift < 1e-10
    assert residual < 1e-10


def test_conserved_drift_energy_cyclotron(cyclotron):
    traj = integrate(cyclotron.dyn, [0.0, 0, 0, 0, 1.0, 0, 0.2], 2 * math.pi, 1e-3)
    energy = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
    drift, residual = conserved_drift(energy, traj, cyclotron.dyn)
    assert drift < 1e-8
    assert residual < 1e-10


def test_non_conserved_probe(free3d):
    traj = integrate(free3d.dyn, [0.0, 0, 0, 0, 0.8, 0, 0], 1.0, 1e-3)
    probe = lambda xs: xs[1]
    drift, _ = conserved_drift(probe, traj)
    assert drift == pytest.approx(0.8, abs=1e-9)


def test_rk4_convergence_order(cyclotron):
    def exact(t):
        return (
            (math.sin(t), math.cos(t) - 1.0, 0.0),
            (math.cos(t), -math.sin(t), 0.0),
        )

    errs, orders = convergence_order(
        cyclotron.dyn, [0.0, 0, 0, 0, 1.0, 0, 0], math.pi, exact, [0.02, 0.01, 0.005]
    )
    assert all(3.8 <= o <= 4.2 for o in orders)
    # error ratio roughly 16 per halving
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_charge_drift_scales_with_fourth_power(cyclotron):
    energy = lambda xs: 0.5 * (xs[4] ** 2 + xs[5] ** 2 + xs[6] ** 2)
    T = 1.0
    hs = [0.1, 0.05, 0.025]
    drifts = []
    for h in hs:
        traj = integrate(cyclotron.dyn, [0.0, 0, 0, 0, 1.0, 0, 0], T, h)
        d, _ = conserved_drift(energy, traj)
        drifts.append(d)
    orders = [
        math.log(drifts[i] / drifts[i + 1]) / math.log(hs[i] / hs[i + 1])
        for i in range(len(hs) - 1)
    ]
    # drift is bounded by C h^4 T (here the step errors partly cancel and
    # the observed decay is one order better)
    assert all(o > 3.5 for o in orders)
    c_fit = max(d / (h ** 4 * T) for d, h in zip(drifts, hs))
    print(f"drift <= C h^4 T holds with fitted C = {c_fit:.3e}")
    assert all(d <= c_fit * h ** 4 * T * (1 + 1e-12) for d, h in zip(drifts, hs))


def test_rigidbody_charges_conserved(rigidbody):
    traj = integrate(rigidbody.dyn, [0.0, 0.3, 1.2, 0.4, 0.3, -0.2, 0.5], 1.0, 1e-3)
    # stays inside the chart box
    assert np.all(traj.x[:, 1] > 0.7) and np.all(traj.x[:, 1] < 2.4)
    for gen in rigidbody.actions["rotations"].generators:
        charge, _, ok = noether_charge(gen, rigidbody.theta)
        assert ok
        drift, residual = conserved_drift(charge.value, traj, rigidbody.dyn)
        assert drift < 1e-6
        assert residual < 1e-10

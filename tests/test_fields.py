import math

import numpy as np
import pytest

from galimech import duals
from galimech.duals import value
from galimech.fields import (
    Chart,
    DerivativeOrderError,
    Field,
    PhasePoint,
    ZERO,
    constant,
    coordinate,
    cos_of,
    default_box,
    exp_of,
    from_config,
    polynomial,
    sample_points,
    sin_of,
)
from galimech.oracles import fd_oracle


def test_chart_indexing():
    c = Chart(3)
    assert c.dim_e == 4 and c.dim_phase == 7
    assert c.vel(1) == 4 and c.vel(3) == 6
    with pytest.raises(ValueError):
        Chart(1)


def test_phase_point():
    p = PhasePoint(0.5, (1.0, 2.0), (3.0, 4.0))
    assert p.coords() == [0.5, 1.0, 2.0, 3.0, 4.0]
    assert PhasePoint.from_coords(p.coords(), 2) == p
    with pytest.raises(ValueError):
        PhasePoint(math.inf, (1.0, 2.0), (3.0, 4.0))


def test_partial_examples():
    # square of a spatial coordinate: second partial is 2
    f = coordinate(1) ** 2
    assert f.partial((1, 1), [0.3, 0.7, -0.2]) == pytest.approx(2.0, abs=1e-15)
    # mixed time-space product
    g = coordinate(0) * coordinate(1)
    assert g.partial((0, 1), [0.3, 0.7, -0.2]) == pytest.approx(1.0, abs=1e-15)


def test_partial_phase_field():
    # sin(x1) * v1^2 at x1 = pi/2: spatial derivative picks up cos = 0
    n = 2
    f = sin_of(coordinate(1)) * coordinate(n + 1) ** 2
    p = [0.0, math.pi / 2, 0.3, 1.0, -0.5]
    assert f.partial((1,), p) == pytest.approx(0.0, abs=1e-15)
    want = fd_oracle(f, (1,), p, 1e-5)
    assert f.partial((1,), p) == pytest.approx(want, abs=1e-9)


def test_order_exceeded():
    f = coordinate(1) ** 3
    with pytest.raises(DerivativeOrderError):
        f.partial((1, 1, 1), [0.0, 0.5])


def test_fd_oracle_constant_and_exp():
    assert fd_oracle(constant(4.2), (1,), [0.0, 0.3], 1e-4) == 0.0
    f = exp_of(coordinate(1))
    assert abs(fd_oracle(f, (1,), [0.0, 0.0], 1e-4) - 1.0) < 1e-8
    with pytest.raises(ValueError):
        fd_oracle(f, (1,), [0.0, 0.0], -1.0)


def test_fd_convergence_order():
    # central differences on a polynomial: error drops like h^2
    f = polynomial([(1.0, {1: 4})])
    p = [0.0, 0.9]
    exact = f.partial((1,), p)
    errs = [abs(fd_oracle(f, (1,), p, h) - exact) for h in (1e-2, 1e-3)]
    rate = math.log10(errs[0] / errs[1])
    assert 1.8 < rate < 2.3


def test_mixed_partials_commute_property():
    f = sin_of(coordinate(0) * coordinate(1)) + coordinate(2) ** 3 * coordinate(1)
    for p in sample_points(30, default_box(3), seed=5):
        for a in range(3):
            for b in range(a + 1, 3):
                d1 = f.partial((a, b), p)
                d2 = f.partial((b, a), p)
                assert abs(d1 - d2) < 1e-12


def test_catalog_fields_vs_fd_oracle(catalog_models):
    # every coefficient field of every catalog model agrees with the
    # central-difference oracle at low-discrepancy points
    for model in catalog_models:
        fields = [
            model.G.entry(a, b)
            for a in range(1, model.chart.n + 1)
            for b in range(a, model.chart.n + 1)
        ]
        fields += list(model.A)
        if model.em is not None:
            fields += list(model.em._e.values())
        pts = model.sample_e(100, seed=2)
        for f in fields:
            if f.is_zero:
                continue
            for p in pts:
                for slot in range(model.chart.n + 1):
                    d = f.partial((slot,), p)
                    fd = fd_oracle(f, (slot,), p, 1e-5)
                    assert abs(d - fd) <= 1e-8 * (1.0 + abs(d))


def test_field_algebra_linearity():
    f = sin_of(coordinate(1))
    g = coordinate(1) ** 2
    combo = constant(2.5) * f + constant(-1.5) * g
    p = [0.0, 0.6]
    lhs = combo.partial((1,), p)
    rhs = 2.5 * f.partial((1,), p) - 1.5 * g.partial((1,), p)
    assert abs(lhs - rhs) < 1e-14


def test_config_constructors():
    spec = {
        "kind": "sum",
        "terms": [
            {"kind": "constant", "value": 2.0},
            {
                "kind": "product",
                "factors": [
                    {"kind": "sin", "of": {"kind": "coord", "index": 1}},
                    {"kind": "polynomial", "coeffs": [[3.0, [2, 2]]]},
                ],
            },
        ],
    }
    f = from_config(spec)
    p = [0.0, 0.4, 1.2]
    want = 2.0 + math.sin(0.4) * 3.0 * 1.2 ** 2
    assert value(f(p)) == pytest.approx(want, abs=1e-14)
    assert value(from_config(1.5)([0.0])) == 1.5
    with pytest.raises(ValueError):
        from_config({"kind": "wavelet"})


def test_sampler_deterministic_and_seeded():
    box = [(-1.0, 1.0)] * 5
    a = sample_points(20, box, seed=3)
    b = sample_points(20, box, seed=3)
    assert a == b
    c = sample_points(20, box, seed=4)
    assert a != c
    for p in a:
        assert all(-1.0 <= x <= 1.0 for x in p)


def test_sampler_respects_box():
    box = [(0.5, 0.8), (-2.0, -1.0)]
    for p in sample_points(50, box, seed=0):
        assert 0.5 <= p[0] <= 0.8 and -2.0 <= p[1] <= -1.0


def test_zero_shortcuts():
    f = ZERO + coordinate(1)
    assert f is not ZERO
    assert (ZERO * coordinate(1)).is_zero
    assert value((coordinate(1) - coordinate(1))([0.0, 2.0])) == 0.0

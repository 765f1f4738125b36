"""Shared helpers for the test suite: random connections and models, a
metric connection given by explicit coefficient fields, a deliberately
non-metric two-form, and a strategy for config field specs."""

import random

from hypothesis import strategies as st

from galimech.catalog import Model
from galimech.fields import Chart, Field, ZERO, constant, coordinate, polynomial
from galimech.geometry import (
    Metric,
    PhaseTwoForm,
    SpacetimeConnection,
    identity_metric,
    phase_from_spacetime,
)


def random_connection(chart, rng):
    """Symmetric random polynomial coefficient set for a spacetime
    connection."""
    n = chart.n
    sym = {}
    for lam in range(0, n + 1):
        for mu in range(lam, n + 1):
            fields = []
            for _ in range(n):
                terms = [(rng.uniform(-1, 1), {})]
                terms.append((rng.uniform(-1, 1), {rng.randrange(0, n + 1): 1}))
                fields.append(polynomial(terms))
            sym[(lam, mu)] = fields
    return SpacetimeConnection(chart, sym)


def explicit_connection(G, phi2=None, time_gauge=None):
    """Metric connection of G given by explicit coefficient fields, each a
    bare callable that lowers from ``G.jet`` and raises with ``G.inv`` at
    the point.  The gauge part is given by fields too: ``phi2``
    ({(a, b): field} for a < b) is the antisymmetric part of the lowered
    time-space blocks, and ``time_gauge`` (n fields, raised) is the
    time-time block; both default to zero."""
    n = G.chart.n
    phi2 = phi2 or {}

    def lowered(lam, mu, h, xs):
        dg = G.jet(xs)[1]
        if lam:
            return -0.5 * (dg[lam][h - 1][mu - 1] + dg[mu][h - 1][lam - 1] - dg[h][lam - 1][mu - 1])
        v = -0.5 * dg[0][h - 1][mu - 1]
        key = (min(h, mu), max(h, mu))
        if h != mu and key in phi2:
            v = v + (0.5 if h < mu else -0.5) * phi2[key](xs)
        return v

    def coefficient(lam, mu, i):
        def fn(xs):
            ginv = G.inv(xs)
            return sum(ginv[i][h - 1] * lowered(lam, mu, h, xs) for h in range(1, n + 1))

        return Field(fn)

    sym = {(lam, mu): [coefficient(lam, mu, i) for i in range(n)]
           for lam in range(n + 1) for mu in range(max(lam, 1), n + 1)}
    sym[(0, 0)] = list(time_gauge or [ZERO] * n)
    return SpacetimeConnection(G.chart, sym)


def random_compatible_model(seed, n=3):
    """Randomized metric + gauge model; closed by construction since every
    derived piece comes from potentials."""
    rng = random.Random(seed)
    chart = Chart(n)

    def small_poly():
        terms = [(rng.uniform(-0.12, 0.12), {})]
        for slot in range(0, n + 1):
            terms.append((rng.uniform(-0.12, 0.12), {slot: 1}))
        terms.append((rng.uniform(-0.08, 0.08), {rng.randrange(0, n + 1): 2}))
        return polynomial(terms)

    entries = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            base = 2.0 if a == b else 0.0
            entries[(a, b)] = constant(base) + small_poly()
    A = [small_poly() for _ in range(n + 1)]
    return Model(f"random-{seed}", chart, Metric(chart, entries), A=A)


def nonmetric_two_form():
    """Deliberately broken: the two-form of the Euclidean metric and a
    connection that is not compatible with it."""
    chart = Chart(3)
    K = SpacetimeConnection(chart, {(1, 1): [coordinate(1), ZERO, ZERO]})
    return PhaseTwoForm(identity_metric(chart), phase_from_spacetime(K))


# -- field specs as a config writes them ---------------------------------------------

COEFFICIENTS = st.floats(-1.5, 1.5)


def field_specs(slots):
    """Strategy for :func:`galimech.fields.from_config` specs reading chart
    slots drawn from ``slots``: constants, coordinates and polynomials
    (negative powers included), with exp at the leaves, combined by sin, cos,
    sum, product, scale and pow."""
    leaf = st.one_of(
        COEFFICIENTS.map(lambda c: {"kind": "constant", "value": c}),
        slots.map(lambda k: {"kind": "coord", "index": k}),
        st.lists(
            st.tuples(COEFFICIENTS, st.lists(st.tuples(slots, st.integers(-1, 3)), max_size=3)),
            min_size=1, max_size=3,
        ).map(lambda terms: {"kind": "polynomial",
                             "coeffs": [[c, [x for pair in e for x in pair]] for c, e in terms]}),
    )
    bounded_leaf = st.one_of(leaf, leaf.map(lambda f: {"kind": "exp", "of": f}))

    def extend(children):
        return st.one_of(
            st.builds(lambda k, f: {"kind": k, "of": f}, st.sampled_from(["sin", "cos"]),
                      children),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: {"kind": "sum", "terms": ts}),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: {"kind": "product", "factors": ts}),
            st.builds(lambda c, f: {"kind": "scale", "by": c, "of": f}, COEFFICIENTS, children),
            st.builds(lambda e, f: {"kind": "pow", "of": f, "exp": e}, st.integers(0, 3),
                      children),
        )

    return st.recursive(bounded_leaf, extend, max_leaves=6)

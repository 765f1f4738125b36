"""Smooth coefficient functions on spacetime and phase-space charts.

Coordinates are ordered (x0, x1..xn) on spacetime and (x0, x1..xn,
v1..vn) on phase space, where v_i are the chart velocities.  A
:class:`Field` wraps a plain callable over a coordinate list; because the
callable is written in terms of generic scalar arithmetic it evaluates
equally on floats and on dual numbers, which gives exact partial
derivatives to total order 2 through :func:`Field.partial`.
"""

import math
import random
from dataclasses import dataclass

from . import duals
from .duals import sin, cos, exp


class DerivativeOrderError(ValueError):
    """Requested derivative order above what the engine guarantees."""


@dataclass(frozen=True)
class Chart:
    """Index bookkeeping for an (n+1)-dimensional spacetime chart, n >= 2.

    0 is the time slot, 1..n the space slots and n+1..2n the velocity slots
    of the induced phase-space chart.
    """

    n: int = 3

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("spatial dimension must be at least 2")

    @property
    def dim_e(self):
        return self.n + 1

    @property
    def dim_phase(self):
        return 2 * self.n + 1

    def vel(self, i):
        """Phase-chart slot of the i-th velocity (i in 1..n)."""
        return self.n + i


@dataclass(frozen=True)
class PhasePoint:
    """A point (t, x, v) of the phase chart; entries must be finite."""

    t: float
    x: tuple
    v: tuple

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.t, *self.x, *self.v)):
            raise ValueError("phase point entries must be finite")

    def coords(self):
        return [self.t, *self.x, *self.v]

    @classmethod
    def from_coords(cls, xs, n):
        return cls(xs[0], tuple(xs[1 : n + 1]), tuple(xs[n + 1 : 2 * n + 1]))


def support(*fields):
    """Union of the ``deps`` of ``fields``; None when any of them is unknown."""
    sets = [f.deps for f in fields]
    return None if None in sets else frozenset().union(*sets)


class Field:
    """A smooth scalar function of chart coordinates.

    ``fn`` takes a list of scalars (floats or duals).  Fields on spacetime
    simply ignore trailing velocity slots, so they can be evaluated at
    phase points unchanged.  ``const_value`` marks fields known to be
    constant, which lets derived-coefficient constructors skip dead work.
    ``deps`` is the set of slots ``fn`` may read (None: unknown, so all),
    computed by the constructors below; other slots have zero partials.
    """

    __slots__ = ("fn", "is_zero", "const_value", "deps")

    def __init__(self, fn, is_zero=False, const_value=None, deps=None):
        self.fn = fn
        self.is_zero = is_zero
        self.const_value = const_value
        self.deps = deps

    def __call__(self, xs):
        return self.fn(xs)

    def partial(self, alpha, xs):
        """Exact partial along multi-index ``alpha`` (len <= 2)."""
        if len(alpha) > 2:
            raise DerivativeOrderError("partials above total order 2 are not supported")
        if len(alpha) == 0:
            return self.fn(xs)
        if len(alpha) == 1:
            return duals.partial(self, xs, alpha[0])
        return duals.partial2(self, xs, alpha[0], alpha[1])

    # field algebra -------------------------------------------------------

    def __add__(self, other):
        other = as_field(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) + g(xs), deps=support(self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return Field(lambda xs, f=self.fn: -f(xs), deps=self.deps)

    def __sub__(self, other):
        return self + (-as_field(other))

    def __rsub__(self, other):
        return as_field(other) + (-self)

    def __mul__(self, other):
        other = as_field(other)
        if self.is_zero or other.is_zero:
            return ZERO
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) * g(xs), deps=support(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_field(other)
        if self.is_zero:
            return ZERO
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) / g(xs), deps=support(self, other))

    def __pow__(self, k):
        return Field(lambda xs, f=self.fn: f(xs) ** k, deps=self.deps)


def constant(c):
    c = float(c)
    if c == 0.0:
        return ZERO
    return Field(lambda xs: c, const_value=c, deps=frozenset())


ZERO = Field(lambda xs: 0.0, is_zero=True, const_value=0.0, deps=frozenset())
ONE = Field(lambda xs: 1.0, const_value=1.0, deps=frozenset())


def coordinate(k):
    """The k-th chart coordinate as a field."""
    return Field(lambda xs: xs[k], deps=frozenset((k,)))


def as_field(f):
    if isinstance(f, Field):
        return f
    if isinstance(f, (int, float)):
        return constant(f)
    raise TypeError(f"cannot treat {f!r} as a field")


def _of(fn):
    def of(f):
        f = as_field(f)
        return Field(lambda xs, g=f.fn: fn(g(xs)), deps=f.deps)

    return of


sin_of, cos_of, exp_of = _of(sin), _of(cos), _of(exp)


def polynomial(terms):
    """Sparse multivariate polynomial: ``terms = [(coeff, {slot: power})]``;
    zero powers are dropped, so ``deps`` is the slots with a non-zero power."""
    cooked = [(float(c), tuple(sorted((k, p) for k, p in e.items() if p))) for c, e in terms]

    def fn(xs):
        total = 0.0
        for c, expo in cooked:
            t = c
            for slot, p in expo:
                t = t * (xs[slot] if p == 1 else xs[slot] ** p)
            total = total + t
        return total

    return Field(fn, deps=frozenset(slot for _, expo in cooked for slot, _ in expo))


_OF_FIELD = {"sin": sin_of, "cos": cos_of, "exp": exp_of}


def integer(x, what="a power"):
    """An integer from a config (an int or integral float); anything else is
    an input error."""
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r}")


def from_config(spec):
    """Build a field from a JSON-style constructor description.

    Supported kinds: constant, coord, polynomial (``coeffs`` is a list of
    ``[coeff, [slot, power, slot, power, ...]]``), sin/cos/exp of a nested
    spec, sum, product, scale, pow.  A malformed spec raises ValueError.
    """
    if isinstance(spec, (int, float)):
        return constant(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"field spec must be a number or an object, got {spec!r}")
    kind = spec.get("kind")

    def arg(key):
        if key not in spec:
            raise ValueError(f"field constructor {kind!r} needs {key!r}")
        return spec[key]

    if kind == "constant":
        return constant(arg("value"))
    if kind == "coord":
        return coordinate(int(arg("index")))
    if kind == "polynomial":
        return polynomial([
            (c, {int(flat[i]): integer(flat[i + 1]) for i in range(0, len(flat), 2)})
            for c, flat in arg("coeffs")
        ])
    if kind in _OF_FIELD:
        return _OF_FIELD[kind](from_config(arg("of")))
    if kind == "sum":
        return sum((from_config(t) for t in arg("terms")), ZERO)
    if kind == "product":
        return math.prod((from_config(t) for t in arg("factors")), start=ONE)
    if kind == "scale":
        return constant(arg("by")) * from_config(arg("of"))
    if kind == "pow":
        return from_config(arg("of")) ** integer(arg("exp"))
    raise ValueError(f"unknown field constructor kind {kind!r}")


# -- deterministic sample points -----------------------------------------

def _primes(count):
    """The first ``count`` primes, the bases of the Halton sequence."""
    out = []
    p = 2
    while len(out) < count:
        if all(p % q for q in out if q * q <= p):
            out.append(p)
        p += 1
    return out


def _halton(index, base):
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def sample_points(count, box, seed=0):
    """Deterministic low-discrepancy points inside ``box``.

    ``box`` is a list of (lo, hi) pairs, one per coordinate.  A seeded
    rotation is applied to the underlying Halton sequence so different
    seeds give different (but reproducible) point sets.
    """
    rng = random.Random(seed)
    axes = list(zip(box, _primes(len(box)), [rng.random() for _ in box]))
    pts = []
    for k in range(count):
        p = []
        for (lo, hi), base, shift in axes:
            u = _halton(k + 1, base) + shift
            p.append(lo + (u - int(u)) * (hi - lo))
        pts.append(p)
    return pts


def default_box(dim):
    return [(-1.0, 1.0)] * dim

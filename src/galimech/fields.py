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
    def dim_phase(self):
        return 2 * self.n + 1

    def vel(self, i):
        """Phase-chart slot of the i-th velocity (i in 1..n)."""
        return self.n + i


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
    ``rule`` maps a slot k to the partial along k as a field; the
    constructors below give one, a bare ``Field(fn)`` has none and is
    differentiated by a seeded dual pass.
    """

    __slots__ = ("fn", "is_zero", "const_value", "deps", "rule", "_d")

    def __init__(self, fn, is_zero=False, const_value=None, deps=None, rule=None):
        self.fn = fn
        self.is_zero = is_zero
        self.const_value = const_value
        self.deps = deps
        self.rule = rule
        self._d = {}

    def __call__(self, xs):
        return self.fn(xs)

    def d(self, k):
        """The partial along slot k as a field, built once and stored (a
        field never changes); ZERO for a slot outside ``deps``."""
        f = self._d.get(k)
        if f is None:
            if self.deps is not None and k not in self.deps:
                f = ZERO
            else:
                f = self.rule(k) if self.rule else Field(
                    lambda xs: duals.partial(self, xs, k), deps=self.deps)
            self._d[k] = f
        return f

    def partial(self, alpha, xs):
        """Exact partial along multi-index ``alpha`` (len <= 2): the derivative
        fields of :meth:`d`, or one seeded dual pass for a bare field."""
        if len(alpha) > 2:
            raise DerivativeOrderError("partials above total order 2 are not supported")
        if self.rule is None and alpha:
            if len(alpha) == 1:
                return duals.partial(self, xs, alpha[0])
            return duals.partial2(self, xs, alpha[0], alpha[1])
        f = self
        for k in alpha:
            f = f.d(k)
        return f.fn(xs)

    # field algebra: each operation carries its differentiation rule -------

    def __add__(self, other):
        other = as_field(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) + g(xs), deps=support(self, other),
                     rule=lambda k: self.d(k) + other.d(k))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return Field(lambda xs, f=self.fn: -f(xs), deps=self.deps, rule=lambda k: -self.d(k))

    def __sub__(self, other):
        return self + (-as_field(other))

    def __rsub__(self, other):
        return as_field(other) + (-self)

    def __mul__(self, other):
        other = as_field(other)
        if self.is_zero or other.is_zero:
            return ZERO
        if self.const_value == 1.0 or other.const_value == 1.0:
            return other if self.const_value == 1.0 else self
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) * g(xs), deps=support(self, other),
                     rule=lambda k: self.d(k) * other + self * other.d(k))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_field(other)
        if other.is_zero:
            raise ValueError("division by a field that is identically zero")
        if self.is_zero:
            return ZERO
        return Field(lambda xs, f=self.fn, g=other.fn: f(xs) / g(xs), deps=support(self, other),
                     rule=lambda k: (self.d(k) * other - self * other.d(k)) / (other * other))

    def __pow__(self, k):
        return Field(lambda xs, f=self.fn: f(xs) ** k, deps=self.deps,
                     rule=lambda i: constant(k) * self ** (k - 1) * self.d(i))


def finite(x, what="a coefficient"):
    """``x`` as a float; a non-finite value is an input error."""
    if not math.isfinite(x := float(x)):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def constant(c):
    c = finite(c)
    if c == 0.0:
        return ZERO
    return Field(lambda xs: c, const_value=c, deps=frozenset(), rule=lambda k: ZERO)


ZERO = Field(lambda xs: 0.0, is_zero=True, const_value=0.0, deps=frozenset(), rule=lambda k: ZERO)
ONE = Field(lambda xs: 1.0, const_value=1.0, deps=frozenset(), rule=lambda k: ZERO)


def coordinate(k):
    """The k-th chart coordinate as a field."""
    return Field(lambda xs: xs[k], deps=frozenset((k,)), rule=lambda j: ONE)


def as_field(f):
    if isinstance(f, Field):
        return f
    if isinstance(f, (int, float)):
        return constant(f)
    raise TypeError(f"cannot treat {f!r} as a field")


def _of(fn, outer):
    """Field constructor applying ``fn``, whose derivative at f is ``outer(f)``
    (the chain rule)."""

    def of(f):
        f = as_field(f)
        return Field(lambda xs, g=f.fn: fn(g(xs)), deps=f.deps,
                     rule=lambda k: outer(f) * f.d(k))

    return of


sin_of = _of(sin, lambda f: cos_of(f))
cos_of = _of(cos, lambda f: -sin_of(f))
exp_of = _of(exp, lambda f: exp_of(f))


def polynomial(terms):
    """Sparse multivariate polynomial: ``terms = [(coeff, {slot: power})]``;
    zero powers are dropped, so ``deps`` is the slots with a non-zero power.
    Its partials are polynomials, by the power rule term by term."""
    cooked = [(finite(c), tuple(sorted((k, p) for k, p in e.items() if p))) for c, e in terms]

    def fn(xs):
        total = 0.0
        for c, expo in cooked:
            t = c
            for slot, p in expo:
                t = t * (xs[slot] if p == 1 else xs[slot] ** p)
            total = total + t
        return total

    def rule(k):
        return polynomial([(c * p, {**dict(expo), k: p - 1})
                           for c, expo in cooked for slot, p in expo if slot == k])

    return Field(fn, deps=frozenset(slot for _, expo in cooked for slot, _ in expo), rule=rule)


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

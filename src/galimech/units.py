"""Dimension bookkeeping for scaled quantities.

Exponents of the three base scales (time, length, mass) are exact
rationals, so half-integer dimensions such as the one carried by a charge
compare exactly.  Dimensions are metadata: they are checked when a model is
assembled, after which all numerics run on bare floats with the time unit
fixed to 1.
"""

from dataclasses import dataclass
from fractions import Fraction


class UnitMismatchError(ValueError):
    """Raised when a quantity does not carry the expected dimension."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value; 1.5 -> 3/2
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational exponent")


@dataclass(frozen=True)
class UnitDim:
    """Rational exponents of time, length and mass."""

    time_exp: Fraction = Fraction(0)
    length_exp: Fraction = Fraction(0)
    mass_exp: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "time_exp", _frac(self.time_exp))
        object.__setattr__(self, "length_exp", _frac(self.length_exp))
        object.__setattr__(self, "mass_exp", _frac(self.mass_exp))

    def __mul__(self, other):
        return UnitDim(
            self.time_exp + other.time_exp,
            self.length_exp + other.length_exp,
            self.mass_exp + other.mass_exp,
        )

    def inv(self):
        return UnitDim(-self.time_exp, -self.length_exp, -self.mass_exp)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k):
        k = _frac(k)
        return UnitDim(self.time_exp * k, self.length_exp * k, self.mass_exp * k)

    def exponents(self):
        return (self.time_exp, self.length_exp, self.mass_exp)

    def __str__(self):
        parts = []
        for sym, e in zip("TLM", self.exponents()):
            if e:
                parts.append(f"{sym}^{e}" if e != 1 else sym)
        return "1" if not parts else " ".join(parts)

    @classmethod
    def from_triple(cls, triple):
        """Build from a config triple, e.g. ``[-1, 2, 1]`` or ``[-1, "3/2", "1/2"]``."""
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise UnitMismatchError(f"dimension triple must have 3 entries, got {triple!r}")
        return cls(*[_frac(x) for x in triple])


DIMENSIONLESS = UnitDim()
TIME = UnitDim(1, 0, 0)
LENGTH = UnitDim(0, 1, 0)
MASS = UnitDim(0, 0, 1)

# charge: T^-1 L^(3/2) M^(1/2); action quantum: T^-1 L^2 M
CHARGE = UnitDim(-1, Fraction(3, 2), Fraction(1, 2))
PLANCK = UnitDim(-1, 2, 1)

# squared-length metric and its mass/quantum normalisation (dimension T)
RAW_METRIC = LENGTH ** 2
METRIC = MASS * PLANCK.inv() * RAW_METRIC
# electromagnetic field 2-form scaling: L^(1/2) M^(1/2)
EM_FIELD = UnitDim(0, Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class ScaledScalar:
    """A real value tagged with a dimension."""

    value: float
    dim: UnitDim = DIMENSIONLESS

    def __add__(self, other):
        if self.dim != other.dim:
            raise UnitMismatchError(f"cannot add {self.dim} to {other.dim}")
        return ScaledScalar(self.value + other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, ScaledScalar):
            return ScaledScalar(self.value * other.value, self.dim * other.dim)
        return ScaledScalar(self.value * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledScalar):
            return ScaledScalar(self.value / other.value, self.dim / other.dim)
        return ScaledScalar(self.value / other, self.dim)


def check_dim(x, expected):
    """True iff the tag of ``x`` equals ``expected`` exactly."""
    return x.dim == expected


def require_dim(x, expected, what):
    if x.dim != expected:
        raise UnitMismatchError(
            f"{what}: expected dimension {expected}, got {x.dim}"
        )

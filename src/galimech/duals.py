"""Forward-mode automatic differentiation on truncated multi-dual numbers.

A ``MultiDual`` carries a float plus coefficients of products of nilpotent
infinitesimals (eps_b**2 == 0 for every slot b).  Seeding one slot per
differentiation direction gives exact first partials; two slots give exact
mixed/second partials.  Because slot allocation is a stack, derivative
computations nest: a function that itself calls :func:`partial` can be
differentiated again, which is how second derivatives of *derived*
coefficient functions (e.g. Christoffel-type entries built from metric
partials) stay exact.

Terms are stored as ``{bitmask: float}`` where the bitmask says which slots
occur in the monomial.  Multiplication keeps only terms with disjoint masks,
which is exactly the nilpotency rule.
"""

import math
from types import MethodType

# Next free slot bit.  Evaluations nest strictly, so a stack allocator keeps
# bit positions small.
_next_slot = 0


def _alloc_slot():
    global _next_slot
    b = _next_slot
    _next_slot += 1
    return b


def _release_slot():
    global _next_slot
    _next_slot -= 1


class MultiDual:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    # -- basic arithmetic ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MultiDual):
            t = dict(self.terms)
            for k, v in other.terms.items():
                t[k] = t.get(k, 0.0) + v
            return MultiDual(t)
        t = dict(self.terms)
        t[0] = t.get(0, 0.0) + other
        return MultiDual(t)

    __radd__ = __add__

    def __neg__(self):
        return MultiDual({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiDual):
            t = {}
            for k1, v1 in self.terms.items():
                for k2, v2 in other.terms.items():
                    if k1 & k2:
                        continue
                    k = k1 | k2
                    t[k] = t.get(k, 0.0) + v1 * v2
            return MultiDual(t)
        return MultiDual({k: v * other for k, v in self.terms.items()})

    __rmul__ = __mul__

    def _recip(self):
        a = self.terms.get(0, 0.0)
        n = {k: v for k, v in self.terms.items() if k}
        # 1/(a+N) = (1/a) sum_j (-N/a)**j, truncated by nilpotency
        inv = MultiDual({0: 1.0 / a})
        if n:
            scaled = MultiDual({k: -v / a for k, v in n.items()})
            term = MultiDual({0: 1.0 / a})
            while True:
                term = term * scaled
                if not term.terms:
                    break
                inv = inv + term
        return inv

    def __truediv__(self, other):
        if isinstance(other, MultiDual):
            return self * other._recip()
        return MultiDual({k: v / other for k, v in self.terms.items()})

    def __rtruediv__(self, other):
        return self._recip() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return (self._recip()) ** (-k)
        out = MultiDual({0: 1.0})
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    # -- ordering on the real part (used for pivoting) -------------------

    def __float__(self):
        return self.terms.get(0, 0.0)

    def __abs__(self):
        raise TypeError("abs() of a MultiDual is ambiguous; compare real parts")

    def __lt__(self, other):
        return float(self) < float(other)

    def __gt__(self, other):
        return float(self) > float(other)

    def __repr__(self):
        return f"MultiDual({self.terms!r})"


def value(x):
    """Real part of a scalar (float or MultiDual)."""
    return x.terms.get(0, 0.0) if isinstance(x, MultiDual) else float(x)


def _series(x, derivs):
    """Apply an analytic function with derivative list [f(a), f'(a), ...]."""
    a0 = x.terms.get(0, 0.0)
    n = MultiDual({k: v for k, v in x.terms.items() if k})
    out = MultiDual({0: derivs[0]})
    pw = MultiDual({0: 1.0})
    fact = 1.0
    for j in range(1, len(derivs)):
        pw = pw * n
        if not pw.terms:
            break
        fact *= j
        out = out + pw * (derivs[j] / fact)
    return out


def _order(x):
    # Max nilpotency order = number of distinct slots present.
    bits = 0
    for k in x.terms:
        bits |= k
    return bits.bit_count()


def sin(x):
    if not isinstance(x, MultiDual):
        return math.sin(x)
    a = x.terms.get(0, 0.0)
    s, c = math.sin(a), math.cos(a)
    cyc = [s, c, -s, -c]
    return _series(x, [cyc[j % 4] for j in range(_order(x) + 1)])


def cos(x):
    if not isinstance(x, MultiDual):
        return math.cos(x)
    a = x.terms.get(0, 0.0)
    s, c = math.sin(a), math.cos(a)
    cyc = [c, -s, -c, s]
    return _series(x, [cyc[j % 4] for j in range(_order(x) + 1)])


def exp(x):
    if not isinstance(x, MultiDual):
        return math.exp(x)
    e = math.exp(x.terms.get(0, 0.0))
    return _series(x, [e] * (_order(x) + 1))


def sqrt(x):
    if not isinstance(x, MultiDual):
        return math.sqrt(x)
    a = x.terms.get(0, 0.0)
    r = math.sqrt(a)
    k = _order(x)
    derivs = [r]
    coef = 0.5
    for j in range(1, k + 1):
        derivs.append(coef * r / a**j)
        coef *= 0.5 - j
    return _series(x, derivs)


def _take(x, bit):
    """Coefficient of eps_bit: terms containing the bit, with the bit dropped."""
    if not isinstance(x, MultiDual):
        return 0.0
    mask = 1 << bit
    t = {k & ~mask: v for k, v in x.terms.items() if k & mask}
    if not t:
        return 0.0
    if len(t) == 1 and 0 in t:
        return t[0]
    return MultiDual(t)


def deps_of(fn):
    """The slots ``fn`` declares it may read, or None (unknown: every slot).

    A callable declares them as ``fn.deps``.  A bound method cannot carry
    an attribute, so ``obj.name`` declares them as ``obj.name_deps``.
    """
    if isinstance(fn, MethodType):
        return getattr(fn.__self__, f"{fn.__name__}_deps", None)
    return getattr(fn, "deps", None)


def reads(fn, idx):
    """False when ``fn`` declares (see :func:`deps_of`) that it never reads
    slot ``idx``: a seeded pass would then give exactly 0.0."""
    deps = deps_of(fn)
    return deps is None or idx in deps


def partial(fn, point, idx):
    """Exact first partial of ``fn(point)`` along coordinate ``idx``.

    ``fn`` maps a list of scalars to a scalar; ``point`` entries may already
    be MultiDuals from an enclosing differentiation.  Slots outside the
    ``deps`` of ``fn`` (see :func:`reads`) give 0.0 unevaluated.
    """
    if not reads(fn, idx):
        return 0.0
    b = _alloc_slot()
    try:
        seeded = list(point)
        seeded[idx] = seeded[idx] + MultiDual({1 << b: 1.0})
        return _take(fn(seeded), b)
    finally:
        _release_slot()


def partial2(fn, point, i, j):
    """Exact mixed second partial d_i d_j fn at ``point``."""
    if not (reads(fn, i) and reads(fn, j)):
        return 0.0
    bi = _alloc_slot()
    bj = _alloc_slot()
    try:
        seeded = list(point)
        seeded[i] = seeded[i] + MultiDual({1 << bi: 1.0})
        seeded[j] = seeded[j] + MultiDual({1 << bj: 1.0})
        return _take(_take(fn(seeded), bi), bj)
    finally:
        _release_slot()
        _release_slot()


def partial_multi(fn, point, idx):
    """First partial of a ``fn`` valued in nested lists, tuples and dicts
    along coordinate ``idx``.

    Evaluates ``fn`` once with a single seeded slot and extracts the
    derivative from every entry, preserving the nesting structure.
    """
    b = _alloc_slot()
    try:
        seeded = list(point)
        seeded[idx] = seeded[idx] + MultiDual({1 << b: 1.0})
        return _map(fn(seeded), lambda x: _take(x, b))
    finally:
        _release_slot()


def _map(obj, leaf):
    """``obj`` with ``leaf`` applied to every scalar; tuples become lists."""
    if isinstance(obj, dict):
        return {k: _map(o, leaf) for k, o in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_map(o, leaf) for o in obj]
    return leaf(obj)


def grad(fn, point):
    """All first partials [d_0 fn, d_1 fn, ...] of ``fn`` at ``point``.

    ``fn`` may be valued in nested lists, tuples and dicts, and each
    partial keeps that nesting.  This is where a whole-gradient pass
    consults ``deps``: a slot outside them is not evaluated, and its partial
    is float zeros in the shape of the others, which is exactly what a
    seeded pass would give.  The skipped slots share one zero block.
    """
    deps = deps_of(fn)
    seeded = {i: partial_multi(fn, point, i) for i in range(len(point))
              if deps is None or i in deps}
    if len(seeded) == len(point):
        return list(seeded.values())
    zero = _map(next(iter(seeded.values())) if seeded else fn(point), lambda x: 0.0)
    return [seeded.get(i, zero) for i in range(len(point))]


def solve_generic(a, b):
    """Solve the square linear system a x = b by Gaussian elimination.

    ``b`` is a vector, or a matrix whose columns share one elimination.
    Entries may be floats or MultiDuals; pivoting compares real parts.
    Used where a matrix of derived quantities must be inverted inside a
    differentiated computation (numpy cannot hold dual numbers).
    """
    vector = not isinstance(b[0], (list, tuple))
    n = len(a)
    m = [list(row) + ([b[i]] if vector else list(b[i])) for i, row in enumerate(a)]
    width = len(m[0])
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(m[r][col])))
        if value(m[piv][col]) == 0.0:
            raise ZeroDivisionError("singular matrix in solve_generic")
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col] / m[col][col]
            if isinstance(f, MultiDual) or f != 0.0:
                for c in range(col, width):
                    m[r][c] = m[r][c] - f * m[col][c]
    x = [[m[i][c] / m[i][i] for c in range(n, width)] for i in range(n)]
    return [row[0] for row in x] if vector else x


def invert_generic(a):
    """Inverse of a square matrix of generic scalars: one elimination with
    the identity's columns as right-hand sides."""
    n = len(a)
    return solve_generic(a, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

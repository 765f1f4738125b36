"""Smooth coefficient functions on spacetime and phase-space charts.

Coordinates are ordered (x0, x1..xn) on spacetime and (x0, x1..xn,
v1..vn) on phase space, where v_i are the chart velocities.  A
:class:`Field` is an expression graph whose operations carry their
derivative rules, so its partials are fields too (exact to total order 2
through :func:`Field.partial`).  :func:`program` compiles any nesting of
fields into one straight-line function that evaluates each shared
subexpression once per point, on floats and on dual numbers alike; a
polynomial leaf is one call of an evaluator compiled once per monomial
pattern, with the leaf's coefficients bound.  A polynomial's partials
are polynomial leaves, so a program's text depends on its graph's shape
only: models whose graphs have one shape share one compiled program.
"""

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from . import duals


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
    """A smooth scalar function of chart coordinates, as an expression graph.

    ``op`` names the operation on ``args``: "add", "mul", "div", "neg",
    "sin", "cos", "exp" of fields, "pow" of a field and an integer and
    "matvec" (:func:`matvec`); the leaves are "const", "coord", "poly" and
    "call", the bare callable of ``Field(fn)`` in generic scalar arithmetic.
    An "inverse" node (:func:`inverse`) is matrix valued: only a matvec
    node reads it.  A field evaluates as its one-field :func:`program`
    ``fn``, a bare callable as itself.  ``const_value`` marks constants;
    an operation on constants is folded into one when it is built.
    ``deps`` is the set of slots the field may read (None: unknown, so
    all).  Each operation has a derivative rule (:meth:`d`); only a bare
    callable is differentiated by a seeded dual pass.
    """

    __slots__ = ("op", "args", "const_value", "deps", "_d", "_fn")

    def __init__(self, fn, deps=None, op="call", args=None, const_value=None):
        self.op = op
        self.args = (fn,) if args is None else args
        self.const_value = const_value
        self.deps = deps
        self._d = None  # allocated by the first d(): most nodes are never differentiated
        self._fn = fn if op == "call" else None

    @property
    def is_zero(self):
        return self.const_value == 0.0

    @property
    def fn(self):
        """The one-field program, compiled on first use; a bare callable is
        its own."""
        if self._fn is None:
            self._fn = program(self)
        return self._fn

    def __call__(self, xs):
        return (self._fn or self.fn)(xs)

    def d(self, k):
        """The partial along slot k as a field, built once (a field never
        changes); ZERO for a slot outside ``deps``."""
        if self._d is None:
            self._d = {}
        f = self._d.get(k)
        if f is None:
            if self.deps is not None and k not in self.deps:
                f = ZERO
            elif self.op == "call":
                f = Field(lambda xs: duals.partial(self, xs, k), self.deps)
            else:
                f = self._rule(k)
            self._d[k] = f
        return f

    def _rule(self, k):
        op, args = self.op, self.args
        f = args[0]
        if op == "add":
            return f.d(k) + args[1].d(k)
        if op == "neg":
            return -f.d(k)
        if op == "mul":
            return f.d(k) * args[1] + f * args[1].d(k)
        if op == "div":
            g = args[1]
            return (f.d(k) * g - f * g.d(k)) / (g * g)
        if op == "pow":
            return constant(args[1]) * f ** (args[1] - 1) * f.d(k)
        if op in _CHAIN:
            return _CHAIN[op](f) * f.d(k)
        if op == "matvec":  # d_k(A^-1 w) = A^-1 (d_k w - (d_k A) A^-1 w)
            vec, i, a = args[1], args[2], f.args[1]  # a: the inverted matrix's entries
            n, raised = len(vec), matvec(f, vec)
            return matvec(f, [w.d(k) - sum((a[h * n + j].d(k) * raised[j] for j in range(n)), ZERO)
                              for h, w in enumerate(vec)])[i]
        if op == "poly":  # the power rule term by term; slot k keeps its place in each term
            return _poly(tuple((_scaled(c, p, k), tuple((s, q - 1) if s == k else (s, q)
                                                        for s, q in expo if s != k or q != 1))
                               for c, expo in f for slot, p in expo if slot == k))
        return ONE if op == "coord" else ZERO

    def partial(self, alpha, xs):
        """Exact partial along multi-index ``alpha`` (len <= 2): the value of
        the derivative field of :meth:`d`."""
        if len(alpha) > 2:
            raise DerivativeOrderError("partials above total order 2 are not supported")
        f = self
        for k in alpha:
            f = f.d(k)
        return f(xs)

    # field algebra: each operation is a node of the graph ------------------

    def __add__(self, other):
        other = as_field(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return _node("add", self, other)

    __radd__ = __add__

    def __neg__(self):
        return self if self.is_zero else _node("neg", self)

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
        return _node("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_field(other)
        if other.is_zero:
            raise ValueError("division by a field that is identically zero")
        if self.is_zero:
            return ZERO
        return _node("div", self, other)

    def __pow__(self, k):
        folded = _folded(operator.pow, self.const_value, k)
        return folded or Field(None, self.deps, "pow", (self, k))


_SYNTAX = {"add": "{} + {}", "neg": "-{}", "mul": "{} * {}", "div": "{} / {}", "pow": "{} ** {}"}
_FOLD = {"add": operator.add, "neg": operator.neg, "mul": operator.mul, "div": operator.truediv,
         "sin": math.sin, "cos": math.cos, "exp": math.exp}


def _folded(fn, *consts):
    """The constant ``fn(*consts)``, or None when an operand is not constant
    (None) or the value is not finite: such an operation stays a node and
    fails, if it does, where it is evaluated."""
    if None in consts:
        return None
    try:
        c = fn(*consts)
    except ArithmeticError:
        return None
    return constant(c) if math.isfinite(c) else None


def _node(op, *fields):
    """The ``op`` node over operand fields; it reads what they read.  On
    constants alone it is folded (:func:`_folded`)."""
    consts = [f.const_value for f in fields]
    if None not in consts and (folded := _folded(_FOLD[op], *consts)):
        return folded
    sets = [f.deps for f in fields]
    return Field(None, None if None in sets else frozenset().union(*sets), op, fields)


def inverse(entries, fn):
    """The inverse of the n x n matrix whose entries, row by row, are the
    fields ``entries``, as one matrix-valued node that :func:`matvec` reads.
    A program evaluates it in one line per point, ``fn(values, xs)`` of
    the entries' values and the point, after the entries' own lines; ``fn``
    gives the inverse as nested lists, or raises at a singular matrix."""
    entries = tuple(map(as_field, entries))
    return Field(None, support(*entries), "inverse", (fn, entries))


def matvec(m, vec):
    """The fields sum_h M[i][h] vec[h] of the :func:`inverse` node ``m``.  A
    program evaluates ``m`` once per point and multiplies each distinct
    vector by it in one line.  A zero vector gives zeros.  The partials
    follow from those of the inverted matrix and of ``vec`` (:meth:`Field.d`)."""
    vec = tuple(map(as_field, vec))
    if all(f.is_zero for f in vec):
        return [ZERO] * len(vec)
    return [Field(None, support(m, *vec), "matvec", (m, vec, i)) for i in range(len(vec))]


def program(structure):
    """One straight-line function of a coordinate list giving the values of
    the fields in ``structure``: a field, or lists, tuples and dicts of
    them nested in any way, whose values it returns in that same nesting.
    Each structurally distinct subfield is one line, the operation the
    graph records on its operands' values, so it is evaluated once per
    point and every output is exactly its field's value alone, on floats
    and on duals.  Constants are literals; each polynomial leaf's evaluator
    and coefficients are bound under names of its own, numbered in the
    order the leaves are visited, so programs whose graphs have one shape
    have one text, compiled once.  Its ``deps`` is the :func:`support` of
    the fields.
    """
    env = {"sin": duals.sin, "cos": duals.cos, "exp": duals.exp}
    lines, named, fns = [], {}, {}  # fns: id(callable) -> its name
    leaves = itertools.count()  # numbers each polynomial leaf's names in visiting order
    text = {}  # id(field) -> expression of its value

    def emit(f):
        """The expression of ``f``'s value, after its operands' lines."""
        if not isinstance(f, Field):
            return repr(f)
        op, args = f.op, f.args
        if op == "const":
            return f"({args[0]!r})"
        if id(f) in text:
            return text[id(f)]
        if op == "coord":
            key = expr = f"xs[{args[0]}]"
        elif op == "poly":  # one call of its pattern's evaluator on its bound coefficients
            coeffs, pattern = zip(*args[0])
            j = next(leaves)  # names of its own: the text does not depend on the data
            env[f"p{j}"], env[f"k{j}"] = _evaluator(pattern), coeffs
            key = expr = f"p{j}(xs, k{j})"
        elif op in ("call", "inverse"):  # one line per callable, or per matrix over its entries
            name = fns.setdefault(id(args[0]), f"c{len(fns)}")
            env[name] = args[0]
            key = expr = (f"{name}(xs)" if op == "call"
                          else f"{name}([{', '.join(map(emit, args[1]))}], xs)")
        elif op == "matvec":  # one line per matrix and vector, read entry by entry
            name = f"matvec{len(args[1])}"
            env[name] = _matvec(len(args[1]))
            key = expr = f"{name}({emit(args[0])}, [{', '.join(map(emit, args[1]))}])"
        else:
            key = expr = _SYNTAX.get(op, op + "({})").format(*map(emit, args))
        if key not in named:
            named[key] = f"v{len(lines)}"
            lines.append(f"    {named[key]} = {expr}\n")
        text[id(f)] = named[key] + (f"[{args[2]}]" if op == "matvec" else "")
        return text[id(f)]

    fields = []
    out = _nesting(structure, emit, fields)
    del emit  # it calls itself through its closure cell: a reference cycle
    exec(_code("def run(xs):\n" + "".join(lines) + f"    return {out}\n"), env)
    run = env.pop("run")  # its globals are env, so left there it is a reference cycle
    run.deps = support(*fields)
    return run


def _nesting(structure, emit, fields):
    """The expression of ``structure``'s values in its own nesting, each
    field's by ``emit``; appends the fields to ``fields`` in order."""
    if isinstance(structure, dict):
        items = "".join(f"{k!r}: {_nesting(v, emit, fields)}, " for k, v in structure.items())
        return f"{{{items}}}"
    if isinstance(structure, (list, tuple)):
        items = "".join(f"{_nesting(s, emit, fields)}, " for s in structure)
        return f"[{items}]" if isinstance(structure, list) else f"({items})"
    fields.append(as_field(structure))
    return emit(fields[-1])


@functools.lru_cache(maxsize=128)
def _code(source):
    """Compiled program text, shared by equal programs (it never changes)."""
    return compile(source, "<fields.program>", "exec")


@functools.lru_cache(maxsize=128)
def _evaluator(pattern):
    """A polynomial of terms with exponents ``pattern`` as a function of a
    point and the terms' coefficients ``c``, built once per pattern: 0.0 +
    c[0] * xs[s] ** p * ... + c[1] * ..., added left to right."""
    terms = "".join(f" + c[{i}]" + "".join(f" * xs[{s}]" + (f" ** {p}" if p != 1 else "")
                                           for s, p in expo) for i, expo in enumerate(pattern))
    env = {}
    exec(compile(f"def poly(xs, c):\n    return 0.0{terms}\n", "<fields.polynomial>", "exec"), env)
    return env.pop("poly")  # left in env, its own globals, it would be a reference cycle


@functools.cache
def _matvec(n):
    """M v of an n x n matrix M given as nested lists and a vector of n
    entries, as one straight-line function built once per dimension: row i
    is 0 + M[i][0] v[0] + ... + M[i][n-1] v[n-1], the multiplications and
    additions of a ``sum`` over the row in its order, on floats and duals."""
    rows = ", ".join("0" + "".join(f" + m[{i}][{h}] * v[{h}]" for h in range(n)) for i in range(n))
    env = {}
    exec(f"def matvec(m, v):\n    return [{rows}]\n", env)
    return env["matvec"]


@functools.cache
def rk4_step(n):
    """One classical RK4 step of (t, x, v)' = (1, v, acc(t, x, v)) on a
    state of 2n+1 floats, as one straight-line function built once per
    dimension: ``step(state, acc, half, h, sixth)``, with ``acc`` the n
    accelerations at a state and half = h/2, sixth = h/6.  Slot by slot it
    makes the float operations of the array form in its order, stage
    s + half k or s + h k and step s + sixth (((k1 + 2 k2) + 2 k3) + k4), so
    the states are bit for bit those of numpy arithmetic on arrays.  It
    returns the new state as a list, or None as soon as a stage state or
    the new state is not finite; ``acc`` reads only finite states, and
    ``state`` is taken to be one."""
    dim = 2 * n + 1
    s = [f"s{i}" for i in range(dim)]
    lines, ks, at, arg = [f"{', '.join(s)}, = state"], [], s, "state"
    for j, (name, by) in enumerate((("u", "half"), ("w", "half"), ("z", "h"), ("r", None))):
        acc = [f"a{j}_{i}" for i in range(n)]
        lines.append(f"{', '.join(acc)}, = acc({arg})")
        ks.append(["1.0", *at[n + 1 :], *acc])  # the slope of each slot at the stage state
        at = [f"{name}{i}" for i in range(dim)]
        lines += [f"{r} = s{i} + {by} * {ks[j][i]}" if by else
                  f"{r} = s{i} + sixth * ((({ks[0][i]} + 2.0 * {ks[1][i]}) + 2.0 * {ks[2][i]})"
                  f" + {ks[3][i]})" for i, r in enumerate(at)]
        lines += [f"if not ({' and '.join(f'isfinite({r})' for r in at)}):", "    return None"]
        arg = f"[{', '.join(at)}]"
    env = {"isfinite": math.isfinite}
    body = "".join(f"    {line}\n" for line in lines)
    exec(compile(f"def step(state, acc, half, h, sixth):\n{body}    return {arg}\n",
                 "<fields.rk4_step>", "exec"), env)
    return env.pop("step")  # left in env, its own globals, it would be a reference cycle


def finite(x, what="a coefficient"):
    """``x`` as a float; a non-finite value is an input error."""
    if not math.isfinite(x := float(x)):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def constant(c):
    c = finite(c)
    return ZERO if c == 0.0 else Field(None, frozenset(), "const", (c,), c)


ZERO = Field(None, frozenset(), "const", (0.0,), 0.0)
ONE = constant(1.0)


def coordinate(k):
    """The k-th chart coordinate as a field."""
    return Field(None, frozenset((k,)), "coord", (k,))


def as_field(f):
    if isinstance(f, Field):
        return f
    if isinstance(f, (int, float)):
        return constant(f)
    raise TypeError(f"cannot treat {f!r} as a field")


sin_of, cos_of, exp_of = (lambda f, op=op: _node(op, as_field(f)) for op in ("sin", "cos", "exp"))
# the chain rule: the derivative of op at f, as a field
_CHAIN = {"sin": cos_of, "cos": lambda f: -sin_of(f), "exp": exp_of}


def polynomial(terms):
    """Sparse multivariate polynomial: ``terms = [(coeff, {slot: power})]``;
    zero powers are dropped, so ``deps`` is the slots with a non-zero power.
    With no power at all it is the constant of its terms, added up as
    evaluated.  Its partials are polynomials, by the power rule term by term."""
    cooked = tuple((finite(c), tuple(sorted((k, p) for k, p in e.items() if p)))
                   for c, e in terms)
    return _folded(_sum, *(None if expo else c for c, expo in cooked)) or _poly(cooked)


def _sum(*cs):
    return functools.reduce(operator.add, cs, 0.0)


def _poly(cooked):
    """The polynomial leaf of terms (coeff, ((slot, power), ...)), slots
    sorted and powers non-zero, or ZERO when its terms are constants that
    add up to zero.  Other constants alone are a leaf too, not folded, so
    the partials of a polynomial have one graph shape whatever its
    coefficients."""
    deps = frozenset(slot for _, expo in cooked for slot, _ in expo)
    if not deps and _folded(_sum, *(c for c, _ in cooked)) is ZERO:
        return ZERO
    return Field(None, deps, "poly", (cooked,))


def _scaled(c, p, k):
    """c * p, the coefficient the power rule gives along x_k of a term c x_k^p ...;
    one that overflows is an input error."""
    if not math.isfinite(cp := c * p):
        raise ValueError(f"the partial along x{k} of a polynomial term overflows: "
                         f"{c!r} * {p} = {cp!r}")
    return cp


_OF_FIELD = {"sin": sin_of, "cos": cos_of, "exp": exp_of}


def integer(x, what="a power"):
    """An integer from a config (an int or integral float); anything else is
    an input error."""
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _number(x, what):
    """A JSON number (not a bool); anything else is an input error."""
    if type(x) not in (int, float):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return x


def _array(x, what):
    """A JSON array; anything else is an input error."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be an array, got {x!r}")
    return x


def _terms(coeffs, what):
    """The (coeff, {slot: power}) of each ``[coeff, [slot, power, ...]]``
    term of a JSON array; anything else is an input error."""
    terms = []
    for term in _array(coeffs, what):
        if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], list)
                and len(term[1]) % 2 == 0):
            raise ValueError(f"a term of {what} must be [coeff, [slot, power, ...]], got {term!r}")
        c, flat = term
        terms.append((_number(c, "a coefficient"),
                      {integer(k, "a slot"): integer(p) for k, p in zip(flat[::2], flat[1::2])}))
    return terms


def from_config(spec):
    """Build a field from a JSON-style constructor description.

    Supported kinds: constant, coord, polynomial (``coeffs`` is a list of
    ``[coeff, [slot, power, slot, power, ...]]``), sin/cos/exp of a nested
    spec, sum, product, scale, pow.  A malformed spec raises a one-line
    ValueError naming it.
    """
    if type(spec) in (int, float):  # a bool is not a number here
        return constant(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"field spec must be a number or an object, got {spec!r}")
    kind = spec.get("kind")

    def arg(key, read=None):
        """``spec[key]``, through ``read`` when given; its error names the spec."""
        if key not in spec:
            raise ValueError(f"field constructor {kind!r} needs {key!r}")
        if read is None:
            return spec[key]
        try:
            return read(spec[key], repr(key))
        except ValueError as exc:
            raise ValueError(f"field spec {spec!r}: {exc}") from None

    if kind == "constant":
        return constant(arg("value", _number))
    if kind == "coord":
        return coordinate(arg("index", integer))
    if kind == "polynomial":
        return polynomial(arg("coeffs", _terms))
    if kind in ("sin", "cos", "exp"):  # a tuple, not the dict: a kind need not be hashable
        return _OF_FIELD[kind](from_config(arg("of")))
    if kind == "sum":
        return sum(map(from_config, arg("terms", _array)), ZERO)
    if kind == "product":
        return math.prod(map(from_config, arg("factors", _array)), start=ONE)
    if kind == "scale":
        return constant(arg("by", _number)) * from_config(arg("of"))
    if kind == "pow":
        return from_config(arg("of")) ** arg("exp", integer)
    raise ValueError(f"field spec {spec!r}: unknown field constructor kind {kind!r}")


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

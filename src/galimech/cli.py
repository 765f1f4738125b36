"""Command-line frontend.

Subcommands: ``derive`` (print derived coefficients at a point),
``simulate`` (integrate the law of motion, CSV out), ``check-symmetry``
(residual table for one generator), ``noether`` (charges of an action or
field), ``momentum-map`` (components, time scales, quadratic
classification, lift matching) and ``brackets`` (bracket algebra of the
conserved charges).

Reports are JSON with sorted keys and are byte-identical across runs for a
fixed config and seed; wall-clock timing is only added on request.  Exit
codes: 0 all checks pass, 2 a symmetry or consistency check failed,
3 input error.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time

from . import catalog, dynamics, geometry
from .duals import jet, value, worst
from .fields import ZERO, constant, coordinate, sin_of, cos_of, exp_of, finite, program
from .symmetry import (
    ClassifyError,
    NotASymmetryError,
    charge_jets,
    classify_special_quadratic,
    classify_spacetime,
    check_equivalences,
    generator_match,
    lift_operator,
    momentum_map,
    noether_charges,
    pair_defects,
)
from .units import UnitMismatchError

SCHEMA = 1


# -- tiny expression parser for --field ---------------------------------------


class ParseError(ValueError):
    pass


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            out.append(c)
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or
                                     (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            out.append(("num", float(text[i:j])))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} in field expression")
    return out


class _ExprParser:
    FUNCS = {"sin": sin_of, "cos": cos_of, "exp": exp_of}

    def __init__(self, tokens, n):
        self.toks = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_unary(self):
        if self.peek() == "-":
            self.take()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            t = self.take()
            if not (isinstance(t, tuple) and t[0] == "num" and t[1].is_integer()):
                raise ParseError("exponent must be an integer")
            return base ** int(t[1])
        return base

    def parse_atom(self):
        t = self.take()
        if t == "(":
            node = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing )")
            return node
        if isinstance(t, tuple) and t[0] == "num":
            return constant(t[1])
        if isinstance(t, tuple) and t[0] == "name":
            name = t[1]
            if name in self.FUNCS:
                if self.take() != "(":
                    raise ParseError(f"{name} needs parentheses")
                node = self.parse_expr()
                if self.take() != ")":
                    raise ParseError("missing )")
                return self.FUNCS[name](node)
            if name.startswith("x") and name[1:].isdigit():
                k = int(name[1:])
                if not 0 <= k <= self.n:
                    raise ParseError(f"coordinate {name} out of range")
                return coordinate(k)
            raise ParseError(f"unknown symbol {name!r}")
        raise ParseError("unexpected end of expression")


def parse_vector_field(text, chart):
    """Parse e.g. ``x1^2 d1``, ``d0``, ``x1 d2 - x2 d1``, ``sin(x1) d2``.

    Terms are coefficient expressions followed by a basis symbol dK; raw
    components are classified, so a non-projectable input is rejected with
    its residual.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty field expression")
    # split into top-level terms at +/-; the last one is empty after a dangling sign
    terms, depth, cur, sign = [], 0, [], 1.0
    for t in tokens:
        depth += (t == "(") - (t == ")")
        if depth == 0 and t in ("+", "-"):
            if cur:
                terms.append((sign, cur))
                sign, cur = 1.0, []
            sign *= 1.0 if t == "+" else -1.0
        else:
            cur.append(t)
    terms.append((sign, cur))
    comps = [ZERO] * (chart.n + 1)
    for sign, toks in terms:
        if not toks:
            raise ParseError("dangling sign: no term after the last + or -")
        last = toks[-1]
        if not (isinstance(last, tuple) and last[0] == "name" and
                last[1].startswith("d") and last[1][1:].isdigit()):
            raise ParseError(f"term must end with a basis symbol d0..d{chart.n}")
        slot = int(last[1][1:])
        if not 0 <= slot <= chart.n:
            raise ParseError(f"basis symbol {last[1]} out of range")
        body = toks[:-1]
        if body and body[-1] == "*":
            body = body[:-1]
            if not body:
                raise ParseError(f"dangling *: no coefficient before {last[1]}")
        if body:
            parser = _ExprParser(body, chart.n)
            coef = parser.parse_expr()
            if parser.pos != len(body):
                raise ParseError("trailing tokens in coefficient")
        else:
            coef = constant(1.0)
        comps[slot] = comps[slot] + constant(sign) * coef
    return comps


def resolve_generators(model, spec):
    """A named action of the model, or a parsed field expression."""
    if spec in model.actions:
        return list(model.actions[spec].generators), spec
    raw = parse_vector_field(spec, model.chart)
    pts = model.sample_e(12)
    X, residual = classify_spacetime(model.chart, raw, pts)
    if math.isnan(residual):
        raise ValueError(f"field {spec!r}: residual of the time form is nan at a sample point")
    if X is None:
        raise NotASymmetryError(
            f"field does not preserve the time form (residual {residual:.3e})"
        )
    X.label = spec
    return [X], spec


def _numbers(flag, text, count):
    """The ``count`` comma-separated finite numbers given to ``flag``;
    anything else is an input error naming the flag."""
    try:
        xs = [finite(v, flag) for v in text.split(",")]
    except ValueError:
        xs = None
    if xs is None or len(xs) != count:
        what = "a finite number" if count == 1 else f"{count} comma-separated finite numbers"
        raise ParseError(f"{flag} needs {what}, got {text!r}")
    return xs


# -- report plumbing -----------------------------------------------------------


def _require_finite(command, checks):
    """A non-finite number in a check (an overflowing field) is an input
    error naming the command, the condition and the generator or pair."""
    for c in checks:
        for key, v in sorted(c.items()):
            if isinstance(v, float) and not math.isfinite(v):
                who = "".join(f" for {k} {c[k]}" for k in ("generator", "pair") if k in c)
                raise ValueError(f"{command}: {key} of {c['condition']}{who} is {v}")


def _non_finite(v):
    """The first non-finite number in a payload value, reading lists in
    order and dicts by sorted key; None when every number is finite."""
    if isinstance(v, dict):
        v = [v[k] for k in sorted(v)]
    if isinstance(v, list):
        return next((bad for bad in map(_non_finite, v) if bad is not None), None)
    return v if isinstance(v, float) and not math.isfinite(v) else None


def _mk_report(args, command, model, checks, extra=None):
    """The report of ``checks``; with no checks it certifies nothing and fails."""
    _require_finite(command, checks)
    verdicts = [c.get("verdict") for c in checks if "verdict" in c]
    overall = "pass"
    if not checks or any(v == "fail" for v in verdicts):
        overall = "fail"
    elif any(v == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    rep = {
        "schema": SCHEMA,
        "command": command,
        "model": model.name,
        "seed": args.seed,
        "points": args.points,
        "box": [list(b) for b in model.box],
        "tolerances": {"pass": args.tol_pass, "fail": args.tol_fail},
        "checks": checks,
        "verdict": overall,
    }
    if extra:
        rep.update(extra)
    if args.timing:
        rep["runtime_s"] = round(time.perf_counter() - args._t0, 3)
    return rep


def _emit(args, payload, name):
    """Write a report (JSON, or text as is) to stdout or as ``name`` under --out."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return
    path = os.path.join(args.out, name)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(path, "w", encoding="utf8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError(f"{args.command}: cannot write --out {args.out}: "
                         f"{exc.strerror or exc}") from None
    print(path)


# -- subcommands ----------------------------------------------------------------


def cmd_derive(args, model):
    n = model.chart.n
    xs = _numbers("--point", args.point, 2 * n + 1) if args.point else model.anchor()
    kv, two_form = model.K.values(xs), model.omega.matrix(xs)
    payload = {
        "schema": SCHEMA,
        "command": "derive",
        "model": model.name,
        "point": xs,
        "connection": {
            f"K[{lam},{mu}]": [value(v) for v in vals] for (lam, mu), vals in sorted(kv.items())
        },
        "acceleration": [value(v) for v in model.dyn.gamma00_values(xs)],
        "two_form": [[value(v) for v in row] for row in two_form],
        "nondegeneracy_det": geometry.nondegeneracy_of(two_form),
    }
    if model.theta is not None:
        ham, _ = geometry.observed_split(model.theta, model.observer)
        # one program for both: they share the lines of G and of the potential
        lagrangian, hamiltonian = program([model.theta.value, ham])(xs)
        payload["cartan_form"] = [value(c) for c in model.theta.jet(xs)[0]]
        payload["lagrangian"] = value(lagrangian)
        payload["hamiltonian"] = value(hamiltonian)
    for key in sorted(payload):
        if (bad := _non_finite(payload[key])) is not None:
            raise ValueError(f"derive: {key} is {bad} at the point")
    return payload


def cmd_simulate(args, model):
    n = model.chart.n
    x0 = _numbers("--x0", args.x0, n) if args.x0 else model.anchor()[1 : n + 1]
    v0 = _numbers("--v0", args.v0, n) if args.v0 else [0.0] * n
    t0, T, h = (_numbers(f"--{k}", getattr(args, k), 1)[0] for k in ("t0", "T", "h"))
    charges = {}
    if args.charges:  # an unknown name is rejected before the run
        wanted = []
        for nm in args.charges.split(","):
            if not (nm := nm.strip()):
                raise ParseError(f"--charges {args.charges!r} has an empty entry")
            nm = nm if nm.startswith("charge_") else f"charge_{nm}"
            if nm in wanted:
                raise ParseError(f"--charges names {nm} more than once")
            wanted.append(nm)
        charges = catalog.named_charges(model, wanted, tol=args.tol_pass)
    try:
        traj = dynamics.integrate(model.dyn, [t0, *x0, *v0], T, h)
    except dynamics.StepError as exc:
        raise ValueError(f"simulate: --T {args.T} and --h {args.h}: {exc}") from None
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)]
    lines = [",".join(header + list(charges))]
    cells_of = program([fn.value for fn in charges.values()])  # a row's charge cells
    for k, row in enumerate(traj.rows.tolist()):
        cells = cells_of(row)
        for name, c in zip(charges, cells):
            if not math.isfinite(c):
                raise ValueError(f"simulate: {name} is {c} at step {k}")
        lines.append(",".join(map(repr, row + cells)))
    return "\n".join(lines) + "\n"


def cmd_check_symmetry(args, model):
    gens, _ = resolve_generators(model, args.field)
    samplers = (model.sample_e, model.sample_phase, model.sample_te, model.sample_j2)
    reports = check_equivalences(model, gens, *(s(args.points, args.seed) for s in samplers),
                                 args.tol_pass, args.tol_fail)
    checks = []
    for X, rep in zip(gens, reports):
        for name, r in sorted(rep.residuals.items()):
            checks.append({"generator": X.label, "condition": name, "residual": r,
                           "verdict": rep.verdict(name)})
        ok = rep.consistent()
        checks.append({"generator": X.label, "condition": "correspondence-consistency",
                       "residual": 0.0 if ok else 1.0, "verdict": "pass" if ok else "fail"})
    return _mk_report(args, "check-symmetry", model, checks, {"field": args.field})


def cmd_noether(args, model):
    if model.theta is None:
        raise NotASymmetryError(
            f"model {model.name} has no global potential form; charges undefined"
        )
    gens, _ = resolve_generators(model, args.field)
    pts = model.sample_phase(args.points, args.seed)
    checks, anchor = [], model.anchor()
    charges = noether_charges(gens, model.theta, pts, args.tol_pass, model.dyn)
    for X, (charge, residual, conserved, gdot) in zip(gens, charges):
        anchor_value = value(charge.value(anchor))
        checks.append(
            {
                "generator": X.label,
                "condition": "potential-form-invariance",
                "residual": residual,
                "verdict": "pass" if conserved else "fail",
                "conserved": bool(conserved),
                "time_scale": X.x0,
                "motion_derivative_residual": gdot,
                "anchor_value": anchor_value,
                "anchor_value_opposite_sign": -anchor_value,
            }
        )
    return _mk_report(args, "noether", model, checks, {"field": args.field})


def _require_actions(model):
    if not model.actions:
        raise catalog.ModelError(f"model {model.name} defines no actions")


def cmd_momentum_map(args, model):
    _require_actions(model)
    if model.theta is None:
        raise NotASymmetryError(
            f"model {model.name} has no global potential form; momentum map undefined"
        )
    action_name = args.action or "translations"
    if action_name not in model.actions:
        raise catalog.ModelError(
            f"model {model.name} has no action {action_name!r}; "
            f"available: {sorted(model.actions)}"
        )
    action = model.actions[action_name]
    pts = model.sample_phase(args.points, args.seed)
    pts_e = model.sample_e(min(args.points, 10), args.seed)
    entries = momentum_map(action, model.theta, pts, anchor=model.anchor(), tol=args.tol_pass)
    _require_finite("momentum-map", [  # momentum_map leaves a nan residual to its caller
        {"generator": e.label, "condition": "potential-form-invariance",
         "residual": e.symmetry_residual} for e in entries])
    checks = []
    for entry in entries:
        match = generator_match(entry, model.omega, pts[: min(len(pts), 25)])
        quantisable = True
        f0_err = 0.0
        try:
            validate = classify_special_quadratic(entry.charge.value, model.G).validate
            f0_err = worst([validate(p) - entry.tau for p in pts_e])
        except ClassifyError:
            quantisable = False
        ok = match < args.tol_pass and quantisable and f0_err < 1e-10
        checks.append(
            {
                "generator": entry.label,
                "condition": "lift-reproduces-generator",
                "residual": match,
                "verdict": "pass" if ok else "fail",
                "time_scale": entry.tau,
                "quantisable": quantisable,
                "time_scale_fit_error": f0_err,
                "anchor_value": entry.anchor_value,
            }
        )
    structure_res = action.closure_residual(pts_e) if action.structure else None
    extra = {"action": action_name}
    if structure_res is not None:
        checks.append(
            {
                "condition": "algebra-closure",
                "residual": structure_res,
                "verdict": "pass" if structure_res < 1e-8 else "fail",
            }
        )
    return _mk_report(args, "momentum-map", model, checks, extra)


def cmd_brackets(args, model):
    _require_actions(model)
    if model.theta is None:
        raise NotASymmetryError(f"model {model.name} has no potential form")
    pts = model.sample_phase(args.points, args.seed)
    checked = catalog.checked_charges(model, check_points=pts, tol=args.tol_pass)
    charges = {key: charge for key, (charge, _, conserved) in checked.items() if conserved}
    labels = list(charges)
    # a charge whose invariance fails has no bracket to check: it fails here
    checks = [{"generator": key.removeprefix("charge_"), "condition": "potential-form-invariance",
               "residual": residual, "verdict": "fail"}
              for key, (_, residual, conserved) in checked.items() if not conserved]
    sample = pts[: min(len(pts), 8)]
    lift, djet = lift_operator(model.omega), charge_jets(charges.values(), model.chart.dim_phase)
    pairs = list(itertools.combinations(range(len(labels)), 2))
    # homomorphism of the pair bracket into vector fields: at each sample
    # point, from the jets of the operator and of each charge's dF, the
    # commutator of each pair's lifts against the lift of its bracket's
    # differential
    defects = [pair_defects(jet(lift, xs), djet(xs), [value(f.f0(xs)) for f in charges.values()],
                            pairs) for xs in sample]
    for p, (la, lb) in enumerate(itertools.combinations(labels, 2)):
        # charges with constant time scales have a special bracket
        # (criterion 14 checks its algebra; it is not validated here)
        closed = all(charges[c].f0.const_value is not None for c in (la, lb))
        residual = worst([d[p] for d in defects])
        checks.append(
            {
                "pair": [la, lb],
                "condition": "bracket-closure-and-homomorphism",
                "residual": residual,
                "verdict": "pass" if (closed and residual < 1e-6) else "fail",
                "closed": closed,
            }
        )
    return _mk_report(args, "brackets", model, checks)


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line, exit code 3."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The parser, built once per process (parsing does not change it)."""
    p = _Parser(
        prog="galimech",
        description="Covariant Galilean mechanics on charts: derived structure, "
        "symmetry checks, conserved charges.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", "-m", default="free3d",
                        help="catalog name or path to a JSON config")
        sp.add_argument("--config", default=None,
                        help="alias for --model with an explicit path")
        sp.add_argument("--tol-pass", default="1e-9", dest="tol_pass")
        sp.add_argument("--tol-fail", default="1e-3", dest="tol_fail")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--box", default=None,
                        help="uniform box 'lo,hi' applied to all phase coordinates")
        sp.add_argument("--points", type=int, default=50)
        sp.add_argument("--out", default=None, help="directory for artifacts")
        sp.add_argument("--timing", action="store_true",
                        help="include wall-clock runtime in the report")

    sp = sub.add_parser("derive", help="print derived coefficients at a point")
    common(sp)
    sp.add_argument("--point", default=None, help="comma-separated phase coordinates")

    sp = sub.add_parser("simulate", help="integrate the law of motion")
    common(sp)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--v0", default=None)
    sp.add_argument("--t0", default="0.0")
    sp.add_argument("--T", default="1.0")
    sp.add_argument("--h", default="1e-3")
    sp.add_argument("--charges", default=None,
                    help="comma-separated charge names to track")

    sp = sub.add_parser("check-symmetry", help="residual table for a generator")
    common(sp)
    sp.add_argument("--field", required=True,
                    help="action name or expression like 'x1^2 d1'")

    sp = sub.add_parser("noether", help="charges of an action or field")
    common(sp)
    sp.add_argument("--field", required=True)

    sp = sub.add_parser("momentum-map", help="momentum map of an action")
    common(sp)
    sp.add_argument("--action", default=None)

    sp = sub.add_parser("brackets", help="bracket algebra of conserved charges")
    common(sp)

    return p


# each command's payload and the name of its artifact under --out
_COMMANDS = {
    "derive": (cmd_derive, "derive.json"),
    "simulate": (cmd_simulate, "trajectory.csv"),
    "check-symmetry": (cmd_check_symmetry, "check-symmetry.json"),
    "noether": (cmd_noether, "noether.json"),
    "momentum-map": (cmd_momentum_map, "momentum-map.json"),
    "brackets": (cmd_brackets, "brackets.json"),
}


def main(argv=None):
    command = "galimech"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        args._t0 = time.perf_counter()
        if (env_seed := os.environ.get("GALIMECH_SEED")) is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ParseError(f"GALIMECH_SEED must be an integer, got {env_seed!r}") from None
        if args.points < 1:
            raise ParseError(f"--points must be at least 1, got {args.points}")
        args.tol_pass = _numbers("--tol-pass", args.tol_pass, 1)[0]
        args.tol_fail = _numbers("--tol-fail", args.tol_fail, 1)[0]
        if args.tol_pass > args.tol_fail:
            raise ParseError(f"--tol-pass {args.tol_pass} is above --tol-fail {args.tol_fail}")
        box = _numbers("--box", args.box, 2) if args.box else None
        model = catalog.load_model(args.config or args.model)
        if box:
            model.box = [tuple(box)] * model.chart.dim_phase
        run, artifact = _COMMANDS[args.command]
        payload = run(args, model)
        _emit(args, payload, artifact)
        # a report's verdict sets the code; derive and simulate have none
        return 0 if isinstance(payload, str) or payload.get("verdict", "pass") == "pass" else 2
    except (catalog.ModelError, UnitMismatchError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: {command}: a field is singular or overflows at a sample point ({exc})",
              file=sys.stderr)
        return 3
    except RecursionError:
        print(f"error: {command}: a field is nested too deeply", file=sys.stderr)
        return 3
    except (NotASymmetryError, ClassifyError, geometry.SingularMetricError,
            geometry.SingularOmegaError, dynamics.IntegrationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

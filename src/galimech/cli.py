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
import json
import os
import sys
import time

from . import catalog, dynamics, geometry
from .duals import value
from .fields import ZERO, constant, coordinate, sin_of, cos_of, exp_of
from .symmetry import (
    ClassifyError,
    NotASymmetryError,
    classify_special_quadratic,
    classify_spacetime,
    check_equivalences,
    gamma_dot,
    generator_match,
    momentum_map,
    noether_charge,
    poisson_bracket,
    special_bracket,
    tau_lift_values,
    vector_commutator,
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
    # split into top-level terms at +/-
    terms = []
    depth = 0
    cur = []
    sign = 1.0
    for t in tokens:
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        if depth == 0 and t in ("+", "-") and cur:
            terms.append((sign, cur))
            sign = 1.0 if t == "+" else -1.0
            cur = []
        elif depth == 0 and t in ("+", "-") and not cur:
            sign *= 1.0 if t == "+" else -1.0
        else:
            cur.append(t)
    if cur:
        terms.append((sign, cur))
    comps = [ZERO for _ in range(chart.n + 1)]
    for sign, toks in terms:
        if not toks:
            raise ParseError("empty term")
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
    if X is None:
        raise NotASymmetryError(
            f"field does not preserve the time form (residual {residual:.3e})"
        )
    X.label = spec
    return [X], spec


# -- report plumbing -----------------------------------------------------------


def _mk_report(args, command, model, checks, extra=None):
    verdicts = [c.get("verdict") for c in checks if "verdict" in c]
    overall = "pass"
    if any(v == "fail" for v in verdicts):
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


def _emit(args, payload, default_name):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, default_name)
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _exit_code(report):
    return 0 if report["verdict"] == "pass" else 2


# -- subcommands ----------------------------------------------------------------


def cmd_derive(args, model):
    n = model.chart.n
    if args.point:
        xs = [float(v) for v in args.point.split(",")]
        if len(xs) != 2 * n + 1:
            raise ParseError(f"--point needs {2 * n + 1} comma-separated values")
    else:
        xs = model.anchor()
    kv = model.K.values(xs)
    payload = {
        "schema": SCHEMA,
        "command": "derive",
        "model": model.name,
        "point": xs,
        "connection": {
            f"K[{lam},{mu}]": [value(v) for v in vals] for (lam, mu), vals in sorted(kv.items())
        },
        "acceleration": [value(v) for v in model.dyn.gamma00_values(xs)],
        "two_form": [[value(v) for v in row] for row in model.omega.matrix(xs)],
        "nondegeneracy_det": model.omega.nondegeneracy_det(xs),
    }
    if model.theta is not None:
        lag, mom = geometry.lagrangian_and_momentum(model.theta)
        ham, _ = geometry.observed_split(model.theta, model.observer)
        payload["cartan_form"] = [value(c) for c in model.theta.components(xs)]
        payload["lagrangian"] = value(lag.value(xs))
        payload["hamiltonian"] = value(ham(xs))
    _emit(args, payload, "derive.json")
    return 0


def cmd_simulate(args, model):
    n = model.chart.n
    x0 = [float(v) for v in args.x0.split(",")] if args.x0 else model.anchor()[1 : n + 1]
    v0 = [float(v) for v in args.v0.split(",")] if args.v0 else [0.0] * n
    if len(x0) != n or len(v0) != n:
        raise ParseError(f"--x0/--v0 need {n} components for model {model.name}")
    traj = dynamics.integrate(model.dyn, [args.t0, *x0, *v0], args.T, args.h)
    charges = {}
    if args.charges:
        wanted = []
        for nm in args.charges.split(","):
            nm = nm.strip()
            wanted.append(nm if nm.startswith("charge_") else f"charge_{nm}")
        charges = catalog.named_charges(model, wanted)
    lines = []
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)]
    header += list(charges)
    lines.append(",".join(header))
    for k in range(len(traj)):
        row = [repr(float(traj.t[k]))]
        row += [repr(float(c)) for c in traj.x[k]]
        row += [repr(float(c)) for c in traj.v[k]]
        p = [float(c) for c in traj.phase_coords(k)]
        row += [repr(float(value(fn.value(p)))) for fn in charges.values()]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "trajectory.csv")
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_symmetry(args, model):
    gens, _ = resolve_generators(model, args.field)
    pts_e = model.sample_e(args.points, args.seed)
    pts_phase = model.sample_phase(args.points, args.seed)
    pts_te = model.sample_te(args.points, args.seed)
    pts_j2 = model.sample_j2(args.points, args.seed)
    checks = []
    for X in gens:
        rep = check_equivalences(
            model, X, pts_e, pts_phase, pts_te, pts_j2, args.tol_pass, args.tol_fail
        )
        for name, r in sorted(rep.residuals.items()):
            checks.append(
                {
                    "generator": X.label,
                    "condition": name,
                    "residual": r,
                    "verdict": rep.verdict(name),
                }
            )
        checks.append(
            {
                "generator": X.label,
                "condition": "correspondence-consistency",
                "residual": 0.0 if rep.consistent() else 1.0,
                "verdict": "pass" if rep.consistent() else "fail",
            }
        )
    report = _mk_report(args, "check-symmetry", model, checks, {"field": args.field})
    _emit(args, report, "check-symmetry.json")
    return _exit_code(report)


def cmd_noether(args, model):
    if model.theta is None:
        raise NotASymmetryError(
            f"model {model.name} has no global potential form; charges undefined"
        )
    gens, _ = resolve_generators(model, args.field)
    pts = model.sample_phase(args.points, args.seed)
    checks = []
    for X in gens:
        charge, residual, conserved = noether_charge(X, model.theta, pts, args.tol_pass)
        gdot = max(abs(value(gamma_dot(charge, model.dyn, p))) for p in pts)
        anchor = model.anchor()
        checks.append(
            {
                "generator": X.label,
                "condition": "potential-form-invariance",
                "residual": residual,
                "verdict": "pass" if conserved else "fail",
                "conserved": bool(conserved),
                "time_scale": X.x0,
                "motion_derivative_residual": gdot,
                "anchor_value": value(charge.value(anchor)),
                "anchor_value_opposite_sign": -value(charge.value(anchor)),
            }
        )
    report = _mk_report(args, "noether", model, checks, {"field": args.field})
    _emit(args, report, "noether.json")
    return _exit_code(report)


def cmd_momentum_map(args, model):
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
    entries = momentum_map(action, model.theta, pts, anchor=model.anchor())
    checks = []
    for entry in entries:
        match = generator_match(entry, model.omega, pts[: min(len(pts), 25)])
        quantisable = True
        f0_err = 0.0
        try:
            sq = classify_special_quadratic(
                entry.charge.value, model.G, validate_at=pts_e
            )
            f0_err = max(
                abs(value(sq.f0(p)) - entry.tau) for p in pts_e
            )
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
    report = _mk_report(args, "momentum-map", model, checks, extra)
    _emit(args, report, "momentum-map.json")
    return _exit_code(report)


def cmd_brackets(args, model):
    if model.theta is None:
        raise NotASymmetryError(f"model {model.name} has no potential form")
    pts = model.sample_phase(args.points, args.seed)
    charges = catalog.named_charges(model, check_points=pts)
    labels = list(charges)
    checks = []
    sample = pts[: min(len(pts), 8)]
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            f, g = charges[la], charges[lb]
            try:
                sq = special_bracket(f, g, model.omega, at=model.anchor()[: model.chart.n + 1])
                closed = True
            except ClassifyError:
                closed = False
            # homomorphism of the pair bracket into vector fields
            worst = 0.0
            for xs in sample:
                tau_f = value(f.f0(xs))
                tau_g = value(g.f0(xs))

                def hf(p, fn=f, t=tau_f):
                    return tau_lift_values(fn, t, model.omega, p)

                def hg(p, fn=g, t=tau_g):
                    return tau_lift_values(fn, t, model.omega, p)

                comm = vector_commutator(hf, hg, xs)

                def pb(p, ff=f, gg=g):
                    return poisson_bracket(ff, gg, model.omega, p)

                lifted = tau_lift_values(pb, 0.0, model.omega, xs)
                worst = max(
                    worst,
                    max(abs(value(a) - value(b)) for a, b in zip(comm, lifted)),
                )
            checks.append(
                {
                    "pair": [la, lb],
                    "condition": "bracket-closure-and-homomorphism",
                    "residual": worst,
                    "verdict": "pass" if (closed and worst < 1e-6) else "fail",
                    "closed": closed,
                }
            )
    report = _mk_report(args, "brackets", model, checks)
    _emit(args, report, "brackets.json")
    return _exit_code(report)


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line, exit code 3."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
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
        sp.add_argument("--tol-pass", type=float, default=1e-9, dest="tol_pass")
        sp.add_argument("--tol-fail", type=float, default=1e-3, dest="tol_fail")
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
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=1e-3)
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


_COMMANDS = {
    "derive": cmd_derive,
    "simulate": cmd_simulate,
    "check-symmetry": cmd_check_symmetry,
    "noether": cmd_noether,
    "momentum-map": cmd_momentum_map,
    "brackets": cmd_brackets,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args._t0 = time.perf_counter()
        env_seed = os.environ.get("GALIMECH_SEED")
        if env_seed is not None:
            args.seed = int(env_seed)
        if args.points < 1:
            raise ParseError(f"--points must be at least 1, got {args.points}")
        model = catalog.load_model(args.config or args.model)
        if args.box:
            lo, hi = (float(v) for v in args.box.split(","))
            model.box = [(lo, hi)] * model.chart.dim_phase
        return _COMMANDS[args.command](args, model)
    except (catalog.ModelError, UnitMismatchError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotASymmetryError, ClassifyError, geometry.SingularMetricError,
            geometry.SingularOmegaError, dynamics.IntegrationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads and their per-op correctness gates.

An op is one unit of user-visible work: one or more ``galimech`` CLI
invocations run in-process through ``galimech.cli.main(argv)`` with stdout
captured.  Every input an op sees (sampler seeds, initial states, config
files) is drawn from the benchmark seed and the op index alone, so op ``i``
is the same whatever ran before it and however long the run lasts.

Each op's outputs go through ``Op.check``; any exception there is a failed
op.  Failures are never retried or dropped.
"""

import contextlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field

# The rigidbody model's declared sample box on the phase chart (t, phi,
# theta, psi, v1, v2, v3); initial states are drawn from it.  It is copied
# here so the benchmark's inputs stay fixed if the model's box changes.  Its
# theta range keeps clear of the Euler-chart singularity at theta = 0, which
# the CLI's default x0 hits.
RIGIDBODY_BOX = [(-0.4, 0.4), (-0.5, 0.5), (0.7, 2.4), (-0.5, 0.5),
                 (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]

# Largest accepted |charge(t) - charge(0)| along a rigidbody trajectory.
# RK4 at h = 1e-3 over T = 0.2 drifts by less than 1e-13 here; the bound leaves
# room for rounding while still catching a wrong right-hand side.
CHARGE_DRIFT_BOUND = 1e-9

SIM_H = 1e-3
TRAJ_T = 0.2
CONFIG_SIM_T = 0.02
CONFIG_DIMS = (2, 3, 4)


class GateError(AssertionError):
    """An op's exit code, verdict or payload is not what the workload expects."""


@dataclass
class Op:
    """One op: files to write, CLI invocations to run, and its gate."""

    index: int
    argvs: list
    check: object  # callable(list of (rc, stdout)) -> None, raises GateError
    items: int
    files: dict = field(default_factory=dict)


def run_cli(argv):
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr).

    A traceback becomes exit code 1 with the traceback as stderr, as it
    would for a user running the installed command.
    """
    from galimech import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_op(op):
    """Write the op's files and run its invocations; returns [(rc, stdout)]."""
    for path, text in op.files.items():
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text)
    results = []
    for argv in op.argvs:
        rc, out, err = run_cli(argv)
        results.append((rc, out if rc in (0, 2) else out + err))
    return results


def gate(op, results):
    """None when the op's outputs pass its gate, else the reason they fail."""
    try:
        op.check(results)
    except (GateError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"op {op.index}: {type(exc).__name__}: {exc}"
    return None


def _require(cond, msg):
    if not cond:
        raise GateError(msg)


def _op_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _csv_fmt(vals):
    return ",".join(repr(round(v, 6)) for v in vals)


# -- symmetry-rigidbody ---------------------------------------------------------


def _check_symmetry_payload(results, seed):
    ((rc, out),) = results
    _require(rc == 0, f"check-symmetry exit {rc}")
    rep = json.loads(out)
    _require(rep["seed"] == seed, "report does not record the sampler seed")
    _require(rep["verdict"] == "pass", f"overall verdict {rep['verdict']}")
    checks = rep["checks"]
    _require(len(checks) == 27, f"{len(checks)} checks, expected 3 generators x 9")
    _require({c["generator"] for c in checks} == {"Rx", "Ry", "Rz"}, "generator labels")
    bad = [c for c in checks if c["verdict"] != "pass"]
    _require(not bad, f"non-pass verdicts: {bad[:2]}")


def symmetry_rigidbody(seed, index):
    s = _op_rng("symmetry-rigidbody", seed, index).randrange(2**31)
    argv = ["check-symmetry", "--model", "rigidbody", "--field", "rotations",
            "--points", "1", f"--seed={s}"]
    return Op(index, [argv], lambda r: _check_symmetry_payload(r, s), items=3)


# -- trajectory-rigidbody -------------------------------------------------------


def check_trajectory_csv(text, n, steps, charges=()):
    """Header, row count, finiteness and charge drift of a simulate CSV."""
    lines = text.splitlines()
    header = (["t"] + [f"x{i}" for i in range(1, n + 1)]
              + [f"v{i}" for i in range(1, n + 1)] + [f"charge_{c}" for c in charges])
    _require(lines[0].split(",") == header, f"header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
    _require(all(len(r) == len(header) for r in rows), "ragged rows")
    _require(all(math.isfinite(v) for r in rows for v in r), "non-finite state")
    for col in range(1 + 2 * n, len(header)):
        drift = max(abs(r[col] - rows[0][col]) for r in rows)
        _require(drift <= CHARGE_DRIFT_BOUND, f"{header[col]} drift {drift:.3e}")


def trajectory_rigidbody(seed, index):
    rng = _op_rng("trajectory-rigidbody", seed, index)
    state = [rng.uniform(lo, hi) for lo, hi in RIGIDBODY_BOX[1:]]
    argv = ["simulate", "--model", "rigidbody", "--h", repr(SIM_H), "--T", repr(TRAJ_T),
            "--charges", "d0,Rz", f"--x0={_csv_fmt(state[:3])}", f"--v0={_csv_fmt(state[3:])}"]
    steps = round(TRAJ_T / SIM_H)

    def check(results):
        ((rc, out),) = results
        _require(rc == 0, f"simulate exit {rc}")
        check_trajectory_csv(out, 3, steps, ("d0", "Rz"))

    return Op(index, [argv], check, items=steps)


# -- brackets-free3d -------------------------------------------------------------


def _check_brackets_payload(results, seed):
    ((rc, out),) = results
    _require(rc == 0, f"brackets exit {rc}")
    rep = json.loads(out)
    _require(rep["seed"] == seed, "report does not record the sampler seed")
    _require(rep["verdict"] == "pass", f"overall verdict {rep['verdict']}")
    pairs = [tuple(c["pair"]) for c in rep["checks"]]
    _require(len(pairs) == 21 and len(set(pairs)) == 21, f"{len(pairs)} pairs, expected 21")
    bad = [c for c in rep["checks"] if c["verdict"] != "pass" or not c["closed"]]
    _require(not bad, f"failing pairs: {bad[:2]}")


def brackets_free3d(seed, index):
    s = _op_rng("brackets-free3d", seed, index).randrange(2**31)
    argv = ["brackets", "--model", "free3d", "--points", "1", f"--seed={s}"]
    return Op(index, [argv], lambda r: _check_brackets_payload(r, s), items=21)


# -- configs-random ----------------------------------------------------------------


def _poly(rng, n, base):
    """Sparse polynomial spec: base + small affine part + one small square."""
    terms = [[base + rng.uniform(-0.12, 0.12), []]]
    terms += [[rng.uniform(-0.12, 0.12), [slot, 1]] for slot in range(n + 1)]
    terms.append([rng.uniform(-0.08, 0.08), [rng.randrange(n + 1), 2]])
    return {"kind": "polynomial", "coeffs": terms}


def random_config(rng, n):
    """A chart model near 2*I with a non-zero gauge potential and a metric
    dimension tag, in the JSON format ``galimech`` loads."""
    entries = {f"{a},{b}": _poly(rng, n, 2.0 if a == b else 0.0)
               for a in range(1, n + 1) for b in range(a, n + 1)}
    return {
        "name": f"generated-n{n}",
        "n": n,
        "metric": {"dim": [1, 0, 0], "entries": entries},
        "potential": [_poly(rng, n, 0.0) for _ in range(n + 1)],
    }


def _check_config_outputs(results, n, steps, seed):
    """Gate of one config's derive, noether and simulate outputs."""
    (rc_d, out_d), (rc_n, out_n), (rc_s, out_s) = results
    _require(rc_d == 0, f"derive exit {rc_d}")
    rep = json.loads(out_d)
    m = rep["two_form"]
    dim = 2 * n + 1
    _require(len(m) == dim and all(len(row) == dim for row in m), "two_form shape")
    _require(all(m[a][b] == -m[b][a] for a in range(dim) for b in range(dim)),
             "two_form not antisymmetric")
    det = rep["nondegeneracy_det"]
    _require(math.isfinite(det) and det != 0.0, f"nondegeneracy_det {det}")
    _require(rc_n in (0, 2), f"noether exit {rc_n}")
    rep = json.loads(out_n)
    _require(rep["seed"] == seed and len(rep["checks"]) == 1, "noether report")
    _require(rc_s == 0, f"simulate exit {rc_s}")
    check_trajectory_csv(out_s, n, steps)


def configs_random(seed, index, workdir):
    """One op: a generated config for each n in CONFIG_DIMS, in that order.
    A single op holds the whole n mix, so every op costs about the same and
    the median op time does not depend on which n it falls on."""
    rng = _op_rng("configs-random", seed, index)
    steps = round(CONFIG_SIM_T / SIM_H)
    argvs, files, gates = [], {}, []
    for n in CONFIG_DIMS:
        path = os.path.join(workdir, f"config-{index % 64}-n{n}.json")
        files[path] = json.dumps(random_config(rng, n), sort_keys=True)
        point = [rng.uniform(-0.5, 0.5) for _ in range(2 * n + 1)]
        x0 = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        v0 = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        s = rng.randrange(2**31)
        argvs += [
            ["derive", "--model", path, f"--point={_csv_fmt(point)}"],
            ["noether", "--model", path, "--field", "x1 d2 - x2 d1", "--points", "4",
             f"--seed={s}"],
            ["simulate", "--model", path, "--h", repr(SIM_H), "--T", repr(CONFIG_SIM_T),
             f"--x0={_csv_fmt(x0)}", f"--v0={_csv_fmt(v0)}"],
        ]
        gates.append((n, s))

    def check(results):
        _require(len(results) == 3 * len(gates), f"{len(results)} invocations")
        for k, (n, s) in enumerate(gates):
            _check_config_outputs(results[3 * k:3 * k + 3], n, steps, s)

    return Op(index, argvs, check, items=len(CONFIG_DIMS), files=files)


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object  # callable(seed, index) -> Op
    item: str  # what items_per_s counts
    trace_ops: int = 2  # ops in the fixed set a traced run measures
    kernel_model: str = ""  # model of the per-point kernel table


def workloads(workdir):
    return {
        "symmetry-rigidbody": Workload(
            "symmetry-rigidbody", symmetry_rigidbody, "points", kernel_model="rigidbody"),
        "trajectory-rigidbody": Workload(
            "trajectory-rigidbody", trajectory_rigidbody, "steps", kernel_model="rigidbody"),
        "brackets-free3d": Workload(
            "brackets-free3d", brackets_free3d, "pairs", kernel_model="free3d"),
        "configs-random": Workload(
            "configs-random", lambda seed, i: configs_random(seed, i, workdir), "configs",
            trace_ops=1),
    }

#!/usr/bin/env python3
"""Benchmark of the galimech CLI: one client, closed loop, seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each op calls ``galimech.cli.main(argv)``
in-process with stdout captured, so interpreter start-up is timed only in
``setup_s``.  One process, one thread, BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
timings are normalized for host speed (see ``hostspeed.py``); the raw wall
times are printed beside them.
``--trace 1`` runs a fixed set of ops alternately untraced and traced
(wrappers from ``layertrace.py``) and reports per-op layer counts and self
times, plus the per-point kernel table of ``kernels.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are a readable
report.  Run metadata, full results and recorded spans go to
``perfbench/out/``.
"""

import os

# Before numpy is imported anywhere: one BLAS thread, and no seed override.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GALIMECH_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import kernels  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from workloads import gate, run_op, workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
# The child prints the wall clock once the model is loaded, so the figure
# covers process start, imports and model load but not interpreter exit,
# and is not rounded to the polling step of a timed wait.
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from galimech import catalog, cli; catalog.load_model(sys.argv[2]); print(time.time())"
)
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, source, tracer prefix).  Counts and self times are per op.
LAYER_METRICS = (
    [(f"{p}_calls", "calls/op", "calls", p) for p in (
        "duals.mul", "duals.partial_multi", "duals.grad", "fields.partial1",
        "fields.partial2", "geometry.metric_inv", "duals.solve_generic",
        "geometry.gamma00", "dynamics.rhs", "symmetry.tau_lift",
        "symmetry.vector_commutator", "geometry.omega_matrix", "geometry.lift_values")]
    + [(f"{p}_ms", "ms/op", "ms", p) for p in (
        "fields.partial", "geometry.metric_inv", "duals.solve_generic", "geometry.gamma00")]
    + [("dynamics.integrate_self_ms", "ms/op", "ms", "dynamics.integrate"),
       ("cli.self_ms", "ms/op", "ms", "cli")]
    + [(f"symmetry.lie_{f}_ms", "ms/op", "ms", f"symmetry.lie_{f}")
       for f in kernels.LIE_FAMILIES]
    + [(f"{p}_ms", "ms/op", "ms", p) for p in (
        "symmetry.tau_lift", "symmetry.vector_commutator", "symmetry.classify",
        "geometry.omega_matrix", "catalog.load_model", "catalog.named_charges",
        "symmetry.noether_charge")]
    + [("geometry.inv_per_gamma00", "ratio", "ratio", None)]
    + [(name, "us", "kernel", None) for name in kernels.KERNEL_METRICS]
    + [("bench.trace_overhead_frac", "frac", "overhead", None)]
)


def run_metadata(args):
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 thread",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_lines": src_lines,
    }


class Gate:
    """Counts attempted and failed ops; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.reasons = []

    def record(self, op, results, reference=None):
        self.attempted += 1
        reason = gate(op, results)
        if reason is None and reference is not None and results != reference:
            reason = f"op {op.index}: payload differs from an earlier run with the same seed"
        if reason is not None:
            self.reasons.append(reason)

    @property
    def failed(self):
        return len(self.reasons)


def setup_seconds(model_arg):
    """Medians of the normalized and of the raw wall time of fresh processes
    that import the package and load the model of the first op.  Each is
    normalized by the bare interpreter processes started before and after it."""
    times, walls = [], []
    bare = hostspeed.spawn_seconds(hostspeed.BARE_CHILD, cwd=ROOT)
    for _ in range(SETUP_REPEATS):
        wall = hostspeed.spawn_seconds(SETUP_CHILD, str(SRC), model_arg, cwd=ROOT)
        bare_after = hostspeed.spawn_seconds(hostspeed.BARE_CHILD, cwd=ROOT)
        times.append(hostspeed.normalize_spawn(wall, bare, bare_after))
        walls.append(wall)
        bare = bare_after
    return statistics.median(times), statistics.median(walls)


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above it."""
    s = sorted(times)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def timed_run(wl, seed, seconds, report):
    g = Gate()
    first = wl.make_op(seed, 0)
    reference = run_op(first)  # also warms imports and writes the first config
    g.record(first, reference)
    setup, setup_wall = setup_seconds(first.argvs[0][2])

    # A calibration loop runs between every two ops, outside the timed
    # intervals; the wall times are normalized by them afterwards.
    walls, items, i = [], 0, 1
    cals = [hostspeed.calibration_seconds()]
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        op = wl.make_op(seed, i)
        t0 = time.perf_counter()
        results = run_op(op)
        walls.append(time.perf_counter() - t0)
        cals.append(hostspeed.calibration_seconds())
        items += op.items
        g.record(op, results)
        i += 1
    g.record(first, run_op(first), reference)

    times = hostspeed.normalize_ops(walls, cals)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": setup,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "items_per_s": items / hostspeed.normalize_total(walls, cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.update(ops_timed=len(times), tail_percentile=tail_pct,
                  item=wl.item, items=items,
                  **{f"{wl.item}_per_s": metrics["items_per_s"]},
                  calibration_ref_ms=hostspeed.REF_S * 1e3,
                  calibration_p50_ms=statistics.median(cals) * 1e3,
                  setup_wall_s=setup_wall, op_p50_wall_s=statistics.median(walls),
                  items_per_wall_s=items / sum(walls))
    return g, metrics


def traced_run(wl, seed, seconds, report):
    g = Gate()
    ops = [wl.make_op(seed, i) for i in range(wl.trace_ops)]
    refs = [run_op(op) for op in ops]
    for op, res in zip(ops, refs):
        g.record(op, res)

    # Kernels first, while the process holds no tracing garbage.  Without a
    # catalog model the kernels run on op 0's generated n = 3 config (its
    # second config, after derive, noether and simulate of the n = 2 one).
    model_arg = wl.kernel_model or ops[0].argvs[3][2]
    from galimech import catalog

    table = kernels.kernel_table(catalog.load_model(model_arg), seed)

    tracer = LayerTracer()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        plain = [run_op(op) for op in ops]
        untraced = time.perf_counter() - t0
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = []
            for op in ops:
                tracer.op = op.index
                traced.append(run_op(op))
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        for op, a, b, ref in zip(ops, plain, traced, refs):
            g.record(op, a, ref)
            g.record(op, b, ref)
        if not passes:
            tracer.write_spans(OUT / f"spans-{wl.name}-seed{seed}.csv")
            report["spans"] = len(tracer.spans)
        passes.append((untraced, traced_s, dict(tracer.counts), dict(tracer.self_s)))

    counts = passes[0][2]
    counts_repeat = all(p[2] == counts for p in passes)
    per_op = len(ops)
    metrics = {}
    for name, _unit, source, prefix in LAYER_METRICS:
        if source == "calls":
            metrics[name] = counts.get(prefix, 0) / per_op
        elif source == "ms":
            metrics[name] = statistics.median(p[3].get(prefix, 0.0) for p in passes) * 1e3 / per_op
        elif source == "ratio":
            gamma = counts.get("geometry.gamma00", 0)
            metrics[name] = counts.get("geometry.metric_inv", 0) / gamma if gamma else 0.0
        elif source == "kernel":
            metrics[name] = table[name]
        else:
            metrics[name] = statistics.median(p[1] / p[0] for p in passes) - 1.0
    report.update(passes=len(passes), ops_per_pass=per_op, calls_repeat=counts_repeat,
                  kernel_model=model_arg if wl.kernel_model else "generated n=3 config",
                  kernel_vs_baseline=kernels.baseline_notes(table, wl.kernel_model))
    return g, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "galimech" / "cli.py").is_file():
        print(f"error: no galimech sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    table = workloads(str(OUT / "work"))
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]

    report = run_metadata(args)
    run = traced_run if args.trace else timed_run
    g, metrics = run(wl, args.seed, args.seconds, report)
    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _s, _p in LAYER_METRICS})
    report.update(attempted=g.attempted, failed=g.failed,
                  failed_frac=g.failed / g.attempted, failures=g.reasons[:20],
                  metrics=metrics)
    stem = f"result-{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf8")

    for key, val in report.items():
        if key not in ("metrics", "kernel_vs_baseline", "failures"):
            print(f"{key}: {val}")
    for line in report.get("kernel_vs_baseline", []):
        print(f"kernel {line}")
    for reason in g.reasons[:5]:
        print(f"FAILED {reason}")
    for name, val in metrics.items():
        print(f"{name} = {val:.6g} {units[name]}")
    result = {
        # A traced run is also wrong when one op set gave different call counts.
        "correct": g.failed == 0 and report.get("calls_repeat", True),
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

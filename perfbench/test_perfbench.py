"""Self-tests of the benchmark's gates and tracer.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTracer  # noqa: E402


def _main_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_benchmark_json_names_every_metric_the_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _s, _p in run.LAYER_METRICS]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.workloads(""))


def test_clean_ops_pass_their_gates():
    g = run.Gate()
    for make in (workloads.brackets_free3d, workloads.trajectory_rigidbody):
        op = make(seed=5, index=0)
        g.record(op, workloads.run_op(op))
    assert (g.attempted, g.failed) == (2, 0), g.reasons


@pytest.mark.parametrize("old, new", [
    ('"verdict": "pass"', '"verdict": "fail"'),  # a corrupted verdict
    ('"closed": true', '"closed": false'),  # a corrupted payload field
])
def test_corrupted_brackets_report_is_a_failed_op(monkeypatch, old, new):
    real = workloads.run_cli

    def corrupt(argv):
        rc, out, err = real(argv)
        return rc, out.replace(old, new, 1), err

    monkeypatch.setattr(workloads, "run_cli", corrupt)
    op = workloads.brackets_free3d(seed=5, index=0)
    g = run.Gate()
    g.record(op, workloads.run_op(op))
    assert (g.attempted, g.failed) == (1, 1)


def test_corrupted_two_form_counts_in_failed_frac(monkeypatch):
    """Every configs-random op is failed when derive's two_form loses its
    antisymmetry, and the run says so in its result line."""
    real = workloads.run_cli

    def corrupt(argv):
        rc, out, err = real(argv)
        if argv[0] == "derive":
            rep = json.loads(out)
            rep["two_form"][0][1] += 1.0
            out = json.dumps(rep)
        return rc, out, err

    monkeypatch.setattr(workloads, "run_cli", corrupt)
    res = _main_result(["--workload", "configs-random", "--seed", "3", "--seconds", "0"])
    assert res["correct"] is False
    assert res["attempted"] >= 3 and res["failed"] == res["attempted"]
    report = json.loads((run.OUT / "result-configs-random-seed3-trace0.json").read_text())
    assert report["failed_frac"] == 1.0


def test_payload_that_changes_on_repeat_is_a_failed_op(monkeypatch):
    """The first op is repeated at the end of a run; a payload that differs
    byte for byte, even one that passes the gate, is a failure."""
    real = workloads.run_cli
    seen = set()

    def drifting(argv):
        rc, out, err = real(argv)
        key = tuple(argv)
        if key in seen:
            out += "\n"
        seen.add(key)
        return rc, out, err

    monkeypatch.setattr(workloads, "run_cli", drifting)
    res = _main_result(["--workload", "configs-random", "--seed", "4", "--seconds", "0"])
    assert res["failed"] == 1 and res["attempted"] == 3


def test_layer_call_counts_repeat_exactly():
    ops = [workloads.configs_random(7, 0, str(run.OUT / "work"))]
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    counts = []
    for _ in range(2):
        tracer = LayerTracer()
        tracer.install()
        try:
            for op in ops:
                workloads.run_op(op)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["geometry.metric_inv"] > counts[0]["geometry.gamma00"] > 0


def test_normalized_times_cancel_host_speed_but_not_program_speed():
    walls = [0.5, 0.6, 0.4, 0.5]
    cals = [0.02, 0.021, 0.019, 0.02, 0.02]
    ops = hostspeed.normalize_ops(walls, cals)
    total = hostspeed.normalize_total(walls, cals)
    slow_host = hostspeed.normalize_ops([2 * w for w in walls], [2 * c for c in cals])
    assert slow_host == pytest.approx(ops)
    assert hostspeed.normalize_total([2 * w for w in walls], [2 * c for c in cals]) == (
        pytest.approx(total))
    slow_program = hostspeed.normalize_ops([1.5 * w for w in walls], cals)
    assert slow_program == pytest.approx([1.5 * t for t in ops])
    assert hostspeed.normalize_ops([0.5], [hostspeed.REF_S] * 2) == pytest.approx([0.5])

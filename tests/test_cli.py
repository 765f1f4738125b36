import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galimech import catalog, cli, duals
from galimech.catalog import ModelError, load_model, model_from_config, named_charges
from galimech.cli import ParseError, parse_vector_field
from galimech.duals import value
from galimech.fields import ZERO, Chart, coordinate
from galimech.geometry import Metric, PhaseTwoForm, PoincareCartan
from galimech.symmetry import SpecialQuadratic
from galimech.units import UnitMismatchError
from tests_support import COEFFICIENTS, field_specs, generated_config


# -- config ingestion -----------------------------------------------------------


def test_load_catalog_names():
    for name in ("free2d", "free3d", "cyclotron", "rigidbody"):
        m = load_model(name)
        assert m.name == name


def test_load_missing_model():
    with pytest.raises(ModelError):
        load_model("nosuchmodel")


def test_config_round_trip(tmp_path):
    cfg = {
        "name": "uniform-field",
        "n": 3,
        "metric": {"dim": [1, 0, 0]},
        "em": {
            "q": {"value": 1.0, "dim": [-1, "3/2", "1/2"]},
            "m": {"value": 1.0, "dim": [0, 0, 1]},
            "dim": [0, "1/2", "1/2"],
            "entries": {"1,2": {"kind": "constant", "value": 2.5}},
            "potential": [
                {"kind": "constant", "value": 0.0},
                {"kind": "scale", "by": -1.25, "of": {"kind": "coord", "index": 2}},
                {"kind": "scale", "by": 1.25, "of": {"kind": "coord", "index": 1}},
                {"kind": "constant", "value": 0.0},
            ],
        },
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    m = load_model(str(path))
    assert m.name == "uniform-field"
    # field entry echoed through the derivation
    p = [0.0, 0.1, 0.2, 0.3]
    assert value(m.em.entry(1, 2)(p)) == 2.5
    assert m.theta is not None


def test_config_malformed_dims(tmp_path):
    cfg = {
        "n": 3,
        "em": {
            "q": {"value": 1.0, "dim": [-1, 1, 1]},  # wrong exponents
            "m": {"value": 1.0, "dim": [0, 0, 1]},
            "entries": {"1,2": {"kind": "constant", "value": 1.0}},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(UnitMismatchError, match="charge q"):
        load_model(str(path))


def test_config_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(str(path))


def test_config_mismatched_em_potential(tmp_path):
    cfg = {
        "n": 3,
        "em": {
            "q": 1.0,
            "m": 1.0,
            "entries": {"1,2": {"kind": "constant", "value": 1.0}},
            "potential": [
                {"kind": "constant", "value": 0.0},
                {"kind": "constant", "value": 0.0},
                {"kind": "constant", "value": 0.0},
                {"kind": "constant", "value": 0.0},
            ],
        },
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ModelError, match="potential does not match"):
        load_model(str(path))


def test_non_spd_metric_rejected(tmp_path):
    cfg = {
        "n": 2,
        "metric": {"entries": {"1,1": {"kind": "constant", "value": -1.0}}},
    }
    path = tmp_path / "spd.json"
    path.write_text(json.dumps(cfg))
    from galimech.geometry import SingularMetricError

    with pytest.raises(SingularMetricError):
        load_model(str(path))


# -- field expression parser ------------------------------------------------------


def test_parse_simple_fields():
    chart = Chart(3)
    comps = parse_vector_field("d0", chart)
    assert value(comps[0]([0.0, 1.0, 2.0, 3.0])) == 1.0
    comps = parse_vector_field("x1^2 d1", chart)
    assert value(comps[1]([0.0, 3.0, 0.0, 0.0])) == 9.0
    comps = parse_vector_field("x1 d2 - x2 d1", chart)
    p = [0.0, 2.0, 5.0, 0.0]
    assert value(comps[2](p)) == 2.0 and value(comps[1](p)) == -5.0
    comps = parse_vector_field("sin(x1) d3", chart)
    assert value(comps[3]([0.0, math.pi / 2, 0.0, 0.0])) == pytest.approx(1.0)
    comps = parse_vector_field("2*x1 d1 + 0.5 d2", chart)
    assert value(comps[1]([0.0, 3.0, 0.0, 0.0])) == 6.0
    assert value(comps[2]([0.0, 3.0, 0.0, 0.0])) == 0.5


def test_parse_errors():
    chart = Chart(3)
    for bad in ("x1^2", "d9", "x9 d1", "foo d1", "x1 +", "(x1 d1", "", "   ", "d1 +", "d1 -",
                "* d1", "x1 d2 + * d1"):
        with pytest.raises(ParseError):
            parse_vector_field(bad, chart)


# -- CLI end-to-end ----------------------------------------------------------------


def run_cli(args):
    return cli.main(args)


def test_derive_json(tmp_path, capsys):
    code = run_cli(["derive", "--model", "free3d", "--point", "0,0.1,0.2,0.3,1,0,0.5",
                    "--out", str(tmp_path)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    data = json.loads(open(out).read())
    assert data["schema"] == 1
    assert data["acceleration"] == [0.0, 0.0, 0.0]
    assert data["lagrangian"] == pytest.approx(0.5 * 1.25)


def test_unknown_charge_is_rejected_before_integrating(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.dynamics, "integrate", lambda *a: calls.append(a))
    code = run_cli(["simulate", "--model", "rigidbody", "--charges", "d0,bogus"])
    assert code == 3 and calls == []
    assert "charge_bogus" in capsys.readouterr().err


def test_a_repeated_charge_is_an_input_error(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.dynamics, "integrate", lambda *a: calls.append(a))
    err = _input_error(["simulate", "--model", "free3d", "--charges", "R1,charge_R1"], capsys)
    assert calls == [] and "charge_R1 more than once" in err


@pytest.mark.parametrize("charges", [",d0", "d0,", "d0,,Rz"])
def test_an_empty_charge_entry_is_an_input_error(charges, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.dynamics, "integrate", lambda *a: calls.append(a))
    err = _input_error(["simulate", "--model", "rigidbody", f"--charges={charges}"], capsys)
    assert calls == [] and err == f"error: --charges {charges!r} has an empty entry\n"


@pytest.mark.parametrize("name, argv", [
    ("rigidbody", ["--T", "0.05", "--charges", "d0,Rz,Rx"]),
    ("cyclotron", ["--T", "0.05", "--v0", "1,0,0.2", "--charges", "d0"]),
])
def test_simulate_charge_cells_are_each_charge_value_bit_for_bit(name, argv, capsys):
    # one program gives every charge's cell; each is the charge's own value
    assert run_cli(["simulate", "--model", name, *argv]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    names = header.split(",")[7:]
    charges = named_charges(load_model(name), names)
    assert len(lines) == 51 and list(charges) == names
    for line in lines:
        cells = line.split(",")
        row = [float(c) for c in cells[:7]]
        assert cells[7:] == [repr(q.value(row)) for q in charges.values()]


def test_simulate_csv(tmp_path, capsys):
    code = run_cli([
        "simulate", "--model", "free3d", "--x0", "0,0,0", "--v0", "1,0,0",
        "--T", "0.05", "--h", "0.01", "--charges", "d1,d0",
        "--out", str(tmp_path),
    ])
    assert code == 0
    path = capsys.readouterr().out.strip()
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,v1,v2,v3,charge_d1,charge_d0"
    assert len(lines) == 7
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.05)
    assert last[1] == pytest.approx(0.05, abs=1e-12)
    assert last[7] == pytest.approx(-1.0)  # contraction-convention momentum
    assert last[8] == pytest.approx(0.5)


def test_check_symmetry_pass_and_fail(tmp_path):
    code = run_cli(["check-symmetry", "--model", "free3d", "--field", "translations",
                    "--points", "8", "--out", str(tmp_path)])
    assert code == 0
    rep = json.load(open(tmp_path / "check-symmetry.json"))
    assert rep["verdict"] == "pass"
    code = run_cli(["check-symmetry", "--model", "free3d", "--field", "x1^2 d1",
                    "--points", "8", "--out", str(tmp_path)])
    assert code == 2
    rep = json.load(open(tmp_path / "check-symmetry.json"))
    assert rep["verdict"] == "fail"
    conditions = {c["condition"]: c["verdict"] for c in rep["checks"]}
    assert conditions["correspondence-consistency"] == "pass"


def test_check_symmetry_rejects_time_scaling(capsys):
    code = run_cli(["check-symmetry", "--model", "free3d", "--field", "x0 d0"])
    assert code == 2
    assert "time form" in capsys.readouterr().err


def test_noether_cli(tmp_path):
    code = run_cli(["noether", "--model", "free3d", "--field", "translations",
                    "--points", "10", "--out", str(tmp_path)])
    assert code == 0
    rep = json.load(open(tmp_path / "noether.json"))
    assert len(rep["checks"]) == 3
    assert all(c["conserved"] for c in rep["checks"])
    assert all(c["verdict"] == "pass" for c in rep["checks"])
    # both signs reported
    c = rep["checks"][0]
    assert c["anchor_value_opposite_sign"] == -c["anchor_value"]


def test_momentum_map_cli(tmp_path):
    code = run_cli(["momentum-map", "--model", "rigidbody", "--action", "rotations",
                    "--points", "10", "--out", str(tmp_path)])
    assert code == 0
    rep = json.load(open(tmp_path / "momentum-map.json"))
    gens = [c for c in rep["checks"] if "generator" in c]
    assert len(gens) == 3
    assert all(c["time_scale"] == 0.0 for c in gens)
    assert all(c["quantisable"] for c in gens)
    assert any(c["condition"] == "algebra-closure" and c["verdict"] == "pass"
               for c in rep["checks"])


def test_brackets_cli(tmp_path):
    code = run_cli(["brackets", "--model", "free2d", "--points", "8",
                    "--out", str(tmp_path)])
    assert code == 0
    rep = json.load(open(tmp_path / "brackets.json"))
    assert rep["verdict"] == "pass"
    assert all(c["closed"] for c in rep["checks"])


@pytest.mark.parametrize("name", ["rigidbody", "cyclotron"])
def test_brackets_lift_commutators_equal_the_lifted_brackets(name, tmp_path):
    # a two-form that varies with position: its partials enter each bracket's gradient
    assert run_cli(["brackets", "--model", name, "--points", "2", "--out", str(tmp_path)]) == 0
    checks = json.load(open(tmp_path / "brackets.json"))["checks"]
    assert checks and max(c["residual"] for c in checks) < 1e-12


def test_brackets_reports_a_varying_time_scale_as_not_closed(monkeypatch, capsys):
    checked = catalog.checked_charges

    def with_varying(model, *args, **kwargs):
        zeros = [ZERO] * model.chart.n
        varying = SpecialQuadratic(model.G, coordinate(1), zeros, ZERO)
        return {**checked(model, *args, **kwargs), "charge_x1": (varying, 0.0, True)}

    monkeypatch.setattr(catalog, "checked_charges", with_varying)
    assert run_cli(["brackets", "--model", "free3d", "--points", "2"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 8 * 7 // 2
    assert all(c["closed"] == ("charge_x1" not in c["pair"]) for c in checks)


def test_brackets_seeds_only_the_lift_operator_once_per_point(monkeypatch, capsys):
    jets, seeded = [], []
    grad = duals.grad
    monkeypatch.setattr(duals, "grad", lambda fn, point: jets.append(fn.__qualname__)
                        or grad(fn, point))
    for name in ("partial", "partial2", "partial_multi"):
        orig = getattr(duals, name)
        monkeypatch.setattr(duals, name, lambda fn, *a, orig=orig: seeded.append(
            getattr(fn, "__qualname__", repr(fn))) or orig(fn, *a))
    assert run_cli(["brackets", "--model", "free3d", "--points", "2"]) == 0
    # one seeded jet of the lift operator per point, along the 3 velocity
    # slots the two-form reads; each charge's jet is its field's program
    assert jets == ["lift_operator.<locals>.op"] * 2
    assert seeded == ["lift_operator.<locals>.op"] * 2 * 3


def test_brackets_inverts_the_metric_once_per_operator_evaluation(monkeypatch, capsys):
    calls = []
    orig = Metric.inv
    monkeypatch.setattr(Metric, "inv", lambda self, *a: calls.append(1) or orig(self, *a))
    assert run_cli(["brackets", "--model", "rigidbody", "--points", "1", "--seed", "3"]) == 0
    # the operator's jet at the one point: its value, and one seeded pass along
    # each of the 5 slots the two-form reads (x2, x3 and the 3 velocities)
    assert len(calls) == 1 + 5


def test_brackets_seeds_no_pass_through_the_poisson_bracket(monkeypatch, capsys):
    # the lifted bracket is the lift of the product-rule gradient of the bracket
    seeded = []
    grad, partial_multi = duals.grad, duals.partial_multi

    def spy_grad(fn, point):
        seeded.append(getattr(fn, "__qualname__", ""))
        return grad(fn, point)

    def spy_partial_multi(fn, point, idx):
        seeded.append(getattr(fn, "__qualname__", ""))
        return partial_multi(fn, point, idx)

    monkeypatch.setattr(duals, "grad", spy_grad)
    monkeypatch.setattr(duals, "partial_multi", spy_partial_multi)
    assert run_cli(["brackets", "--model", "free3d", "--points", "2"]) == 0
    assert seeded and not [q for q in seeded if "bracket" in q]


@pytest.mark.parametrize("argv", [
    ["derive"],
    ["brackets", "--points", "1"],
    ["simulate", "--T", "0.01"],
])
def test_out_naming_a_file_is_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    err = _input_error(argv + ["--out", str(path)], capsys)
    assert err == f"error: {argv[0]}: cannot write --out {path}: File exists\n"
    assert path.read_text() == ""


@pytest.mark.parametrize("T, h, why", [
    ("1e300", "1e-300", "the step count T/h = inf is not finite"),
    ("1e18", "1", "the arrays of 1e+18 steps cannot be allocated"),
    ("1", "1e-300", "the arrays of 1e+300 steps cannot be allocated"),
    ("0.4", "1", "the step count T/h = 0.4 rounds to 0"),
])
def test_unusable_step_count_is_an_input_error(T, h, why, capsys):
    err = _input_error(["simulate", "--T", T, "--h", h], capsys)
    assert err == f"error: simulate: --T {T} and --h {h}: {why}\n"
    assert len(err) < 160


def test_a_non_finite_stage_state_is_a_check_failure(capsys, recwarn):
    # v^2 overflows the acceleration, so a later RK4 stage reads inf
    code = run_cli(["simulate", "--model", "rigidbody", "--T", "0.002", "--v0", "1e200,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "check failed: non-finite state at step 1\n"
    assert not recwarn.list


def test_a_non_finite_charge_is_an_input_error(capsys):
    # the state stays finite on free3d, but the energy 1/2 v^2 overflows
    err = _input_error(["simulate", "--model", "free3d", "--v0", "1e200,0,0", "--T", "0.002",
                        "--charges", "d0"], capsys)
    assert err == "error: simulate: charge_d0 is inf at step 0\n"


def test_a_non_finite_derived_value_is_an_input_error(capsys):
    # the Cartan form, the Lagrangian and the Hamiltonian overflow; the first
    # key in sorted order is named
    err = _input_error(["derive", "--model", "free3d", "--point", "0,0,0,0,1e200,0,0"], capsys)
    assert err == "error: derive: cartan_form is -inf at the point\n"


def test_an_overflowing_nondegeneracy_determinant_is_one_line(tmp_path, capsys):
    # the determinant overflows: numpy's warning stays off stderr
    err = _config_error(tmp_path, capsys, {"n": 2, "metric": {"entries": {"1,1": 1.7687e285}}})
    assert err == "error: derive: nondegeneracy_det is inf at the point\n"


def test_derive_keeps_the_sign_of_a_zero_cartan_component(capsys):
    # -G(v, v)/2 at v = 0 is -0.0, and no zero potential is added to it
    assert run_cli(["derive", "--model", "free2d"]) == 0
    assert math.copysign(1.0, json.loads(capsys.readouterr().out)["cartan_form"][0]) == -1.0


def test_an_acceleration_that_overflows_is_a_check_failure(tmp_path, capsys, recwarn):
    # x1**4 overflows a float at an RK4 stage of the first step from v0 = 1e100
    poly = {"kind": "polynomial", "coeffs": [[2.0, []], [1.0, [1, 4]]]}
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {"1,1": poly}}}))
    code = run_cli(["simulate", "--model", str(path), "--v0", "1e100,0", "--T", "1",
                    "--h", "0.1"])
    assert code == 2
    assert capsys.readouterr().err == "check failed: the acceleration overflows at step 1\n"
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["derive", "--model", "rigidbody"],
    ["simulate", "--model", "rigidbody", "--T", "0.01"],
    ["check-symmetry", "--model", "rigidbody", "--field", "rotations", "--points", "1"],
    ["brackets", "--model", "free3d", "--points", "1"],
])
def test_no_command_runs_a_generic_elimination(argv, monkeypatch, capsys):
    # metric inverses are straight-line programs; elimination is a test oracle
    calls = []
    monkeypatch.setattr(duals, "solve_generic", lambda *a: calls.append(a))
    assert run_cli(argv) in (0, 2)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "rigidbody", "--T", "0.01", "--charges", "d0,Rz"],
    ["noether", "--model", "rigidbody", "--field", "rotations", "--points", "3"],
    ["derive", "--model", "rigidbody"],
], ids=lambda argv: argv[0])
def test_potential_form_and_charges_multiply_no_duals(argv, monkeypatch, capsys):
    # theta's jet and each charge's differential are in closed form
    calls = []
    mul = duals.MultiDual.__mul__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(duals.MultiDual, name, lambda a, b: calls.append(1) or mul(a, b))
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_exit_code_input_error(capsys):
    assert run_cli(["derive", "--model", "nosuchmodel"]) == 3
    assert "error:" in capsys.readouterr().err
    assert run_cli(["noether", "--model", "free3d", "--field", "zzz d9"]) == 3


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GALIMECH_SEED", "99")
    run_cli(["check-symmetry", "--model", "free2d", "--field", "d1",
             "--points", "5", "--out", str(tmp_path)])
    rep = json.load(open(tmp_path / "check-symmetry.json"))
    assert rep["seed"] == 99


def test_a_seed_variable_that_is_not_an_integer_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("GALIMECH_SEED", "abc")
    assert "GALIMECH_SEED must be an integer, got 'abc'" in _input_error(
        ["derive", "--model", "free2d"], capsys)


def test_reports_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["check-symmetry", "--model", "cyclotron", "--field", "rotation",
            "--points", "10", "--seed", "5"]
    run_cli(args + ["--out", str(d1)])
    run_cli(args + ["--out", str(d2)])
    b1 = (d1 / "check-symmetry.json").read_bytes()
    b2 = (d2 / "check-symmetry.json").read_bytes()
    assert b1 == b2


def test_named_charges_selection(free3d):
    charges = named_charges(free3d, ["charge_d1", "charge_d0"])
    assert list(charges) == ["charge_d1", "charge_d0"]
    with pytest.raises(ModelError):
        named_charges(free3d, ["charge_zz"])


def test_named_charges_verifies_only_named(rigidbody, monkeypatch):
    from galimech import symmetry

    everything = named_charges(rigidbody)
    calls = []
    verify = symmetry.noether_charges
    monkeypatch.setattr(symmetry, "noether_charges", lambda gens, *a, **k: calls.append(
        sorted(X.label for X in gens)) or verify(gens, *a, **k))
    charges = named_charges(rigidbody, ["charge_d0", "charge_Rz"])
    assert calls == [["Rz", "d0"]]  # one call, with exactly the named generators
    assert list(charges) == ["charge_d0", "charge_Rz"]
    for p in rigidbody.sample_phase(3, seed=4):
        for nm, q in charges.items():
            assert value(q.value(p)) == value(everything[nm].value(p))
    with pytest.raises(ModelError):
        named_charges(rigidbody, ["charge_d0", "charge_zz"])


def test_check_symmetry_four_dimensional_chart(tmp_path):
    # a jet sample on n = 4 has 13 coordinates, each with its own Halton prime base
    def poly(base, slot):
        return {"kind": "polynomial", "coeffs": [[base, []], [0.05, [slot, 1]], [0.03, [0, 2]]]}

    cfg = {
        "n": 4,
        "metric": {"entries": {f"{a},{a}": poly(2.0, a) for a in range(1, 5)}},
        "potential": [poly(0.0, lam) for lam in range(5)],
    }
    path = tmp_path / "n4.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(["check-symmetry", "--model", str(path), "--field", "x1 d2 - x2 d1",
                    "--points", "2", "--out", str(tmp_path)])
    assert code in (0, 2)
    assert len(json.load(open(tmp_path / "check-symmetry.json"))["checks"]) == 9


def _input_error(args, capsys):
    code = run_cli(args)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_config_top_level_list_is_input_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert "JSON object" in _input_error(["derive", "--model", str(path)], capsys)


def test_config_constant_without_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "novalue.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {"1,1": {"kind": "constant"}}}}))
    assert "'value'" in _input_error(["derive", "--model", str(path)], capsys)


def test_field_fractional_exponent_is_input_error(capsys):
    args = ["check-symmetry", "--model", "free3d", "--field", "x1^2.5 d1"]
    assert "integer" in _input_error(args, capsys)


def test_config_fractional_pow_is_input_error(tmp_path, capsys):
    spec = {"kind": "pow", "of": {"kind": "coord", "index": 1}, "exp": 2.5}
    path = tmp_path / "pow.json"
    path.write_text(json.dumps({"n": 2, "potential": [spec, 0.0, 0.0]}))
    assert "integer" in _input_error(["derive", "--model", str(path)], capsys)


def _config_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return _input_error(["derive", "--model", str(path)], capsys)


@pytest.mark.parametrize("section, message", [
    ({"metric": {"entries": {"1,5": 2.0}}}, "metric entry '1,5': need two indices in 1..3"),
    ({"metric": {"entries": {"0,1": 0.1}}}, "metric entry '0,1': need two indices in 1..3"),
    ({"metric": {"entries": {"1,2,3": 0.1}}}, "metric entry '1,2,3'"),
    ({"metric": {"entries": {"x,1": 0.1}}}, "metric entry 'x,1'"),
    ({"metric": {"entries": {"1,2": 0.1, "2,1": 0.2}}}, "metric entry '2,1' repeats"),
    ({"em": {"q": 1.0, "entries": {"1,7": 0.5}}}, "em entry '1,7': need two indices in 0..3"),
    ({"em": {"q": 1.0, "entries": {"2,1": 0.5}}}, "em entry '2,1'"),
    ({"observer": [0.0, 0.0]}, "observer needs 3 components, got 2"),
    ({"observer": [0.0] * 5}, "observer needs 3 components, got 5"),
])
def test_config_entries_that_do_not_fit_the_chart_are_input_errors(tmp_path, capsys, section,
                                                                   message):
    assert message in _config_error(tmp_path, capsys, {"n": 3, **section})


def test_config_metric_section_of_wrong_type_is_input_error(tmp_path, capsys):
    assert "'metric' must be a JSON object" in _config_error(
        tmp_path, capsys, {"n": 2, "metric": []})


def test_config_non_numeric_charge_is_input_error(tmp_path, capsys):
    assert "charge q" in _config_error(
        tmp_path, capsys, {"n": 2, "em": {"q": "abc", "entries": {}}})


def test_config_fractional_dimension_is_input_error(tmp_path, capsys):
    assert "'n' must be an integer" in _config_error(tmp_path, capsys, {"n": 2.5})


def test_config_field_outside_the_chart_is_input_error(tmp_path, capsys):
    spec = {"kind": "coord", "index": 5}
    assert "outside 0..2" in _config_error(tmp_path, capsys, {"n": 2, "potential": [spec, 0, 0]})


@pytest.mark.parametrize("command", ["momentum-map", "brackets"])
def test_a_config_without_actions_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2}))
    assert "defines no actions" in _input_error([command, "--model", str(path)], capsys)


def test_tol_pass_above_tol_fail_is_input_error(capsys):
    # every command shares the two flags
    args = ["check-symmetry", "--model", "free3d", "--field", "x1^2 d1", "--points", "3"]
    err = _input_error(args + ["--tol-pass", "1", "--tol-fail", "0.1"], capsys)
    assert "--tol-pass" in err and "--tol-fail" in err
    assert run_cli(args + ["--tol-pass", "0.1", "--tol-fail", "0.1"]) == 2


def test_zero_points_is_input_error(capsys):
    args = ["check-symmetry", "--model", "free3d", "--field", "d1", "--points", "0"]
    assert "--points must be at least 1" in _input_error(args, capsys)


def test_rigidbody_derive_defaults_to_the_anchor(capsys):
    code = run_cli(["derive", "--model", "rigidbody"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["point"] == load_model("rigidbody").anchor()
    assert data["point"][2] == pytest.approx(1.55)
    assert all(math.isfinite(a) for a in data["acceleration"])


def test_rigidbody_simulate_defaults_to_the_anchor(capsys):
    code = run_cli(["simulate", "--model", "rigidbody", "--T", "0.01", "--h", "0.005"])
    assert code == 0
    first = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
    assert first == [0.0, 0.0, pytest.approx(1.55), 0.0, 0.0, 0.0, 0.0]


def test_singular_metric_at_explicit_point_is_check_failure(capsys):
    code = run_cli(["derive", "--model", "rigidbody", "--point", "0,0,0,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("check failed: metric is singular at [0.0, 0.0, 0.0, 0.0")


@pytest.mark.parametrize("argv", [["derive"], ["noether", "--field", "d0", "--points", "2"]])
def test_a_polynomial_partial_that_overflows_is_an_input_error(tmp_path, capsys, argv):
    # d_2 (1e308 x2^2) = 2e308 x2 has a coefficient that is not finite
    big = {"kind": "polynomial", "coeffs": [[1e308, [2, 2]]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {}}, "potential": [0, big, 0]}))
    assert run_cli([*argv, "--model", str(path)]) == 3
    assert capsys.readouterr().err == ("error: the partial along x2 of a polynomial term "
                                       "overflows: 1e+308 * 2 = inf\n")


@pytest.mark.parametrize("argv", [["derive"], ["noether", "--field", "d0"], ["simulate"],
                                  ["check-symmetry", "--field", "d0"]], ids=lambda a: a[0])
def test_an_overflowing_partial_names_its_slot_and_product(tmp_path, capsys, argv):
    # every coefficient given is finite: the power rule's 1e308 * 2 is not
    big = {"kind": "polynomial", "coeffs": [[2.0, []], [1e308, [1, 2]]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {"1,1": big, "2,2": 1.0}}}))
    err = _input_error([argv[0], "--model", str(path), *argv[1:]], capsys)
    assert err == "error: the partial along x1 of a polynomial term overflows: 1e+308 * 2 = inf\n"


@pytest.mark.parametrize("argv", [["derive", "--point", "0,0,0,0,0"],
                                  ["simulate", "--x0=0,0", "--v0=0.1,0.1", "--T", "0.01"]])
def test_a_metric_entry_dividing_by_zero_is_a_field_error(tmp_path, capsys, argv):
    # G_11 = 2 + x1^-2 has no value at x1 = 0: a field error, not a zero pivot
    x1 = {"kind": "coord", "index": 1}
    cfg = {"n": 2, "metric": {"entries": {"1,1": {"kind": "sum", "terms": [
        2, {"kind": "pow", "of": x1, "exp": -2}]}}}, "box": [[-1, 1], [0.5, 1]] + [[-1, 1]] * 3}
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([*argv, "--model", str(path)]) == 3
    assert "a field is singular or overflows at a sample point" in capsys.readouterr().err


def test_metric_dimension_is_checked_with_an_em_section(tmp_path, capsys):
    em = {"q": 1.0, "m": 1.0, "entries": {"1,2": 0.5}}
    cfg = {"n": 2, "metric": {"dim": [5, 5, 5]}, "em": em}
    assert "metric entries: expected dimension" in _config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("argv", [
    ["derive", "--bogus"],
    ["derive", "--box", "-3,3"],
    ["check-symmetry"],
    ["simulate", "--T", "abc"],
    # every numeric flag rejects a non-finite value, naming the flag
    ["derive", "--point", "nan,0,0,0,0,0,0"],
    ["derive", "--box", "1,nan"],
    ["simulate", "--x0", "nan,0,0"],
    ["simulate", "--v0", "0,inf,0"],
    ["simulate", "--h", "inf"],
    ["simulate", "--T", "nan"],
    ["simulate", "--t0", "-inf"],
    ["derive", "--tol-pass", "nan"],
    ["check-symmetry", "--field", "d1", "--tol-fail", "inf"],
])
def test_usage_errors_are_input_errors(argv, capsys):
    err = _input_error(argv, capsys)
    flags = [a for a in argv if a.startswith("--")]
    assert not flags or flags[-1] in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["derive", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["x1/0 d1", "x2 / (x1 - x1 + 0) d1", "1e400 d1", "-1e999*x2 d1"])
def test_zero_divisor_and_non_finite_coefficient_are_input_errors(field, capsys):
    _input_error(["check-symmetry", "--model", "free3d", "--field", field, "--points", "2"],
                 capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cfg", [
    {"n": 2, "metric": {"entries": {"1,1": {"kind": "constant", "value": math.inf}}}},
    {"n": 2, "potential": [0.0, {"kind": "polynomial", "coeffs": [[math.nan, [1, 1]]]}, 0.0]},
    {"n": 2, "em": {"q": math.inf, "entries": {"1,2": 1.0}}},
    {"n": 2, "box": [[0.0, math.nan]] * 5},
])
def test_config_non_finite_number_is_input_error(tmp_path, capsys, cfg):
    assert "must be finite" in _config_error(tmp_path, capsys, cfg)


def test_report_with_a_non_finite_residual_is_an_input_error(capsys):
    # the coefficient overflows to inf on evaluation, so a residual is nan
    _input_error(["check-symmetry", "--model", "free3d", "--field", "1e300*x1*1e300 d1",
                  "--points", "2"], capsys)


def test_a_non_finite_residual_names_the_check(capsys):
    field = "1e300*x1*1e300 d1"
    err = _input_error(["check-symmetry", "--model", "free3d", "--field", field,
                        "--points", "2"], capsys)
    assert err == f"error: check-symmetry: residual of cartan_form for generator {field} is nan\n"


NAN_TIME_SCALE = "(1e200*x1*1e200 - 1e200*x1*1e200)*x0 d0 + d1"  # nan off x1 = 0


@pytest.mark.parametrize("command", ["check-symmetry", "noether"])
def test_a_nan_time_form_residual_is_an_input_error(command, capsys):
    err = _input_error([command, "--model", "free3d", "--field", NAN_TIME_SCALE], capsys)
    assert err == (f"error: field {NAN_TIME_SCALE!r}: residual of the time form is nan "
                   "at a sample point\n")


def test_a_nan_invariance_residual_is_an_input_error_in_every_command(capsys):
    for argv, command in [
        (["noether", "--field", "translations", "--box=-1e300,1e300"], "noether"),
        (["momentum-map", "--action", "translations", "--box=-1e300,1e300"], "momentum-map"),
        (["brackets", "--box=-1e155,1e155"], "brackets"),
    ]:
        err = _input_error(argv + ["--model", "free3d"], capsys)
        assert err == (f"error: {command}: residual of potential-form-invariance for "
                       "generator d1 is nan\n")


def test_a_finite_invariance_failure_is_a_check_failure(capsys):
    # at |x| up to 1e6 the rotations' residual is rounding, far above --tol-pass
    box = "--box=-1e6,1e6"
    assert run_cli(["momentum-map", "--model", "rigidbody", "--action", "rotations",
                    "--points", "4", box]) == 2
    assert capsys.readouterr().err.startswith("check failed: generator Rx of action rotations")
    assert run_cli(["brackets", "--model", "rigidbody", "--points", "4", box]) == 2
    rep = json.loads(capsys.readouterr().out)
    skipped = [c for c in rep["checks"] if c["condition"] == "potential-form-invariance"]
    assert [c["generator"] for c in skipped] == ["Rx", "Ry"]
    assert all(c["verdict"] == "fail" and 1e-9 < c["residual"] < 1.0 for c in skipped)
    assert rep["verdict"] == "fail"
    assert all("charge_Rx" not in c.get("pair", ()) for c in rep["checks"])


def test_a_report_with_no_checks_fails(monkeypatch, capsys):
    # one conserved charge has no pair to bracket: the report certifies nothing
    checked = catalog.checked_charges
    monkeypatch.setattr(catalog, "checked_charges", lambda model, **kw: {
        key: c for key, c in checked(model, **kw).items() if key == "charge_d1"})
    assert run_cli(["brackets", "--model", "free3d", "--points", "1"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"] == [] and rep["verdict"] == "fail"


@pytest.mark.parametrize("argv", [
    ["derive"],
    ["simulate", "--T", "0.01"],
    ["check-symmetry", "--field", "d1", "--points", "1"],
    ["noether", "--field", "d1", "--points", "1"],
    ["momentum-map", "--points", "1"],
    ["brackets", "--points", "1"],
])
def test_main_writes_each_report_once(argv, monkeypatch, capsys):
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, name: emitted.append(name))
    assert run_cli(argv + ["--model", "free3d"]) == 0
    assert emitted == [cli._COMMANDS[argv[0]][1]]


def test_derive_evaluates_the_two_form_once(monkeypatch, capsys):
    calls = []
    matrix = PhaseTwoForm.matrix
    monkeypatch.setattr(PhaseTwoForm, "matrix", lambda self, xs: calls.append(xs) or matrix(self, xs))
    for name in catalog.catalog_names():
        calls.clear()
        assert run_cli(["derive", "--model", name]) == 0
        assert len(calls) == 1, name


def test_noether_evaluates_each_charge_once_at_the_anchor(rigidbody, monkeypatch, capsys):
    anchor, at_anchor = rigidbody.anchor(), []
    noether_charges = cli.noether_charges

    def counted(k, value):
        def spy(xs):
            if xs == anchor:
                at_anchor.append(k)
            return value(xs)
        return spy

    def spied(*args, **kwargs):
        out = noether_charges(*args, **kwargs)
        for k, (charge, *_) in enumerate(out):
            charge.value = counted(k, charge.value)
        return out

    monkeypatch.setattr(cli, "noether_charges", spied)
    assert run_cli(["noether", "--model", "rigidbody", "--field", "rotations", "--points", "2"]) == 0
    assert at_anchor == [0, 1, 2]


def test_noether_evaluates_the_potential_forms_jet_once_per_point(monkeypatch, capsys):
    # the invariance residual and the motion derivative read the same jets
    calls, jet = [], PoincareCartan.jet.func

    def counted(self):
        fn = jet(self)
        return lambda xs: calls.append(xs) or fn(xs)

    monkeypatch.setattr(PoincareCartan, "jet", property(counted))
    assert run_cli(["noether", "--model", "rigidbody", "--field", "rotations", "--points", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


def test_a_field_singular_at_a_sample_point_names_the_command(capsys):
    err = _input_error(["check-symmetry", "--model", "free3d", "--field", "x2/(x1-x1) d1",
                        "--points", "2"], capsys)
    assert err == ("error: check-symmetry: a field is singular or overflows at a sample point "
                   "(float division by zero)\n")


def test_deeply_nested_config_field_is_input_error(tmp_path, capsys):
    term = {"kind": "polynomial", "coeffs": [[1e-4, [1, 2]]]}
    entry = {"kind": "sum", "terms": [{"kind": "constant", "value": 2.0}] + [term] * 700}
    err = _config_error(tmp_path, capsys, {"n": 2, "metric": {"entries": {"1,1": entry}}})
    assert err == "error: derive: a field is nested too deeply\n"


def test_deeply_nested_field_expression_is_input_error(capsys):
    field = "(" + " + ".join(["x1"] * 900) + ") d1"
    err = _input_error(["check-symmetry", "--model", "free3d", "--field", field,
                        "--points", "1"], capsys)
    assert err == "error: check-symmetry: a field is nested too deeply\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_singular_constant_metric_is_a_check_failure(tmp_path, capsys):
    one = {"kind": "constant", "value": 1}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {"1,1": one, "1,2": one,
                                                                "2,2": one}}}))
    code = run_cli(["derive", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "check failed: constant metric [[1.0, 1.0], [1.0, 1.0]] is singular\n"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


_number = st.sampled_from(["0", "1", "2.5", ".5", "3e2", "1e200", "1e400", "1e-400"])
_expr = st.recursive(
    st.one_of(_number, st.sampled_from(["x0", "x1", "x2", "x3"])),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), e).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(e, st.integers(-1, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        e.map(lambda x: f"-{x}"),
    ),
    max_leaves=5,
)
_field_text = st.one_of(
    st.lists(st.tuples(st.sampled_from(["+", "-"]), _expr, st.sampled_from(["d0", "d1", "d2", "d3"])),
             min_size=1, max_size=3).map(lambda ts: " ".join(f"{s} {c} {d}" for s, c, d in ts)),
    st.text(alphabet="x0123d+-*/^() .e", max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(_field_text)
def test_field_fuzz_ends_in_a_report_or_an_input_error(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check-symmetry", "--model", "free3d", "--field", text, "--points", "2"])
    assert code in (0, 2, 3), (text, err.getvalue())
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, text
    if out.getvalue():
        assert _strict_json(out.getvalue())["field"] == text


@st.composite
def _configs(draw):
    """A JSON model config: n in 2..4, random metric entries and potential,
    and an optional em section, with fields that read slots 0..n."""
    n = draw(st.integers(2, 4))
    specs = field_specs(st.integers(0, n))
    pairs = [f"{a},{b}" for a in range(1, n + 1) for b in range(a, n + 1)]
    cfg = {"n": n, "metric": {"entries": draw(st.dictionaries(st.sampled_from(pairs), specs,
                                                              max_size=3))}}
    if draw(st.booleans()):
        cfg["potential"] = draw(st.lists(specs, min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        pairs = [f"{lam},{mu}" for lam in range(n + 1) for mu in range(lam + 1, n + 1)]
        cfg["em"] = {"q": draw(COEFFICIENTS), "m": draw(COEFFICIENTS),
                     "entries": draw(st.dictionaries(st.sampled_from(pairs), specs, max_size=2))}
        if draw(st.booleans()):
            cfg["em"]["potential"] = draw(st.lists(specs, min_size=n + 1, max_size=n + 1))
    return cfg


@settings(max_examples=40, deadline=None)
@given(_configs())
def test_config_fuzz_ends_in_a_report_or_an_input_error(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["derive", "--model", str(path)])
    assert code in (0, 2, 3), (cfg, err.getvalue())
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1, cfg
    if code == 0 or out.getvalue():
        _strict_json(out.getvalue())


# -- malformed config field specs ---------------------------------------------------


@pytest.mark.parametrize("spec", [
    {"kind": "polynomial", "coeffs": [[1, [1]]]},
    {"kind": "polynomial", "coeffs": [1]},
    {"kind": "polynomial", "coeffs": 5},
    {"kind": "polynomial", "coeffs": [[1, 5]]},
    {"kind": "polynomial", "coeffs": [[True, [1, 1]]]},
    {"kind": "sum", "terms": 5},
    {"kind": "product", "factors": 5},
    {"kind": "coord", "index": [1]},
    {"kind": "coord", "index": 1.5},
    {"kind": "coord", "index": True},
    {"kind": "constant", "value": [1]},
    {"kind": "scale", "by": "2", "of": 1.0},
    {"kind": ["sin"]},
    True,
], ids=json.dumps)
def test_a_malformed_config_field_spec_is_an_input_error_naming_it(spec, tmp_path, capsys):
    err = _config_error(tmp_path, capsys, {"n": 2, "metric": {"entries": {"1,2": spec}}})
    assert repr(spec) in err


_KINDS = ["constant", "coord", "polynomial", "sin", "cos", "exp", "sum", "product", "scale", "pow"]
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
                       st.floats(allow_nan=False, allow_infinity=False))


def _spec_like(children):
    """JSON arrays, and objects shaped like field specs over ``children``."""
    keys = dict.fromkeys(("value", "index", "coeffs", "terms", "factors", "of", "by", "exp"),
                         children)
    return st.one_of(
        st.lists(children, max_size=3),
        st.fixed_dictionaries({"kind": st.one_of(st.sampled_from(_KINDS), children)},
                              optional=keys))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_json_leaf, _spec_like, max_leaves=8))
def test_any_json_value_in_a_metric_entry_ends_in_a_report_or_an_input_error(
        tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("spec") / "cfg.json"
    path.write_text(json.dumps({"n": 2, "metric": {"entries": {"1,2": spec}}}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["derive", "--model", str(path)])
    assert code in (0, 2, 3), (spec, err.getvalue())
    assert "Traceback" not in err.getvalue(), (spec, err.getvalue())


@pytest.mark.parametrize("command", ["check-symmetry", "noether"])
def test_a_lone_star_before_a_basis_symbol_is_an_input_error(command, capsys):
    args = [command, "--model", "free3d", "--field", "* d1", "--points", "2"]
    assert "dangling *" in _input_error(args, capsys)


# -- --tol-pass sets charge invariance in every command ------------------------------


def test_tol_pass_sets_charge_invariance_in_brackets(capsys):
    # at this box Rx and Ry are invariant to rounding of terms near 1e6: 1.86e-9
    argv = ["brackets", "--model", "rigidbody", "--box=-1e3,1e3", "--points", "4"]
    assert run_cli(argv) == 2
    skipped = [c["generator"] for c in json.loads(capsys.readouterr().out)["checks"]
               if c["condition"] == "potential-form-invariance"]
    assert skipped == ["Rx", "Ry"]
    assert run_cli(argv + ["--tol-pass=1e-8"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 6 and all("pair" in c and c["verdict"] == "pass" for c in checks)


def test_tol_pass_sets_charge_invariance_in_momentum_map(capsys):
    argv = ["momentum-map", "--model", "rigidbody", "--action", "rotations", "--points", "4",
            "--box=0.7,2e3"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    residual = float(err.rsplit(" ", 1)[1])
    assert "invariance residual" in err and 1e-9 < residual < 1e-6
    assert run_cli(argv + ["--tol-pass=1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_tol_pass_sets_charge_invariance_in_simulate(capsys):
    argv = ["simulate", "--model", "rigidbody", "--box=0.7,2e3", "--charges", "Rx",
            "--x0", "1,1,1", "--T", "0.002"]
    assert "charge_Rx" in _input_error(argv, capsys)
    assert run_cli(argv + ["--tol-pass=1e-6"]) == 0
    assert capsys.readouterr().out.startswith("t,x1,x2,x3,v1,v2,v3,charge_Rx\n")


# -- programs compiled per command ----------------------------------------------------


def _spy_programs(monkeypatch):
    """Count the calls of ``fields.program`` under every name a galimech
    module binds it to, and the generators whose second partials are read."""
    import functools
    import sys

    from galimech import fields
    from galimech.symmetry import SpacetimeVectorField

    counts = {"programs": 0, "d2": []}
    program, d2 = fields.program, vars(SpacetimeVectorField)["d2"].func

    def spy(structure):
        counts["programs"] += 1
        return program(structure)

    def second_partials(X):
        counts["d2"].append(X.label)
        return d2(X)

    for name, mod in list(sys.modules.items()):
        if name == "galimech" or name.startswith("galimech."):
            for key, val in list(vars(mod).items()):
                if val is program:
                    monkeypatch.setattr(mod, key, spy)
    cached = functools.cached_property(second_partials)
    cached.__set_name__(SpacetimeVectorField, "d2")
    monkeypatch.setattr(SpacetimeVectorField, "d2", cached)
    return counts


def test_check_symmetry_compiles_one_first_order_program_per_generator(monkeypatch, capsys):
    argv = ["check-symmetry", "--model", "rigidbody", "--field", "rotations", "--points", "1"]
    run_cli(argv)  # the first run compiles what a process keeps (the inverse of each dimension)
    counts = _spy_programs(monkeypatch)
    assert run_cli(argv) == 0
    capsys.readouterr()
    # G's matrix and jet, the connection record's program, the potential's jet, and
    # for each of Rx, Ry and Rz its first-order program and its second partials
    assert counts["programs"] <= 10
    assert sorted(set(counts["d2"])) == ["Rx", "Ry", "Rz"]


def test_check_symmetry_seeds_no_pass_and_inverts_no_metric_at_a_dual_point(monkeypatch,
                                                                              capsys):
    # every jet check-symmetry reads is a program or a closed form over one
    calls = {"mul": 0, "seeded": 0, "inv": 0, "dual_inv": 0}
    mul, partial_multi, inv = duals.MultiDual.__mul__, duals.partial_multi, Metric.inv

    def counted(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    def spy_inv(self, xs, g=None):
        calls["inv"] += 1
        calls["dual_inv"] += any(isinstance(x, duals.MultiDual) for x in [*xs, *(g or ())])
        return inv(self, xs, g)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(duals.MultiDual, name, counted("mul", mul))
    monkeypatch.setattr(duals, "partial_multi", counted("seeded", partial_multi))
    monkeypatch.setattr(Metric, "inv", spy_inv)
    argv = ["check-symmetry", "--model", "rigidbody", "--field", "rotations", "--points", "1"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    # one inverse at each of the TE and phase points, none for the motion row
    assert calls == {"mul": 0, "seeded": 0, "inv": 2, "dual_inv": 0}


@pytest.mark.parametrize("argv", [
    ["noether", "--model", "rigidbody", "--field", "rotations", "--points", "2"],
    ["brackets", "--model", "rigidbody", "--points", "2"],
    ["momentum-map", "--model", "rigidbody", "--action", "rotations", "--points", "2"],
    ["simulate", "--model", "rigidbody", "--T", "0.002", "--x0", "0.1,1.0,0.2",
     "--charges", "d0,Rz,Rx"],
], ids=lambda argv: argv[0])
def test_commands_without_second_order_families_read_no_second_partials(argv, monkeypatch,
                                                                          capsys):
    counts = _spy_programs(monkeypatch)
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert counts["d2"] == [] and counts["programs"] > 0


def _square_slots(cfg):
    """The slot of each polynomial's square in a :func:`generated_config`."""
    return [p["coeffs"][-1][1][0] for p in [*cfg["metric"]["entries"].values(), *cfg["potential"]]]


def _coefficients(cfg):
    return [c for p in [*cfg["metric"]["entries"].values(), *cfg["potential"]]
            for c, _ in p["coeffs"]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_generated_config_of_a_dimension_seen_compiles_nothing_new(n, tmp_path, monkeypatch,
                                                                      capsys):
    # a program's text depends on its graph's shape alone, so a second config
    # of the dimension, with other coefficients and square slots, reuses each one
    from galimech import fields

    first, second = generated_config(n, seed=1), generated_config(n, seed=2)
    assert _square_slots(first) != _square_slots(second)
    assert all(a != b for a, b in zip(_coefficients(first), _coefficients(second)))
    texts, code = [], fields._code
    monkeypatch.setattr(fields, "_code", lambda source: texts.append(source) or code(source))
    argvs = [["derive"], ["noether", "--field", "x1 d2 - x2 d1", "--points", "4"],
             ["simulate", "--T", "0.05", "--h", "0.01"]]
    seen = []
    for i, cfg in enumerate((first, second)):
        path = tmp_path / f"config-{i}.json"
        path.write_text(json.dumps(cfg))
        texts.clear()
        misses = code.cache_info().misses
        for argv in argvs:
            assert run_cli([argv[0], "--model", str(path), *argv[1:]]) in (0, 2)
        seen.append(list(texts))
    capsys.readouterr()
    assert seen[1] and set(seen[1]) <= set(seen[0])
    assert code.cache_info().misses == misses

import json
import math
import os

import numpy as np
import pytest

from galimech import cli
from galimech.catalog import ModelError, load_model, model_from_config, named_charges
from galimech.cli import ParseError, parse_vector_field
from galimech.duals import value
from galimech.fields import Chart
from galimech.units import UnitMismatchError


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
    assert value(m.em.value(1, 2, p)) == 2.5
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
    for bad in ("x1^2", "d9", "x9 d1", "foo d1", "x1 +", "(x1 d1"):
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
    verify = symmetry.noether_charge
    monkeypatch.setattr(symmetry, "noether_charge",
                        lambda *a, **k: calls.append(a[0].label) or verify(*a, **k))
    charges = named_charges(rigidbody, ["charge_d0", "charge_Rz"])
    assert sorted(calls) == ["Rz", "d0"]
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


def test_metric_dimension_is_checked_with_an_em_section(tmp_path, capsys):
    em = {"q": 1.0, "m": 1.0, "entries": {"1,2": 0.5}}
    cfg = {"n": 2, "metric": {"dim": [5, 5, 5]}, "em": em}
    assert "metric entries: expected dimension" in _config_error(tmp_path, capsys, cfg)


@pytest.mark.parametrize("argv", [
    ["derive", "--bogus"],
    ["derive", "--box", "-3,3"],
    ["check-symmetry"],
    ["simulate", "--T", "abc"],
])
def test_usage_errors_are_input_errors(argv, capsys):
    _input_error(argv, capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["derive", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out

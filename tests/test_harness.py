import csv
import json
import math
import re

import numpy as np
import pytest

from bn_relax import (AdmissibilityError, PrimitiveState, RunConfig, exact_profile, get_case,
                      l1_error, load_case_json, run, run_case, scheme)
from bn_relax.cli import main
from bn_relax.harness import (bench, case_error, convergence_study, error_at_cost,
                              read_profile_csv, write_bench_csv, write_profile_csv)


def prof(**kw):
    base = dict(alpha1=[0.5, 0.5], rho1=[1.0, 2.0], u1=[0.1, 0.2], p1=[1.0, 1.0],
                rho2=[1.0, 1.0], u2=[-0.3, 0.4], p2=[1.0, 1.0])
    base.update(kw)
    return PrimitiveState(**{k: np.asarray(v, dtype=float) for k, v in base.items()})


def test_l1_identical_profiles_zero():
    p = prof()
    rep = l1_error(p, p, dx=0.5)
    assert all(v == 0.0 for v in rep.errors.values())


def test_l1_hand_value():
    a = prof(rho1=[1.0, 2.0])
    e = prof(rho1=[1.0, 1.0])
    rep = l1_error(a, e, dx=0.5)
    assert rep.errors["rho1"] == pytest.approx(0.5)


def test_error_at_cost_is_log_log_interpolation():
    # errors halve each time the cost quadruples: error = 0.2 / sqrt(cost);
    # the levels may come in any order, as noisy timings can put them
    costs, errors = [16.0, 1.0, 4.0], [0.05, 0.2, 0.1]
    assert error_at_cost(costs, errors, 2.0) == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-14)
    assert error_at_cost(costs, errors, 8.0) == pytest.approx(0.2 / math.sqrt(8.0), rel=1e-14)
    assert error_at_cost(costs, errors, 4.0) == pytest.approx(0.1, rel=1e-14)
    assert math.isnan(error_at_cost(costs, errors, 0.5))
    assert math.isnan(error_at_cost(costs, errors, 17.0))


def test_l1_scaling_invariance():
    a = prof(rho1=[1.0, 2.0])
    e = prof(rho1=[1.5, 1.2])
    r1 = l1_error(a, e, 0.5).errors["rho1"]
    a2 = prof(rho1=[3.0, 6.0])
    e2 = prof(rho1=[4.5, 3.6])
    r2 = l1_error(a2, e2, 0.5).errors["rho1"]
    assert r1 == pytest.approx(r2, rel=1e-14)


def test_l1_zero_norm_flagged():
    a = prof(u1=[0.1, -0.1])
    e = prof(u1=[0.0, 0.0])
    rep = l1_error(a, e, 0.5)
    assert math.isnan(rep.errors["u1"])
    assert "u1" in rep.undefined


def test_l1_length_mismatch():
    with pytest.raises(ValueError):
        l1_error(prof(), prof(alpha1=[0.5, 0.5, 0.5], rho1=[1, 1, 1], u1=[0, 0, 0],
                              p1=[1, 1, 1], rho2=[1, 1, 1], u2=[0, 0, 0], p2=[1, 1, 1]), 0.5)


def test_profile_csv_round_trip(tmp_path):
    path = tmp_path / "profile.csv"
    xs = np.array([0.25, 0.75])
    p = prof(rho1=[1.0 / 3.0, math.pi], u2=[-1e-17, 3.33e5])
    write_profile_csv(path, xs, p)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "x,alpha1,rho1,u1,p1,rho2,u2,p2"
    xs2, p2 = read_profile_csv(path)
    assert np.array_equal(xs, xs2)
    for name in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2"):
        assert np.array_equal(getattr(p, name), getattr(p2, name)), name


def test_profile_csv_header_only_is_rejected(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,alpha1,rho1,u1,p1,rho2,u2,p2\n")
    with pytest.raises(ValueError, match=re.escape(f"no profile rows in {path} after the header "
                                                   "on line 1")):
        read_profile_csv(path)


def test_profile_csv_short_row_is_rejected(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,alpha1,rho1,u1,p1,rho2,u2,p2\n"
                    "0.25,0.5,1,0,1,1,0,1\n"
                    "0.75,0.5,1,0,1,1,0\n")
    with pytest.raises(ValueError, match=re.escape(f"bad profile row in {path}, line 3: "
                                                   "7 fields, expected 8")):
        read_profile_csv(path)


@pytest.mark.parametrize("field", ["abc", ""], ids=["non-numeric", "empty"])
def test_profile_csv_bad_field_is_rejected(tmp_path, field):
    path = tmp_path / "profile.csv"
    path.write_text("x,alpha1,rho1,u1,p1,rho2,u2,p2\n"
                    f"0.1,0.5,1,0,1,1,0,{field}\n")
    with pytest.raises(ValueError, match=re.escape(f"bad profile row in {path}, line 2: "
                                                   f"could not convert string to float: "
                                                   f"'{field}'")):
        read_profile_csv(path)


def test_profile_csv_bad_path():
    with pytest.raises(OSError):
        write_profile_csv("/nonexistent-dir/x.csv", np.array([0.0]), prof(alpha1=[0.5],
                          rho1=[1], u1=[0], p1=[1], rho2=[1], u2=[0], p2=[1]))


CASE1_JSON = {
    "eos1": {"gamma": 1.4, "p_inf": 0.0},
    "eos2": {"gamma": 1.4, "p_inf": 0.0},
    "x0": 0.0, "t_max": 0.15, "cfl": 0.45, "domain": [-0.5, 0.5],
    "left": {"alpha1": 0.2, "rho1": 0.21430, "u1": -0.02609, "p1": 0.3,
             "rho2": 1.00003, "u2": 0.00007, "p2": 1.0},
    "right": {"alpha1": 0.7, "rho1": 0.96964, "u1": -0.03629, "p1": 0.95776,
              "rho2": 0.99993, "u2": -0.00004, "p2": 1.0},
}


def test_load_case_json_matches_registry(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(CASE1_JSON))
    case = load_case_json(path)
    ref = get_case(1)
    assert case.eos1.gamma == ref.eos1.gamma
    assert case.t_max == ref.t_max and case.cfl == ref.cfl
    for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2"):
        assert float(getattr(case.left, f)) == float(getattr(ref.left, f))
        assert float(getattr(case.right, f)) == float(getattr(ref.right, f))
    assert case.fan is None


def test_load_case_json_missing_key(tmp_path):
    bad = {k: v for k, v in CASE1_JSON.items() if k != "cfl"}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="cfl"):
        load_case_json(path)


def test_load_case_json_cfl_bound(tmp_path):
    bad = dict(CASE1_JSON, cfl=0.6)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="cfl"):
        load_case_json(path)


def test_load_case_json_inadmissible_state(tmp_path):
    bad = json.loads(json.dumps(CASE1_JSON))
    bad["left"]["rho1"] = -1.0
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(AdmissibilityError):
        load_case_json(path)


@pytest.mark.parametrize("side", ["left", "right"])
def test_load_case_json_stiffened_pressure_below_minus_p_inf(tmp_path, side):
    # p + p_inf = 0 leaves the stiffened gas without a real sound speed
    bad = json.loads(json.dumps(CASE1_JSON))
    bad["eos2"]["p_inf"] = 100.0
    bad[side]["p2"] = -100.0
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(AdmissibilityError, match=rf"phase 2: p \+ p_inf <= 0 .*\[{side}\]"):
        load_case_json(path)


@pytest.mark.parametrize("side", ["left", "right"])
def test_load_case_json_nan_pressure(tmp_path, side):
    # json reads NaN; it must not pass the admissibility check
    bad = json.loads(json.dumps(CASE1_JSON))
    bad[side]["p1"] = float("nan")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(AdmissibilityError, match=rf"phase 1: .*\[{side}\]"):
        load_case_json(path)


@pytest.mark.parametrize("name, key, value", [
    ("eos1.gamma", ("eos1", "gamma"), "1.4"), ("domain[1]", ("domain", 1), "1"),
    ("left.alpha1", ("left", "alpha1"), None), ("right.p2", ("right", "p2"), "0.5"),
    ("t_max", (None, "t_max"), True), ("cfl", (None, "cfl"), "0.45")])
def test_load_case_json_rejects_non_numbers(tmp_path, capsys, name, key, value):
    # every numeric entry must be a JSON number, not a string, null or boolean;
    # the CLI reports the file as an error instead of crashing
    bad = json.loads(json.dumps(CASE1_JSON))
    outer, last = key
    (bad[outer] if outer else bad)[last] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=rf"key '{re.escape(name)}' must be a number"):
        load_case_json(path)
    assert main(["run", "--config", str(path), "--cells", "20",
                 "--out", str(tmp_path / "sol.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize("name, key, value", [
    ("t_max", (None, "t_max"), math.inf), ("t_max", (None, "t_max"), math.nan),
    ("x0", (None, "x0"), math.nan), ("domain[0]", ("domain", 0), -math.inf)])
def test_load_case_json_rejects_non_finite_numbers(tmp_path, capsys, name, key, value):
    # json reads NaN and +-Infinity.  An infinite t_max made the run march
    # forever and a NaN one took no step; the loader reports the key before
    # any run starts, and the CLI writes nothing
    bad = json.loads(json.dumps(CASE1_JSON))
    outer, last = key
    (bad[outer] if outer else bad)[last] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=rf"key '{re.escape(name)}' must be finite"):
        load_case_json(path)
    out = tmp_path / "sol.csv"
    assert main(["run", "--config", str(path), "--cells", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_load_case_json_rejects_non_objects(tmp_path, text):
    path = tmp_path / "case.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="not a JSON object"):
        load_case_json(path)


def test_case_error_compares_at_the_time_reached():
    # a run stopped at half the case's final time is compared with the
    # exact profile at that time, not at t_max
    case = get_case(1)
    cfg = RunConfig(cells=200, t_final=case.t_max / 2, domain=case.domain, cfl=case.cfl)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    want = l1_error(res.prim, exact_profile(case, 200, res.t)[1], 1.0 / 200)
    assert case_error(case, res).errors == want.errors


def test_convergence_study_structure():
    case = get_case(1)
    reports = convergence_study(case, "relaxation", [25, 50])
    assert [r.cells for r in reports] == [25, 50]
    assert reports[0].orders == {}
    assert set(reports[1].orders) <= {"alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2"}
    assert all(e > 0 for e in reports[0].errors.values())
    assert reports[1].wall_seconds > 0


def test_convergence_study_propagates_bugs(monkeypatch):
    # only solver, admissibility and EOS-domain errors make a failed level
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(scheme, "step", broken)
    with pytest.raises(TypeError, match="injected"):
        convergence_study(get_case(1), "relaxation", [20])


def test_convergence_study_records_failed_level():
    # Rusanov has no positivity guarantee and fails on case 5's vanishing phases
    (rep,) = convergence_study(get_case(5), "rusanov", [100])
    assert rep.failure.startswith("AdmissibilityError")
    assert all(math.isnan(e) for e in rep.errors.values())


def test_bench_keeps_failure_reason(tmp_path):
    (row,) = [r for r in bench(get_case(5), [100]) if r["scheme"] == "rusanov"]
    assert row["failure"].startswith("AdmissibilityError")
    assert math.isnan(row["E_rho1"])
    path = tmp_path / "bench.csv"
    write_bench_csv(path, [row])
    with open(path, newline="") as fh:
        header, written = csv.reader(fh)
    assert header[-1] == "failure" and written[-1] == row["failure"]


def test_convergence_levels_must_increase():
    with pytest.raises(ValueError):
        convergence_study(get_case(1), "relaxation", [100, 100])


#: normalized L1 error below which a profile is exact up to roundoff
ROUNDOFF_FLOOR = 1000 * np.finfo(float).eps
#: variables a case reproduces exactly: case 3's stationary coupling contact
#: sits between two mirrored rarefactions, so alpha1 holds to roundoff
EXACT_VARIABLES = {3: ("alpha1",)}


@pytest.mark.parametrize("cid", [1, 2, 3])
def test_convergence_errors_monotone(cid):
    # refinement may only reduce each variable's error, up to 5% noise; two
    # errors that are both roundoff are not compared, they stay under the floor
    reports = convergence_study(get_case(cid), "relaxation", [100, 200, 400])
    for prev, cur in zip(reports, reports[1:]):
        for var, e in cur.errors.items():
            if math.isnan(e) or math.isnan(prev.errors[var]):
                continue
            if max(e, prev.errors[var]) <= ROUNDOFF_FLOOR:
                continue
            assert e <= 1.05 * prev.errors[var], (var, prev.errors[var], e)
    for var in EXACT_VARIABLES.get(cid, ()):
        errors = [r.errors[var] for r in reports]
        assert max(errors) <= ROUNDOFF_FLOOR, (var, errors)


def test_odd_mesh_contact_in_mixed_cell():
    # on an odd mesh case 3's stationary coupling contact starts inside a
    # cell, whose mixed average lies off the contact's invariants, so it is
    # no longer reproduced exactly; relaxation must still smear alpha1 no
    # more than the baseline does
    case = get_case(3)
    errors = {scheme: case_error(case, run_case(case, scheme, 199)).errors["alpha1"]
              for scheme in ("relaxation", "rusanov")}
    assert errors["relaxation"] > ROUNDOFF_FLOOR
    assert errors["relaxation"] <= errors["rusanov"], errors


def test_exact_and_numeric_profiles_share_grid():
    from bn_relax import exact_profile
    case = get_case(1)
    res = run_case(case, "relaxation", 32)
    x_exact, _ = exact_profile(case, 32, case.t_max)
    assert np.array_equal(res.x, x_exact)

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from bn_relax import get_case
from bn_relax.cli import main
from bn_relax.harness import read_profile_csv, run_case
from bn_relax.scheme import StepRecord


def test_no_arguments_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_usage_error():
    assert main(["run", "--case", "1", "--cells", "10", "--out", "x.csv", "--bogus"]) == 2


def test_run_writes_profile(tmp_path):
    out = tmp_path / "sol.csv"
    assert main(["run", "--case", "1", "--scheme", "relax", "--cells", "24",
                 "--out", str(out)]) == 0
    xs, prof = read_profile_csv(out)
    assert xs.shape == (24,)
    assert np.all(prof.rho1 > 0)


def test_run_log_holds_the_step_records(tmp_path):
    out, log = tmp_path / "sol.csv", tmp_path / "log.csv"
    assert main(["run", "--case", "1", "--cells", "50", "--out", str(out),
                 "--log", str(log)]) == 0
    records = run_case(get_case(1), "relaxation", 50).records
    with open(log, newline="") as fh:
        header, *rows = csv.reader(fh)
    names = [f.name for f in fields(StepRecord)]
    assert header == names
    assert len(rows) == len(records) > 0
    assert [int(row[0]) for row in rows] == list(range(1, len(records) + 1))
    for row, rec in zip(rows, records):
        assert [float(v) for v in row[1:]] == [getattr(rec, n) for n in names[1:]]


def test_run_rusanov_scheme(tmp_path):
    out = tmp_path / "rus.csv"
    assert main(["run", "--case", "1", "--scheme", "rusanov", "--cells", "24",
                 "--out", str(out)]) == 0


def test_run_from_config(tmp_path):
    cfg = {
        "eos1": {"gamma": 1.4, "p_inf": 0.0}, "eos2": {"gamma": 1.4, "p_inf": 0.0},
        "x0": 0.5, "t_max": 0.05, "cfl": 0.45, "domain": [0.0, 1.0],
        "left": {"alpha1": 0.3, "rho1": 1.0, "u1": 0.0, "p1": 1.0,
                 "rho2": 1.0, "u2": 0.0, "p2": 1.0},
        "right": {"alpha1": 0.6, "rho1": 0.5, "u1": 0.0, "p1": 0.4,
                  "rho2": 0.8, "u2": 0.0, "p2": 0.5},
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sol.csv"
    assert main(["run", "--config", str(path), "--cells", "20", "--out", str(out)]) == 0
    xs, _ = read_profile_csv(out)
    assert xs.shape == (20,)


def test_run_bad_config_is_error(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"eos1": {}}))
    out = tmp_path / "sol.csv"
    assert main(["run", "--config", str(path), "--cells", "20", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err


def test_exact_profile_csv(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--case", "3", "--cells", "50", "--out", str(out)]) == 0
    xs, prof = read_profile_csv(out)
    assert xs.shape == (50,)
    # near-vacuum plateau of the star region
    mid = np.argmin(np.abs(xs - 0.5))
    assert abs(prof.rho1[mid] - 0.0219) < 1e-12


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--case", "1", "--scheme", "relax", "--levels", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("cells,dx,wall_seconds,E_alpha1")
    assert "order_" not in lines[0]  # single level: no order columns


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--case", "1", "--levels", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + one row per scheme
    assert lines[1].startswith("relaxation,100")
    assert lines[2].startswith("rusanov,100")
    wall = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(w > 0 for w in wall)


@pytest.mark.parametrize("args", [
    ["exact", "--case", "1", "--cells", "0"],
    ["exact", "--case", "1", "--cells", "-4"],
    ["convergence", "--case", "1", "--levels", "0"],
    ["bench", "--case", "1", "--levels", "0"],
])
def test_empty_mesh_is_error_and_writes_nothing(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()

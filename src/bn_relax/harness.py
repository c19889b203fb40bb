"""Error metrics, convergence/CPU studies, and file I/O for the benchmark cases."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .eos import EosDomainError, EosParams
from .reference import TestCase, exact_profile, get_case
from .riemann import SolverError
from .scheme import RunConfig, RunResult, run
from .state import AdmissibilityError, PrimitiveState, VARIABLES, validate_primitive


@dataclass
class ErrorReport:
    """Normalized L1 errors of one run against the exact profile."""

    cells: int
    dx: float
    wall_seconds: float
    errors: dict = field(default_factory=dict)       # variable -> E(dx), NaN if undefined
    undefined: set = field(default_factory=set)      # variables with zero exact norm
    orders: dict = field(default_factory=dict)       # filled by convergence_study
    failure: str = ""                                # repr of the error of a failed level


def l1_error(approx: PrimitiveState, exact: PrimitiveState, dx: float) -> ErrorReport:
    """Discrete L1 error of each variable, normalized by the exact L1 norm."""
    n = np.atleast_1d(approx.alpha1).shape[0]
    if np.atleast_1d(exact.alpha1).shape[0] != n:
        raise ValueError("profiles have different lengths")
    rep = ErrorReport(cells=n, dx=dx, wall_seconds=0.0)
    for var in VARIABLES:
        a = np.atleast_1d(np.asarray(getattr(approx, var), dtype=float))
        e = np.atleast_1d(np.asarray(getattr(exact, var), dtype=float))
        denom = np.sum(np.abs(e)) * dx
        if denom == 0.0:
            rep.errors[var] = math.nan
            rep.undefined.add(var)
        else:
            rep.errors[var] = float(np.sum(np.abs(a - e)) * dx / denom)
    return rep


def run_case(case: TestCase, scheme: str, cells: int, cfl: float | None = None,
             entropy_audit: bool = False) -> RunResult:
    """Run one benchmark case on ``cells`` cells with the requested scheme."""
    cfg = RunConfig(cells=cells, t_final=case.t_max, domain=case.domain,
                    cfl=case.cfl if cfl is None else cfl, scheme=scheme,
                    entropy_audit=entropy_audit)
    return run(case.initial, cfg, case.eos1, case.eos2)


def case_error(case: TestCase, result: RunResult) -> ErrorReport:
    """Error report of a finished run against the case's exact solution."""
    dx = (case.domain[1] - case.domain[0]) / len(result.x)
    _, exact = exact_profile(case, len(result.x), case.t_max)
    rep = l1_error(result.prim, exact, dx)
    rep.wall_seconds = result.wall_time
    return rep


def convergence_study(case: TestCase, scheme: str, levels):
    """Run each mesh level and attach observed orders between consecutive levels.

    A level that fails with a solver, admissibility or EOS-domain error is
    recorded as an ErrorReport full of NaN with the error in ``failure``
    (never skipped silently); orders involving it stay undefined.  Any other
    exception is a bug and propagates.
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    reports = []
    for cells in levels:
        try:
            result = run_case(case, scheme, cells)
            reports.append(case_error(case, result))
        except (SolverError, AdmissibilityError, EosDomainError) as exc:
            rep = ErrorReport(cells=cells, dx=(case.domain[1] - case.domain[0]) / cells,
                              wall_seconds=math.nan)
            rep.errors = {v: math.nan for v in VARIABLES}
            rep.failure = repr(exc)
            reports.append(rep)
    for prev, cur in zip(reports, reports[1:]):
        ratio = math.log2(prev.cells * 1.0 / cur.cells)  # negative: finer mesh
        for var in VARIABLES:
            e0, e1 = prev.errors.get(var), cur.errors.get(var)
            if e0 and e1 and e0 > 0 and e1 > 0 and not (math.isnan(e0) or math.isnan(e1)):
                cur.orders[var] = math.log2(e0 / e1) / -ratio
    return reports


def least_squares_order(reports, var: str) -> float:
    """Least-squares slope of log E against log dx across a study."""
    pts = [(r.dx, r.errors[var]) for r in reports
           if var in r.errors and r.errors[var] > 0 and not math.isnan(r.errors[var])]
    if len(pts) < 2:
        return math.nan
    logx = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    return float(np.polyfit(logx, loge, 1)[0])


def bench(case: TestCase, levels, schemes=("relaxation", "rusanov")):
    """Error-vs-CPU rows: one per (scheme, level).

    A failed level keeps its reason in ``failure`` (empty otherwise), next to
    its NaN errors and time.
    """
    rows = []
    for scheme in schemes:
        for rep in convergence_study(case, scheme, levels):
            rows.append({"scheme": scheme, "cells": rep.cells, "dx": rep.dx,
                         "wall_seconds": rep.wall_seconds,
                         **{f"E_{v}": rep.errors[v] for v in VARIABLES},
                         "failure": rep.failure})
    return rows


def error_at_cost(costs, errors, cost: float) -> float:
    """Error of a mesh-refinement study at CPU time ``cost``.

    ``costs`` and ``errors`` hold one entry per mesh level, in any order.  The
    error is interpolated linearly in log(cost) against log(error) between the
    two levels around ``cost``; it is NaN outside the range of ``costs``.
    """
    costs, errors = np.asarray(costs, dtype=float), np.asarray(errors, dtype=float)
    order = np.argsort(costs)
    log_err = np.interp(math.log(cost), np.log(costs[order]), np.log(errors[order]),
                        left=math.nan, right=math.nan)
    return float(np.exp(log_err))


# ---------------------------------------------------------------- file I/O

_PROFILE_HEADER = "x," + ",".join(VARIABLES)


def write_profile_csv(path, xs, profile: PrimitiveState):
    """Profile CSV: header row then one row per cell, 17 significant digits."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cols = [xs] + [np.atleast_1d(np.asarray(getattr(profile, v), dtype=float))
                   for v in VARIABLES]
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(_PROFILE_HEADER + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write profile to {path}: {exc}") from exc


def read_profile_csv(path):
    """Inverse of write_profile_csv: (x array, PrimitiveState)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _PROFILE_HEADER:
            raise ValueError(f"unexpected profile header in {path}: {header!r}")
        data = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    return data[:, 0], PrimitiveState(*data[:, 1:].T)


def write_convergence_csv(path, reports, with_orders=True):
    cols = ["cells", "dx", "wall_seconds"] + [f"E_{v}" for v in VARIABLES]
    if with_orders:
        cols += [f"order_{v}" for v in VARIABLES]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in reports:
            row = [f"{rep.cells}", f"{rep.dx:.17g}", f"{rep.wall_seconds:.6g}"]
            row += [f"{rep.errors[v]:.17g}" for v in VARIABLES]
            if with_orders:
                row += [f"{rep.orders[v]:.6g}" if v in rep.orders else "" for v in VARIABLES]
            fh.write(",".join(row) + "\n")


def write_diagnostics_csv(path, records):
    """Per-step audit log of a run: dt, conserved totals, admissibility minima."""
    cols = ("step", "t", "dt", "mass1", "mass2", "momentum", "energy",
            "min_alpha1", "min_alpha2", "min_rho1", "min_rho2", "min_e1", "min_e2")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            fh.write(",".join(str(getattr(rec, c)) if c == "step"
                              else f"{getattr(rec, c):.17g}" for c in cols) + "\n")


def write_bench_csv(path, rows):
    """Rows of ``bench``; the failure reason is the last column, quoted where
    it holds a comma."""
    cols = ["scheme", "cells", "dx", "wall_seconds"] + [f"E_{v}" for v in VARIABLES] + ["failure"]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        for row in rows:
            out.writerow(str(row[c]) if c in ("scheme", "cells", "failure")
                         else f"{row[c]:.17g}" for c in cols)


_CASE_SCHEMA = {
    "eos1": dict, "eos2": dict, "x0": (int, float), "t_max": (int, float),
    "cfl": (int, float), "domain": list, "left": dict, "right": dict,
}
_EOS_KEYS = ("gamma", "p_inf")
_STATE_KEYS = VARIABLES


def load_case_json(path) -> TestCase:
    """Parse a user-provided Riemann case; no exact solution attached.

    Raises ValueError naming the first offending key on schema violations and
    AdmissibilityError for inadmissible states.
    """
    with open(path) as fh:
        raw = json.load(fh)
    for key, typ in _CASE_SCHEMA.items():
        if key not in raw:
            raise ValueError(f"case file {path}: missing key {key!r}")
        if not isinstance(raw[key], typ):
            raise ValueError(f"case file {path}: key {key!r} has wrong type")
    for side in ("eos1", "eos2"):
        for key in _EOS_KEYS:
            if key not in raw[side]:
                raise ValueError(f"case file {path}: missing key {side}.{key}")
    for side in ("left", "right"):
        for key in _STATE_KEYS:
            if key not in raw[side]:
                raise ValueError(f"case file {path}: missing key {side}.{key}")
    if len(raw["domain"]) != 2 or not raw["domain"][0] < raw["domain"][1]:
        raise ValueError(f"case file {path}: 'domain' must be [a, b] with a < b")
    if not 0.0 < raw["cfl"] < 0.5:
        raise ValueError(f"case file {path}: 'cfl' must lie in (0, 0.5)")
    eos1 = EosParams(gamma=raw["eos1"]["gamma"], p_inf=raw["eos1"]["p_inf"])
    eos2 = EosParams(gamma=raw["eos2"]["gamma"], p_inf=raw["eos2"]["p_inf"])
    left = PrimitiveState(**{k: float(raw["left"][k]) for k in _STATE_KEYS})
    right = PrimitiveState(**{k: float(raw["right"][k]) for k in _STATE_KEYS})
    validate_primitive(left, eos1, eos2, where="left")
    validate_primitive(right, eos1, eos2, where="right")
    return TestCase(id=0, eos1=eos1, eos2=eos2, x0=float(raw["x0"]),
                    t_max=float(raw["t_max"]), cfl=float(raw["cfl"]),
                    domain=tuple(raw["domain"]), left=left, right=right, fan=None)

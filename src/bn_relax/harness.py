"""Error metrics, convergence/CPU studies, and file I/O for the benchmark cases."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .eos import EosDomainError, EosParams
from .reference import TestCase, exact_profile, get_case
from .riemann import SolverError
from .scheme import RunConfig, RunResult, StepRecord, run
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
    """Error report of a run against the case's exact solution at the time
    the run reached."""
    dx = (case.domain[1] - case.domain[0]) / len(result.x)
    _, exact = exact_profile(case, len(result.x), result.t)
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
    if not levels:
        raise ValueError("a convergence study needs at least one mesh level")
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


#: keys of a ``bench`` row and columns of its CSV file
BENCH_COLUMNS = ("scheme", "cells", "dx", "wall_seconds", *(f"E_{v}" for v in VARIABLES),
                 "failure")


def bench(case: TestCase, levels, schemes=("relaxation", "rusanov")):
    """Error-vs-CPU rows: one per (scheme, level), keyed by ``BENCH_COLUMNS``.

    A failed level keeps its reason in ``failure`` (empty otherwise), next to
    its NaN errors and time.
    """
    return [dict(zip(BENCH_COLUMNS, (scheme, rep.cells, rep.dx, rep.wall_seconds,
                                     *(rep.errors[v] for v in VARIABLES), rep.failure)))
            for scheme in schemes for rep in convergence_study(case, scheme, levels)]


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

_PROFILE_HEADER = ("x", *VARIABLES)


def _write_csv(path, header, rows):
    """CSV file of ``header`` and ``rows``: floats at 17 significant digits,
    every other value as ``str``; a field is quoted where it holds a comma."""
    try:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            out.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                          for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_profile_csv(path, xs, profile: PrimitiveState):
    """Profile CSV: header row then one row per cell."""
    cols = [np.atleast_1d(np.asarray(v, dtype=float))
            for v in (xs, *(getattr(profile, name) for name in VARIABLES))]
    _write_csv(path, _PROFILE_HEADER, zip(*cols))


def read_profile_csv(path):
    """Inverse of write_profile_csv: (x array, PrimitiveState).  Raises
    ValueError naming ``path``, and the line, for a wrong header, a file with
    no row after it, and a row without one field per column."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(_PROFILE_HEADER):
            raise ValueError(f"unexpected profile header in {path}: {header!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = [float(v) for v in line.split(",")]
            if len(row) != len(_PROFILE_HEADER):
                raise ValueError(f"bad profile row in {path}, line {line_no}: "
                                 f"{len(row)} fields, expected {len(_PROFILE_HEADER)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"no profile rows in {path} after the header on line 1")
    data = np.array(rows)
    return data[:, 0], PrimitiveState(*data[:, 1:].T)


def write_convergence_csv(path, reports):
    """Reports of ``convergence_study``, with the observed orders where there
    is more than one; wall times and orders are written at 6 digits."""
    with_orders = len(reports) > 1
    cols = ["cells", "dx", "wall_seconds"] + [f"E_{v}" for v in VARIABLES]
    if with_orders:
        cols += [f"order_{v}" for v in VARIABLES]
    rows = []
    for rep in reports:
        row = [rep.cells, rep.dx, f"{rep.wall_seconds:.6g}", *(rep.errors[v] for v in VARIABLES)]
        if with_orders:
            row += [f"{rep.orders[v]:.6g}" if v in rep.orders else "" for v in VARIABLES]
        rows.append(row)
    _write_csv(path, cols, rows)


def write_diagnostics_csv(path, records):
    """Per-step log of a run: one column per ``StepRecord`` field."""
    names = [f.name for f in fields(StepRecord)]
    _write_csv(path, names, ([getattr(rec, n) for n in names] for rec in records))


def write_bench_csv(path, rows):
    """Rows of ``bench``; the failure reason is the last column."""
    _write_csv(path, BENCH_COLUMNS, ([row[c] for c in BENCH_COLUMNS] for row in rows))


#: the objects of a case file; every other entry is a number
_CASE_OBJECTS = {"eos1": dict, "eos2": dict, "domain": list, "left": dict, "right": dict}
_CASE_NUMBERS = ("x0", "t_max", "cfl")
_EOS_KEYS = ("gamma", "p_inf")
_STATE_KEYS = VARIABLES


def load_case_json(path) -> TestCase:
    """Parse a user-provided Riemann case; no exact solution attached.

    Every numeric entry must be a finite JSON number (``true`` and ``false``
    are not).  Raises ValueError naming the first offending key on schema
    violations and AdmissibilityError for inadmissible states, a NaN state
    entry among them.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"case file {path}: not a JSON object")
    for key in (*_CASE_OBJECTS, *_CASE_NUMBERS):
        if key not in raw:
            raise ValueError(f"case file {path}: missing key {key!r}")
    for key, typ in _CASE_OBJECTS.items():
        if not isinstance(raw[key], typ):
            raise ValueError(f"case file {path}: key {key!r} has wrong type")
    numbers = {key: raw[key] for key in _CASE_NUMBERS}
    for side, keys in (("eos1", _EOS_KEYS), ("eos2", _EOS_KEYS),
                       ("left", _STATE_KEYS), ("right", _STATE_KEYS)):
        for key in keys:
            if key not in raw[side]:
                raise ValueError(f"case file {path}: missing key {side}.{key}")
            numbers[f"{side}.{key}"] = raw[side][key]
    numbers.update({f"domain[{i}]": v for i, v in enumerate(raw["domain"])})
    for key, value in numbers.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"case file {path}: key {key!r} must be a number")
    # json reads NaN and +-Infinity; a NaN state entry is left to
    # validate_primitive, which names the invariant it breaks
    for key, value in numbers.items():
        state_nan = math.isnan(value) and key.startswith(("left.", "right."))
        if not (math.isfinite(value) or state_nan):
            raise ValueError(f"case file {path}: key {key!r} must be finite")
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
    return TestCase(eos1=eos1, eos2=eos2, x0=float(raw["x0"]),
                    t_max=float(raw["t_max"]), cfl=float(raw["cfl"]),
                    domain=tuple(raw["domain"]), left=left, right=right, fan=None)

#!/usr/bin/env python3
"""Print digests of the final states of the eight bitwise-gate runs, the
entropy slack of the five audited runs, and a digest of parameter selection
on hard rows.

A refactor that must leave results bitwise unchanged is checked by running
this script before and after it: every line must be equal.  A digest is the
first 16 hex digits of the sha256 of the final ``cells.stack()`` bytes of a
relaxation run.  The runs are cases 1-5 at 200 cells, case 1 at 800 cells,
case 1 at 3200 cells to a quarter of its final time, and case 2 at 3200 cells.
The entropy slack of cases 1-5 at 200 cells is printed with ``float.hex``.
Each of those five cases is marched once at 200 cells with the relaxation
scheme, with ``entropy_audit=True``: its digest, its slack and its audits
and files below are all read off that one run.  The audit reads the contact
speeds ``u1*`` and ``u2*`` and changes nothing of the march, so the final
state, the records and the conservation audit are those of a run without it.

A step updates only the cells between its first and last wave interface,
and the path where that window reaches a domain end is covered from both
sides: some steps of case 2 (82 steps), case 3 (71) and case 4 (31) at 200
cells and of case 2 at 3200 cells (1304) have a window that touches a
domain end, and no step of cases 1 and 5 at 200 cells or of case 1 at 800
and 3200 cells has.

None of these runs takes a positivity retry in parameter selection, so the
next line digests ``a1``, ``a2`` and the specific volumes of every region
that ``select_parameters`` gives on two fixed rows of hard pairs, one with an
ideal-gas and one with a stiffened-gas phase 2; the first takes retries.
The line after it digests the rest of the same two solved rows: every
``region_tables`` entry (keys in sorted order), ``u1_star``, ``u2_star``,
``pi1_star`` and both rows of ``assemble_fluxes``.

The audits and the written files are gated too.  Cases 1-5 run at 200
cells with both schemes (Rusanov skips case 5, which it fails by design),
the relaxation runs being the audited runs above.
For each run the script prints every ``conservation_error`` value with
``float.hex``, and a digest of the bytes of its profile CSV and its
``--log`` diagnostics CSV.  The last line digests a convergence CSV (case
1, relaxation, 50 and 100 cells) together with a bench CSV (case 5, 50
cells, both schemes; its Rusanov row records an AdmissibilityError), both
with ``wall_seconds`` set to 1.0 so that the bytes do not depend on the
host.  Usage:

    PYTHONPATH=src python scripts/gate_digests.py
"""
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from bn_relax import (EosParams, PrimitiveState, get_case, harness, interface_pair, region_tables,
                      select_parameters)
from bn_relax.scheme import RunConfig, assemble_fluxes, run

#: cases marched once each at 200 cells to t_max with the relaxation scheme
#: and the entropy audit: the first gate runs, whose slack is printed too
AUDITED_CASES = range(1, 6)
#: (case, cells, share of the case's t_max) of every gate run
GATE_RUNS = ([(cid, 200, 1.0) for cid in AUDITED_CASES]
             + [(1, 800, 1.0), (1, 3200, 0.25), (2, 3200, 1.0)])
#: seed and pairs per row of the hard rows of the selection digest
HARD_SEED, HARD_PAIRS = 1, 250
#: (case, scheme) of the runs whose audits and files are printed, at 200 cells
FILE_RUNS = [(cid, scheme) for cid in range(1, 6) for scheme in ("relaxation", "rusanov")
             if (cid, scheme) != (5, "rusanov")]


def _run(cid, cells, t_frac=1.0, entropy_audit=False):
    case = get_case(cid)
    cfg = RunConfig(cells=cells, t_final=case.t_max * t_frac, domain=case.domain,
                    cfl=case.cfl, entropy_audit=entropy_audit)
    return run(case.initial, cfg, case.eos1, case.eos2)


def _hard_side(rng, n):
    """One side of a row of pairs that climb a1 and a2 and take positivity
    retries: alpha1 log-uniform down to 1e-9 from either end, pressures
    0.2-200 and velocities in +-4."""
    alpha = 10.0 ** rng.uniform(-9.0, np.log10(0.5), n)
    alpha = np.where(rng.random(n) < 0.5, alpha, 1.0 - alpha)
    pressure = 10.0 ** rng.uniform(np.log10(0.2), np.log10(200.0), (2, n))
    return PrimitiveState(alpha, rng.uniform(0.2, 3.0, n), rng.uniform(-4.0, 4.0, n),
                          pressure[0], rng.uniform(0.2, 3.0, n), rng.uniform(-4.0, 4.0, n),
                          pressure[1])


def _hard_solutions():
    """The two solved rows of hard pairs: ideal-gas, then stiffened-gas phase 2."""
    rng = np.random.default_rng(HARD_SEED)
    return [select_parameters(interface_pair(_hard_side(rng, HARD_PAIRS),
                                             _hard_side(rng, HARD_PAIRS)), EosParams(1.4), eos2)
            for eos2 in (EosParams(1.4), EosParams(3.0, 100.0))]


def _array_digest(arrays):
    digest = hashlib.sha256()
    for v in arrays:
        digest.update(np.ascontiguousarray(v).tobytes())
    return digest.hexdigest()[:16]


def _selection_digests():
    """(a1, a2 and the region volumes; the rest of the solved rows) of the hard rows."""
    selection, solved = [], []
    for sol in _hard_solutions():
        tables = region_tables(sol)
        fluxes = assemble_fluxes(sol)
        selection += [sol.a[0], sol.a[1], tables["tau1"], tables["tau2"]]
        solved += [*(tables[key] for key in sorted(tables)), sol.u1_star, sol.u2_star, sol.pi1_star,
                   fluxes[0], fluxes[1]]
    return _array_digest(selection), _array_digest(solved)


def _file_digest(*paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


def _audit_lines(tmp, audited):
    """The audit and file lines; ``audited`` holds the relaxation run of each
    case at 200 cells, which ``harness.run_case`` would march alike."""
    for cid, scheme in FILE_RUNS:
        res = (audited[cid] if scheme == "relaxation"
               else harness.run_case(get_case(cid), scheme, 200))
        audits = ", ".join(f"{k} {float.hex(v)}" for k, v in res.conservation_error.items())
        print(f"case {cid} cells 200 {scheme} conservation_error: {audits}")
        profile, log = tmp / "profile.csv", tmp / "log.csv"
        harness.write_profile_csv(profile, res.x, res.prim)
        harness.write_diagnostics_csv(log, res.records)
        print(f"case {cid} cells 200 {scheme} profile and log: {_file_digest(profile, log)}")
    reports = harness.convergence_study(get_case(1), "relaxation", [50, 100])
    rows = harness.bench(get_case(5), [50])
    for rep in reports:
        rep.wall_seconds = 1.0
    for row in rows:
        row["wall_seconds"] = 1.0
    conv, bench = tmp / "conv.csv", tmp / "bench.csv"
    harness.write_convergence_csv(conv, reports)
    harness.write_bench_csv(bench, rows)
    print(f"convergence case 1 cells 50,100 and bench case 5 cells 50: {_file_digest(conv, bench)}")


def main():
    audited = {cid: _run(cid, 200, entropy_audit=True) for cid in AUDITED_CASES}
    for cid, cells, t_frac in GATE_RUNS:
        res = audited[cid] if (cells, t_frac) == (200, 1.0) else _run(cid, cells, t_frac)
        digest = hashlib.sha256(res.cells.stack().tobytes()).hexdigest()[:16]
        print(f"case {cid} cells {cells} t_max*{t_frac:g}: {digest}")
    for cid in AUDITED_CASES:
        print(f"case {cid} cells 200 entropy_slack: {float.hex(audited[cid].entropy_slack)}")
    selection, solved = _selection_digests()
    print(f"hard rows seed {HARD_SEED} pairs {HARD_PAIRS} selection: {selection}")
    print(f"hard rows seed {HARD_SEED} pairs {HARD_PAIRS} solved rows: {solved}")
    with tempfile.TemporaryDirectory() as tmp:
        _audit_lines(Path(tmp), audited)


if __name__ == "__main__":
    main()

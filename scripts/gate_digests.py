#!/usr/bin/env python3
"""Print digests of the final states of the eight bitwise-gate runs, the
entropy slack of the five audited runs, and a digest of parameter selection
on hard rows.

A refactor that must leave results bitwise unchanged is checked by running
this script before and after it: every line must be equal.  A digest is the
first 16 hex digits of the sha256 of the final ``cells.stack()`` bytes of a
relaxation run.  The runs are cases 1-5 at 200 cells, case 1 at 800 cells,
case 1 at 3200 cells to a quarter of its final time, and case 2 at 3200 cells.
The entropy slack of cases 1-5 at 200 cells, run with ``entropy_audit=True``,
is printed with ``float.hex``; the audit reads the contact speeds ``u1*`` and
``u2*``, which the final state does not depend on.

A step updates only the cells between its first and last wave interface,
and the path where that window reaches a domain end is covered from both
sides: some steps of case 2 (82 steps), case 3 (71) and case 4 (31) at 200
cells and of case 2 at 3200 cells (1304) have a window that touches a
domain end, and no step of cases 1 and 5 at 200 cells or of case 1 at 800
and 3200 cells has.

None of these runs takes a positivity retry in parameter selection, so the
last line digests ``a1``, ``a2`` and the specific volumes of every region
that ``select_parameters`` gives on two fixed rows of hard pairs, one with an
ideal-gas and one with a stiffened-gas phase 2; the first takes retries.
"""
import hashlib

import numpy as np

from bn_relax import EosParams, PrimitiveState, get_case, region_tables, select_parameters
from bn_relax.scheme import RunConfig, run

#: (case, cells, share of the case's t_max)
GATE_RUNS = ([(cid, 200, 1.0) for cid in range(1, 6)]
             + [(1, 800, 1.0), (1, 3200, 0.25), (2, 3200, 1.0)])
#: cases whose entropy slack is printed, at 200 cells to t_max
AUDITED_CASES = range(1, 6)
#: seed and pairs per row of the hard rows of the selection digest
HARD_SEED, HARD_PAIRS = 1, 250


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


def _selection_digest():
    rng = np.random.default_rng(HARD_SEED)
    digest = hashlib.sha256()
    for eos2 in (EosParams(1.4), EosParams(3.0, 100.0)):
        sol = select_parameters(_hard_side(rng, HARD_PAIRS), _hard_side(rng, HARD_PAIRS),
                                EosParams(1.4), eos2)
        tables = region_tables(sol)
        for v in (sol.params.a1, sol.params.a2, tables["tau1"], tables["tau2"]):
            digest.update(np.ascontiguousarray(v).tobytes())
    return digest.hexdigest()[:16]


def main():
    for cid, cells, t_frac in GATE_RUNS:
        res = _run(cid, cells, t_frac)
        digest = hashlib.sha256(res.cells.stack().tobytes()).hexdigest()[:16]
        print(f"case {cid} cells {cells} t_max*{t_frac:g}: {digest}")
    for cid in AUDITED_CASES:
        res = _run(cid, 200, entropy_audit=True)
        print(f"case {cid} cells 200 entropy_slack: {float.hex(res.entropy_slack)}")
    print(f"hard rows seed {HARD_SEED} pairs {HARD_PAIRS} selection: {_selection_digest()}")


if __name__ == "__main__":
    main()

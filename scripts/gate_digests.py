#!/usr/bin/env python3
"""Print digests of the final states of the eight bitwise-gate runs, and the
entropy slack of the five audited runs.

A refactor that must leave results bitwise unchanged is checked by running
this script before and after it: every line must be equal.  A digest is the
first 16 hex digits of the sha256 of the final ``cells.stack()`` bytes of a
relaxation run.  The runs are cases 1-5 at 200 cells, case 1 at 800 cells,
case 1 at 3200 cells to a quarter of its final time, and case 2 at 3200 cells.
The entropy slack of cases 1-5 at 200 cells, run with ``entropy_audit=True``,
is printed with ``float.hex``; the audit reads the contact speeds ``u1*`` and
``u2*``, which the final state does not depend on.
"""
import hashlib

from bn_relax import get_case
from bn_relax.scheme import RunConfig, run

#: (case, cells, share of the case's t_max)
GATE_RUNS = ([(cid, 200, 1.0) for cid in range(1, 6)]
             + [(1, 800, 1.0), (1, 3200, 0.25), (2, 3200, 1.0)])
#: cases whose entropy slack is printed, at 200 cells to t_max
AUDITED_CASES = range(1, 6)


def _run(cid, cells, t_frac=1.0, entropy_audit=False):
    case = get_case(cid)
    cfg = RunConfig(cells=cells, t_final=case.t_max * t_frac, domain=case.domain,
                    cfl=case.cfl, entropy_audit=entropy_audit)
    return run(case.initial, cfg, case.eos1, case.eos2)


def main():
    for cid, cells, t_frac in GATE_RUNS:
        res = _run(cid, cells, t_frac)
        digest = hashlib.sha256(res.cells.stack().tobytes()).hexdigest()[:16]
        print(f"case {cid} cells {cells} t_max*{t_frac:g}: {digest}")
    for cid in AUDITED_CASES:
        res = _run(cid, 200, entropy_audit=True)
        print(f"case {cid} cells 200 entropy_slack: {float.hex(res.entropy_slack)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Relaxation's error over Rusanov's at equal CPU time, per case and variable.

For cases 1, 2 and 4 the relaxation scheme runs on 100 * 2**n cells,
n < --levels, and Rusanov's scheme on a reference mesh (--reference-cells).
A run's CPU time is scaled to the reference host speed of
``perfbench/hostspeed.py`` stretch by stretch, as ``perfbench/run.py``
forms ``wall_s``: the run is timed under ``perfbench/tracer.py``'s step
timer, which times the host-speed kernel at most every ``PERIOD_NS``, just
before a step.  Each stretch of the run, from the call to the first step,
from one step's entry to the next and from the last step to the return, has
the sampling pause before it taken out and is multiplied by
``REFERENCE_NS`` over the latest kernel time.  The cost is the median of
three such runs.  Relaxation's L1 error of each variable is
interpolated log-log at Rusanov's time on the reference mesh and divided by
Rusanov's error there: a ratio below 1 means relaxation is the more accurate
scheme at that cost.  Where Rusanov's time exceeds every relaxation level's,
relaxation runs one more level at twice the cells of its finest, so that
timing noise does not leave the reference above the ladder; a ratio is NaN
only where the reference still lies outside it.  The report is a check of the paper's cost argument:
the script exits 1, naming each case and variable, when any ratio is at
least 1 or is NaN.  Usage:

    PYTHONPATH=src python scripts/equal_cost.py [--levels 5] [--reference-cells 1600]
"""
import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import hostspeed
from tracer import StepTimer

from bn_relax import get_case
from bn_relax.harness import case_error, error_at_cost, run_case
from bn_relax.state import VARIABLES

CASES = (1, 2, 4)
#: runs per mesh; their median time is the cost
REPEATS = 3


def scaled_run(timer: StepTimer, case, scheme, cells):
    """(run, its seconds at the reference host speed), timed by ``timer``."""
    timer.clear()
    with timer.installed():
        t0 = perf_counter_ns()
        res = run_case(case, scheme, cells)
        t1 = perf_counter_ns()
    scale = hostspeed.REFERENCE_NS / np.asarray(timer.kernel, dtype=float)
    stretches = np.diff([t0, *timer.entry, t1]).astype(float)
    stretches[:-1] -= timer.pause
    return res, float(stretches @ np.append(scale, scale[-1])) * 1e-9


def timed(timer, case, scheme, cells):
    """(median scaled seconds, L1 errors by variable) of ``REPEATS`` runs."""
    runs = [scaled_run(timer, case, scheme, cells) for _ in range(REPEATS)]
    return statistics.median(t for _, t in runs), case_error(case, runs[0][0]).errors


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--levels", type=int, default=5,
                    help="relaxation meshes: 100 * 2**n cells for n < LEVELS (default 5)")
    ap.add_argument("--reference-cells", type=int, default=1600,
                    help="Rusanov's mesh (default 1600)")
    args = ap.parse_args()

    timer = StepTimer()
    behind = []
    for cid in CASES:
        case = get_case(cid)
        cells = [100 * 2 ** n for n in range(args.levels)]
        levels = [timed(timer, case, "relaxation", n) for n in cells]
        cost, reference = timed(timer, case, "rusanov", args.reference_cells)
        if cost > max(t for t, _ in levels):
            cells.append(2 * cells[-1])
            levels.append(timed(timer, case, "relaxation", cells[-1]))
        print(f"case {cid}: rusanov {args.reference_cells} cells {cost:.3f} s; relaxation "
              + ", ".join(f"{n} cells {t:.3f} s" for n, (t, _) in zip(cells, levels)))
        for var in VARIABLES:
            err = error_at_cost([t for t, _ in levels], [e[var] for _, e in levels], cost)
            ratio = err / reference[var]
            print(f"  {var:7s} {ratio:.3f}")
            if not ratio < 1.0:
                behind.append(f"case {cid} {var} ({ratio:.3f})")
    if behind:
        sys.exit("relaxation is not more accurate at equal cost: " + ", ".join(behind))


if __name__ == "__main__":
    main()

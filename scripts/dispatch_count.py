#!/usr/bin/env python3
"""Print the exact number of Python-level calls per relaxation step.

For cases 1, 2 and 4 at 200 cells the script marches 40 steps unprofiled,
then profiles 20 more with ``cProfile``: each profiled call is one
``scheme.step``, which converts the cells to primitive variables itself,
followed by the ``to_primitive`` of the updated window that ``scheme.run``
makes after each step.  It prints the profiler's total call count divided by
20; the profiler's own ``disable`` calls are not counted.  The count does
not depend on the host or on timing, so two runs give the same figure.
numpy ufunc calls and slot calls such as indexing are not Python-level
calls and are not counted.  Usage:

    PYTHONPATH=src python scripts/dispatch_count.py
"""
import cProfile
import pstats

from bn_relax import get_case
from bn_relax.scheme import RunConfig, _project_initial, step
from bn_relax.state import to_primitive

CASES = (1, 2, 4)
CELLS = 200
WARM_STEPS, PROFILED_STEPS = 40, 20


def calls_per_step(cid):
    case = get_case(cid)
    cfg = RunConfig(cells=CELLS, t_final=case.t_max, domain=case.domain, cfl=case.cfl)
    dx = (cfg.domain[1] - cfg.domain[0]) / CELLS
    cells = _project_initial(case.initial, cfg.domain[0], dx, CELLS, case.eos1, case.eos2)
    profile = cProfile.Profile()
    t = 0.0
    for k in range(WARM_STEPS + PROFILED_STEPS):
        profiled = k >= WARM_STEPS
        if profiled:
            profile.enable()
        cells, info = step(cells, cfg, case.eos1, case.eos2, dx, dt_cap=cfg.t_final - t)
        to_primitive(cells[info.updated], case.eos1, case.eos2)
        if profiled:
            profile.disable()
        t += info.dt
    stats = pstats.Stats(profile).stats
    own = sum(calls for (_, _, name), (_, calls, *_) in stats.items()
              if name == "<method 'disable' of '_lsprof.Profiler' objects>")
    return (pstats.Stats(profile).total_calls - own) / PROFILED_STEPS


def main():
    for cid in CASES:
        print(f"case {cid} cells {CELLS}: {calls_per_step(cid):g} calls per step")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Print the exact number of Python-level calls per relaxation step of a run.

For cases 1, 2 and 4 at 200 cells the script calls ``scheme.run`` and
profiles steps 41 to 60 with ``cProfile``: the profile starts at the call of
step 41 and stops at the call of step 61, where the run is cut short.  So it
counts each step as ``run`` makes it, together with ``run``'s bookkeeping of
that step (splicing the updated window into its rows, the totals, the
minima, the conservation audit and the step record).  It prints the sum of
the call counts of the profiler's raw entries (``getstats``) divided by 20;
the wrapper that starts and stops the profile and the profiler's own
``disable`` call are not counted.  The raw entries are kept per code
object, so every function is counted: ``pstats`` keys them by file, line
and name, which merges the ``__init__`` of every dataclass, all compiled
from ``<string>``.  The count does not depend on the host or on timing, so
two runs give the same figure.  numpy ufunc calls and slot calls such as
indexing are not Python-level calls and are not counted.  Usage:

    PYTHONPATH=src python scripts/dispatch_count.py
"""
import cProfile

from bn_relax import get_case, scheme
from bn_relax.scheme import RunConfig

CASES = (1, 2, 4)
CELLS = 200
WARM_STEPS, PROFILED_STEPS = 40, 20


class _Profiled(Exception):
    """Raised at the step after the profiled ones, to end the run there."""


def calls_per_step(cid):
    case = get_case(cid)
    cfg = RunConfig(cells=CELLS, t_final=case.t_max, domain=case.domain, cfl=case.cfl)
    profile = cProfile.Profile()
    original = scheme.step
    started = 0

    def profiling(*args, **kwargs):
        nonlocal started
        started += 1
        if started == WARM_STEPS + 1:
            profile.enable()
        elif started == WARM_STEPS + PROFILED_STEPS + 1:
            profile.disable()
            raise _Profiled
        return original(*args, **kwargs)

    scheme.step = profiling
    try:
        scheme.run(case.initial, cfg, case.eos1, case.eos2)
        raise RuntimeError(f"case {cid} ended before step {WARM_STEPS + PROFILED_STEPS + 1}")
    except _Profiled:
        pass
    finally:
        scheme.step = original
    calls = sum(entry.callcount for entry in profile.getstats()
                if entry.code is not profiling.__code__
                and entry.code != "<method 'disable' of '_lsprof.Profiler' objects>")
    return calls / PROFILED_STEPS


def main():
    for cid in CASES:
        print(f"case {cid} cells {CELLS}: {calls_per_step(cid):g} calls per step")


if __name__ == "__main__":
    main()

"""Host speed: a fixed numpy kernel timed alongside the solver.

On a shared 2-vCPU host the speed of a core changes by up to 1.8x for
seconds to minutes at a time, and CPU time tracks wall time through it, so
the core runs slowly rather than being taken away (a busy hardware sibling
or a frequency change).  Raw run times then spread by about 35 % from one
run to the next.  The kernel below mixes the two kinds of numpy work the
solver does (dispatch-bound ufunc chains on a 201-element row, element-bound
ones on 3201 elements); scaling a step's wall time by ``REFERENCE_NS`` over
the kernel's latest time gives seconds at a reference host speed, and cuts
the run-to-run spread of a run's total to about 5 %.
"""
from __future__ import annotations

from time import perf_counter_ns

import numpy as np

#: kernel time on the reference host (Intel Xeon, 2 vCPUs) in its fast phase, ns
REFERENCE_NS = 260_000
#: the step timer samples the kernel at most this often
PERIOD_NS = 50_000_000

_SMALL = np.linspace(0.1, 2.0, 201)
_LARGE = np.linspace(0.1, 2.0, 3201)


def _chain(x, rounds):
    for _ in range(rounds):
        y = np.sqrt(x * x + 1.0)
        z = np.where(y > 1.5, y, -y)
        x = 0.5 * (x + z / y)
    return x


def kernel_ns(reps: int = 3) -> int:
    """Fastest of ``reps`` timings of the kernel, in ns."""
    best = None
    for _ in range(reps):
        t0 = perf_counter_ns()
        _chain(_SMALL, 20)
        _chain(_LARGE, 8)
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best

"""Spans and step timers around bn_relax functions, installed from outside.

Both are installed by pointing every ``bn_relax`` module attribute that is
bound to a traced function at a wrapper, and the ``EosParams`` methods at
wrappers on the class; the package source is never edited.  A name imported
into several modules (``scheme`` imports ``sample`` from ``riemann``, for
instance) is rebound in each of them, and the per-run span counts checked by
``analyse_run`` catch a binding that was missed.
"""
from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import hostspeed
from bn_relax import eos, riemann, rusanov, scheme, state

#: traced functions, as (span name, module, attribute)
FUNCTIONS = (
    ("scheme.run", scheme, "run"),
    ("scheme.step", scheme, "step"),
    ("scheme.select_parameters", scheme, "select_parameters"),
    ("scheme.cfl_dt", scheme, "cfl_dt"),
    ("scheme.assemble_fluxes", scheme, "assemble_fluxes"),
    ("riemann.sharp_quantities", riemann, "sharp_quantities"),
    ("riemann.build_solution", riemann, "build_solution"),
    ("riemann.solve_star", riemann, "solve_star"),
    ("riemann.sample", riemann, "sample"),
    ("state.to_primitive", state, "to_primitive"),
    ("state.validate_conserved", state, "validate_conserved"),
    ("rusanov.rusanov_step", rusanov, "rusanov_step"),
    ("rusanov.rusanov_fluxes", rusanov, "rusanov_fluxes"),
)
#: every EosParams method shares the one span name "eos"
EOS_METHODS = ("pressure", "internal_energy", "sound_speed", "lagrangian_sound_speed",
               "entropy", "temperature")
NAMES = tuple(name for name, _, _ in FUNCTIONS) + ("eos",)


def _count_predictors(args, result):
    """Predictor elements evaluated by one sharp_quantities call."""
    return np.size(result.u_cap), 0


def _count_jumps(args, result):
    """(interfaces solved, interfaces with an alpha1 jump) of one solve_star call."""
    nu = np.asarray(args[0].nu)
    return nu.size, int(np.count_nonzero(nu != 1.0))


COUNTERS = {"riemann.sharp_quantities": _count_predictors,
            "riemann.solve_star": _count_jumps}


@contextmanager
def _rebound(replacements):
    """Rebind functions across all loaded bn_relax modules, and restore them."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "bn_relax" or n.startswith("bn_relax.")]
    undo = []
    try:
        for original, wrapper in replacements:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


@contextmanager
def _eos_wrapped(make_wrapper):
    originals = {m: vars(eos.EosParams)[m] for m in EOS_METHODS}
    try:
        for m, fn in originals.items():
            setattr(eos.EosParams, m, make_wrapper(fn))
        yield
    finally:
        for m, fn in originals.items():
            setattr(eos.EosParams, m, fn)


class StepTimer:
    """One clock pair around each ``scheme.step`` and ``rusanov.rusanov_step`` call.

    Before a step, when ``hostspeed.PERIOD_NS`` have passed since the last
    sample, it also times the host-speed kernel.  Per step it records the
    entry and exit times, the ns spent sampling just before the entry, and
    the latest kernel time.
    """

    def __init__(self):
        self.entry = []
        self.exit = []
        self.pause = []
        self.kernel = []
        self._last = [0, hostspeed.REFERENCE_NS]   # time of the last sample, its kernel ns

    def clear(self):
        for samples in (self.entry, self.exit, self.pause, self.kernel):
            samples.clear()

    def _wrap(self, fn):
        entry, exit_, pause, kernel = self.entry, self.exit, self.pause, self.kernel
        last = self._last

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t = perf_counter_ns()
            if t - last[0] >= hostspeed.PERIOD_NS:
                last[1] = hostspeed.kernel_ns()
                last[0] = perf_counter_ns()
                pause.append(last[0] - t)
            else:
                pause.append(0)
            kernel.append(last[1])
            entry.append(perf_counter_ns())
            out = fn(*args, **kwargs)
            exit_.append(perf_counter_ns())
            return out
        return timed

    @contextmanager
    def installed(self):
        """Wrap the step functions as currently bound, outside any tracer spans."""
        with _rebound([(scheme.step, self._wrap(scheme.step)),
                       (rusanov.rusanov_step, self._wrap(rusanov.rusanov_step))]):
            yield


class Tracer:
    """Spans (name, start, end, parent) kept in flat in-memory lists.

    ``work`` and ``useful`` hold the counts of ``COUNTERS`` for the span's
    call, zero elsewhere.  Indices into the lists are span ids.
    """

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.work = []
        self.useful = []
        self._open = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, code, fn, counter=None):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        work, useful, open_ = self.work, self.useful, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(code)
            parent.append(open_[-1] if open_ else -1)
            end.append(0)
            work.append(0)
            useful.append(0)
            open_.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                open_.pop()
            if counter is not None:
                work[i], useful[i] = counter(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        code = {n: i for i, n in enumerate(NAMES)}
        wrappers = [(getattr(mod, attr), self._wrap(code[n], getattr(mod, attr), COUNTERS.get(n)))
                    for n, mod, attr in FUNCTIONS]
        with _rebound(wrappers), _eos_wrapped(lambda fn: self._wrap(code["eos"], fn)):
            yield

    def spans(self, lo, hi):
        """Arrays of the spans ``lo:hi``, with parents relative to ``lo``."""
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        return dict(name=np.asarray(self.name[lo:hi], dtype=np.int64),
                    parent=np.where(parent >= 0, parent - lo, -1),
                    start=np.asarray(self.start[lo:hi], dtype=np.int64),
                    end=np.asarray(self.end[lo:hi], dtype=np.int64),
                    work=np.asarray(self.work[lo:hi], dtype=np.int64),
                    useful=np.asarray(self.useful[lo:hi], dtype=np.int64))


# Span counts per step of one run: name -> (per step, extra per run).
# scheme.run converts the state once before marching, once per step and once
# at the end; Rusanov converts three more times inside each of its steps.
EXPECTED_COUNTS = {
    "relaxation": {"scheme.run": (0, 1), "scheme.step": (1, 0), "scheme.cfl_dt": (1, 0),
                   "scheme.select_parameters": (1, 0), "scheme.assemble_fluxes": (1, 0),
                   "riemann.sample": (2, 0), "state.to_primitive": (1, 2),
                   "rusanov.rusanov_step": (0, 0), "rusanov.rusanov_fluxes": (0, 0)},
    "rusanov": {"scheme.run": (0, 1), "scheme.step": (0, 0),
                "rusanov.rusanov_step": (1, 0), "rusanov.rusanov_fluxes": (1, 0),
                "state.to_primitive": (4, 2), "riemann.build_solution": (0, 0)},
}
# Direct children every span of the first name must have; each pair checks
# one module's binding of the child.
EXPECTED_CHILDREN = {
    ("state.to_primitive", "state.validate_conserved"): 1,
    ("scheme.step", "state.validate_conserved"): 1,
    ("scheme.assemble_fluxes", "riemann.sample"): 2,
    ("rusanov.rusanov_step", "state.to_primitive"): 1,
    ("rusanov.rusanov_step", "state.validate_conserved"): 1,
    ("rusanov.rusanov_step", "rusanov.rusanov_fluxes"): 1,
    ("rusanov.rusanov_fluxes", "state.to_primitive"): 2,
}


def analyse_run(sp, scheme_name, steps, outer_ns):
    """Self time and call count per name for one traced run, plus check failures.

    ``sp`` holds the spans of exactly one ``scheme.run`` call; ``outer_ns`` is
    the benchmark's own clock around that call.
    """
    n = sp["name"].size
    dur = sp["end"] - sp["start"]
    inner = sp["parent"] >= 0
    child_ns = np.bincount(sp["parent"][inner], weights=dur[inner], minlength=n)
    self_ns = dur - child_ns
    calls = np.bincount(sp["name"], minlength=len(NAMES))
    self_by_name = np.bincount(sp["name"], weights=self_ns, minlength=len(NAMES))
    code = {name: i for i, name in enumerate(NAMES)}

    problems = []
    roots = np.flatnonzero(~inner)
    if roots.tolist() != [0] or sp["name"][0] != code["scheme.run"]:
        problems.append(f"expected one scheme.run root span, found roots {roots.tolist()}")
    p = sp["parent"][inner]
    if np.any(sp["start"][inner] < sp["start"][p]) or np.any(sp["end"][inner] > sp["end"][p]):
        problems.append("a span ends outside its parent")
    if np.any(self_ns < 0):
        problems.append("overlapping child spans (negative self time)")
    if self_ns.sum() != dur[0] or abs(dur[0] - outer_ns) > 0.01 * outer_ns:
        problems.append(f"self times sum to {self_ns.sum():.0f} ns, root span {dur[0]} ns, "
                        f"traced wall {outer_ns} ns")
    for name, (per_step, extra) in EXPECTED_COUNTS[scheme_name].items():
        want = per_step * steps + extra
        if calls[code[name]] != want:
            problems.append(f"{name}: {calls[code[name]]} spans, expected {want}")
    for (parent_name, child_name), want in EXPECTED_CHILDREN.items():
        parents = np.flatnonzero(sp["name"] == code[parent_name])
        if parents.size == 0:
            continue
        mask = inner & (sp["name"] == code[child_name])
        per_parent = np.bincount(sp["parent"][mask], minlength=n)[parents]
        if np.any(per_parent != want):
            problems.append(f"{parent_name}: direct {child_name} children "
                            f"{sorted(set(per_parent.tolist()))}, expected {want}")
    return dict(self_ns=self_by_name, calls=calls,
                work={name: int(sp["work"][sp["name"] == code[name]].sum()) for name in COUNTERS},
                useful={name: int(sp["useful"][sp["name"] == code[name]].sum())
                        for name in COUNTERS},
                problems=problems)

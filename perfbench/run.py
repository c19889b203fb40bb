#!/usr/bin/env python3
"""bn-relax benchmark: time to solution, and cost against the Rusanov baseline.

    python3 perfbench/run.py --workload relax-coarse --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's runs (see ``workloads.py``) are marched with
``scheme.run`` in repeated passes until ``--seconds`` have been spent.  Every
run is checked: it reaches its final time, raises no solver or admissibility
error, conserves to machine precision, gives the same bits on every pass,
and its L1 error against ``reference.exact_profile`` stays below a ceiling.

Times are seconds at the reference host speed (see ``hostspeed.py``): each
step's wall time is scaled by the host-speed kernel timed alongside it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced passes with traced ones, whose spans give the per-layer
metrics and the tracing overhead.  A table of every metric with its unit and
sample count comes first; the last line of standard output is one JSON object.
"""
import os

# one BLAS/OpenMP thread: the solver is single-threaded, so a thread pool only adds noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns, process_time  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: per-step drift of each audited conserved total, relative to max(1, |total|)
CONSERVATION_TOL = 1e-12
#: ceiling on a run's mean normalized L1 error; a broken update lands far above it
L1_CEILING = 0.2
#: set-up probes per benchmark run; one more, unmeasured, compiles the bytecode first
SETUP_PROBES = 7

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed})
t1 = time.perf_counter()
import hostspeed
print(t1 - t0, hostspeed.kernel_ns())
"""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure_setup(name, seed):
    """Seconds to import bn_relax and build the workload, in fresh interpreters."""
    import hostspeed
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ.copy(),
                             capture_output=True, text=True, timeout=120, check=False)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr.strip()}")
        seconds, kernel = out.stdout.split()
        times.append(float(seconds) * hostspeed.REFERENCE_NS / int(kernel))
    return times[1:]


class Checker:
    """Output checks of every marched run; failures are counted, never dropped."""

    def __init__(self, runs):
        self.runs = runs
        self.first = {}          # run index -> final conserved state of its first pass
        self.l1 = {}             # run index -> {variable: normalized L1 error}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, i, result, error=None, extra=()):
        from bn_relax import harness, reference
        run = self.runs[i]
        self.attempted += 1
        problems = list(extra)
        if error is not None:
            problems.append(f"raised {error!r}")
        else:
            cfg = run.cfg
            if not math.isclose(result.t, cfg.t_final, rel_tol=1e-12):
                problems.append(f"stopped at t={result.t!r}, t_final={cfg.t_final!r}")
            drift = max(result.conservation_error.values())
            if not drift <= CONSERVATION_TOL:
                problems.append(f"conservation drift {drift:.3e} > {CONSERVATION_TOL:.0e}")
            final = result.cells.stack()
            if i not in self.first:
                self.first[i] = final
                dx = (cfg.domain[1] - cfg.domain[0]) / cfg.cells
                _, exact = reference.exact_profile(run.case, cfg.cells, result.t)
                rep = harness.l1_error(result.prim, exact, dx)
                self.l1[i] = {v: e for v, e in rep.errors.items() if v not in rep.undefined}
                mean = statistics.fmean(self.l1[i].values())
                if not mean <= L1_CEILING:
                    problems.append(f"mean L1 error {mean:.3e} > {L1_CEILING}")
            elif not (final == self.first[i]).all():
                problems.append("final state differs from the first pass")
        if problems:
            self.failed += 1
            self.messages.append(f"{run.label}: " + "; ".join(problems))

    def check_pairing(self):
        """cost-vs-rusanov: relaxation's rho1 error must not exceed Rusanov's."""
        by_scheme = {r.spec.scheme: i for i, r in enumerate(self.runs)}
        relax, rus = by_scheme["relaxation"], by_scheme["rusanov"]
        self.attempted += 1
        if not (relax in self.l1 and rus in self.l1
                and self.l1[relax]["rho1"] <= self.l1[rus]["rho1"]):
            self.failed += 1
            self.messages.append("relaxation rho1 error exceeds Rusanov's at 4x the cells")


def march_pass(runs, checker, timer, tracer=None):
    """March every run once; one record per run.

    ``wall_s`` is the run's wall time with the host-speed samples taken out
    and each step-boundary segment (start of ``scheme.run`` to the first step,
    step start to step start, last step to the return) scaled to the
    reference speed.  ``step_ms`` holds the scaled step latencies.
    """
    import hostspeed
    from bn_relax import riemann, scheme, state
    from bn_relax.eos import EosDomainError
    from tracer import analyse_run
    records = []
    for i, run in enumerate(runs):
        mark = len(tracer) if tracer is not None else 0
        timer.clear()
        result, error, problems = None, None, []
        t0 = perf_counter_ns()
        try:
            result = scheme.run(run.initial, run.cfg, run.case.eos1, run.case.eos2)
        except (riemann.SolverError, state.AdmissibilityError, EosDomainError) as exc:
            error = exc
        t1 = perf_counter_ns()
        rec = dict(raw_wall_s=(t1 - t0) * 1e-9, steps=0, wall_s=math.nan,
                   step_ms=np.array([]), scale=math.nan, pause_ns=0, trace=None)
        if result is not None and len(timer.exit) != result.steps:
            problems = [f"step timer saw {len(timer.exit)} steps, the run made {result.steps}"]
        elif result is not None:
            entry = np.asarray(timer.entry, dtype=np.int64)
            pause = np.asarray(timer.pause, dtype=np.int64)
            scale = hostspeed.REFERENCE_NS / np.asarray(timer.kernel, dtype=float)
            segments = np.diff(np.concatenate([[t0], entry, [t1]])).astype(float)
            segments[:-1] -= pause
            rec.update(steps=result.steps, scale=float(np.median(scale)),
                       pause_ns=int(pause.sum()),
                       wall_s=float(segments @ np.append(scale, scale[-1])) * 1e-9,
                       step_ms=(np.asarray(timer.exit, dtype=np.int64) - entry) * scale * 1e-6)
            if tracer is not None:
                rec["trace"] = analyse_run(tracer.spans(mark, len(tracer)), run.spec.scheme,
                                           result.steps, t1 - t0)
                problems = ["trace: " + msg for msg in rec["trace"]["problems"]]
        checker.record(i, result, error, problems)
        records.append(rec)
    return records


def _indices(runs, scheme_name):
    return [i for i, r in enumerate(runs) if r.spec.scheme == scheme_name]


def _row(value, unit, n, samples=None):
    """Table row: value, unit, sample count, and the samples' quartiles if given."""
    q1, q3 = quartiles(list(samples)) if samples is not None else (math.nan, math.nan)
    return value, unit, n, q1, q3


def e2e_metrics(runs, passes, setup, checker):
    relax, rus = _indices(runs, "relaxation"), _indices(runs, "rusanov")
    paired_cases = {runs[i].spec.case for i in rus}
    paired = [i for i in relax if runs[i].spec.case in paired_cases]
    walls = [sum(p[i]["wall_s"] for i in relax) for p in passes]
    base = [sum(p[i]["wall_s"] for i in rus) for p in passes]
    ratio = [b / sum(p[i]["wall_s"] for i in paired) for b, p in zip(base, passes)]
    cell_steps = sum(runs[i].cfg.cells * passes[0][i]["steps"] for i in relax)
    rates = [cell_steps / w for w in walls]
    # each step's median over the passes, so that a step scaled across a change
    # of host speed in one pass does not land in the tail
    step_ms = np.concatenate([np.median([p[i]["step_ms"] for p in passes
                                         if p[i]["steps"] == passes[0][i]["steps"]], axis=0)
                              for i in relax])
    n_steps = sum(p[i]["step_ms"].size for p in passes for i in relax)
    l1 = [e for i in relax for e in checker.l1.get(i, {}).values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _row(statistics.median(setup), "s", len(setup), setup),
        "wall_s": _row(statistics.median(walls), "s", len(walls), walls),
        "cell_steps_per_s": _row(statistics.median(rates), "cell-steps/s", len(rates), rates),
        "step_ms_p50": _row(float(np.median(step_ms)), "ms", n_steps, step_ms),
        "step_ms_p95": _row(float(np.percentile(step_ms, 95)), "ms", n_steps, step_ms),
        "l1_err": _row(statistics.fmean(l1) if l1 else math.nan, "rel", len(l1), l1),
        "peak_rss_mb": _row(rss_mb, "MB", 1),
        "speedup_vs_rusanov": _row(statistics.median(ratio), "x", len(ratio), ratio),
        "baseline_wall_s": _row(statistics.median(base), "s", len(base), base),
    }


def layer_metrics(runs, traced, untraced):
    """Per-layer metrics from the traced passes.

    ``rusanov.*`` come from the Rusanov runs, every other name from the
    relaxation runs; each divides by the cell-steps or steps of its runs.
    Self times are scaled to the reference host speed like the wall times,
    with the host-speed samples taken out of ``scheme.run``, and reported as
    the median over the traced passes.  Counts repeat exactly.
    """
    from tracer import COUNTERS, NAMES
    run_code = NAMES.index("scheme.run")
    first = traced[0]
    out = {}
    for k, name in enumerate(NAMES):
        idx = _indices(runs, "rusanov" if name.startswith("rusanov.") else "relaxation")
        steps = sum(first[i]["steps"] for i in idx)
        cell_steps = sum(first[i]["steps"] * runs[i].cfg.cells for i in idx)
        per_pass = [sum((p[i]["trace"]["self_ns"][k] - (p[i]["pause_ns"] if k == run_code else 0))
                        * p[i]["scale"] for i in idx) / cell_steps for p in traced]
        out[f"{name}.self_ns_per_cell_step"] = _row(statistics.median(per_pass), "ns/cell-step",
                                                    len(per_pass), per_pass)
        calls = sum(first[i]["trace"]["calls"][k] for i in idx)
        out[f"{name}.calls_per_step"] = _row(calls / steps, "1/step", len(traced))
    relax = _indices(runs, "relaxation")
    interfaces = sum(first[i]["steps"] * (runs[i].cfg.cells + 1) for i in relax)
    work = {c: sum(first[i]["trace"]["work"][c] for i in relax) for c in COUNTERS}
    useful = {c: sum(first[i]["trace"]["useful"][c] for i in relax) for c in COUNTERS}
    solved = work["riemann.solve_star"]
    out["riemann.sharp_quantities.evals_per_interface"] = _row(
        work["riemann.sharp_quantities"] / interfaces, "1/interface", len(traced))
    out["riemann.solve_star.jump_fraction"] = _row(
        useful["riemann.solve_star"] / solved if solved else math.nan, "fraction", len(traced))
    out["scheme.run.steps"] = _row(sum(first[i]["steps"] for i in relax), "count", len(traced))
    traced_wall = statistics.median(sum(r["wall_s"] for r in p) for p in traced)
    untraced_wall = statistics.median(sum(r["wall_s"] for r in p) for p in untraced)
    out["trace.overhead_frac"] = _row(traced_wall / untraced_wall - 1.0, "fraction",
                                      len(traced) + len(untraced))
    return out


def print_table(rows):
    print(f"{'metric':48s} {'value':>14s} {'unit':>13s} {'n':>6s} {'q1':>12s} {'q3':>12s}")
    for name, (value, unit, n, q1, q3) in rows.items():
        print(f"{name:48s} {value:14.6g} {unit:>13s} {n:6d} {q1:12.6g} {q3:12.6g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bn_relax" / "__init__.py").is_file():
        print(f"error: no bn_relax package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    import bn_relax
    if Path(bn_relax.__file__).resolve().parent != (SRC / "bn_relax").resolve():
        print(f"error: bn_relax imported from {bn_relax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from bn_relax import scheme

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    runs = workloads.build(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs: {', '.join(r.label for r in runs)}")

    # warm-up: every run on a small mesh, untimed, so lazy set-up is not measured
    for run in runs:
        cfg = scheme.RunConfig(cells=32, t_final=run.cfg.t_final, domain=run.cfg.domain,
                               cfl=run.cfg.cfl, scheme=run.cfg.scheme)
        scheme.run(run.initial, cfg, run.case.eos1, run.case.eos2)

    checker = Checker(runs)
    timer, spans = tracing.StepTimer(), tracing.Tracer()
    untraced, traced = [], []
    cpu_s = wall_s = 0.0
    start = perf_counter()
    while True:
        t0, c0 = perf_counter(), process_time()
        if args.trace and len(untraced) > len(traced):
            with spans.installed(), timer.installed():
                traced.append(march_pass(runs, checker, timer, spans))
        else:
            with timer.installed():
                untraced.append(march_pass(runs, checker, timer))
            cpu_s += process_time() - c0
            wall_s += perf_counter() - t0
        elapsed = perf_counter() - start
        if (traced or not args.trace) and elapsed + 0.5 * (perf_counter() - t0) >= args.seconds:
            break
    if args.workload == "cost-vs-rusanov":
        checker.check_pairing()

    if args.trace:
        rows = layer_metrics(runs, traced, untraced)
        print_table(rows)
        relax_ns = {name: rows[f"{name}.self_ns_per_cell_step"][0] for name in tracing.NAMES
                    if not name.startswith("rusanov.")}
        total = sum(relax_ns.values())
        print("share of relaxation self time: " + ", ".join(
            f"{name} {v / total:.1%}" for name, v in relax_ns.items()))
    else:
        rows = e2e_metrics(runs, untraced, setup, checker)
        print_table(rows)
    for scheme_name in ("relaxation", "rusanov"):
        raw = [sum(p[i]["raw_wall_s"] for i in _indices(runs, scheme_name)) for p in untraced]
        q1, q3 = quartiles(raw)
        print(f"{scheme_name} pass wall as measured: median {statistics.median(raw):.4g} s, "
              f"quartiles {q1:.4g}-{q3:.4g} s over {len(raw)} untraced passes")
    scales = [r["scale"] for p in untraced + traced for r in p]
    # CPU time that tracks wall time means a slow pass ran slowly on the core
    # rather than waiting for it
    print(f"host speed / reference: median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}-{max(scales):.3f}; untraced cpu/wall {cpu_s / wall_s:.4f}")
    for i, run in enumerate(runs):
        errs = checker.l1.get(i, {})
        print(f"{run.label}: L1 " + " ".join(f"{v}={e:.3e}" for v, e in errs.items()))
    for msg in checker.messages:
        print(f"FAILED {msg}")
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_frac {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted:.3g}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": row[0], "unit": row[1]} for k, row in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: run, exact, convergence, bench.  Exit codes: 0 success,
1 solver failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from . import harness
from .reference import exact_profile, get_case
from .state import AdmissibilityError
from .riemann import SolverError

_SCHEMES = {"relax": "relaxation", "relaxation": "relaxation", "rusanov": "rusanov"}


def _build_parser():
    parser = argparse.ArgumentParser(prog="bn-relax",
                                     description="1D two-phase flow benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a case and write its final profile")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", type=int, choices=range(1, 6), help="benchmark case id")
    src.add_argument("--config", help="JSON case file")
    p_run.add_argument("--scheme", choices=sorted(_SCHEMES), default="relax")
    p_run.add_argument("--cells", type=int, required=True)
    p_run.add_argument("--cfl", type=float, default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--log", default=None, help="write the per-step diagnostics CSV here")

    p_exact = sub.add_parser("exact", help="write the exact final-time profile")
    p_exact.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_exact.add_argument("--cells", type=int, required=True)
    p_exact.add_argument("--out", required=True)

    p_conv = sub.add_parser("convergence", help="mesh-refinement error study")
    p_conv.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_conv.add_argument("--scheme", choices=sorted(_SCHEMES), default="relax")
    p_conv.add_argument("--levels", type=int, required=True,
                        help="number of meshes, 100 * 2**n cells for n < levels")
    p_conv.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="error-vs-CPU comparison of both schemes")
    p_bench.add_argument("--case", type=int, choices=range(1, 6), required=True)
    p_bench.add_argument("--levels", type=int, required=True)
    p_bench.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2

    try:
        if args.command == "run":
            case = get_case(args.case) if args.case else harness.load_case_json(args.config)
            result = harness.run_case(case, _SCHEMES[args.scheme], args.cells, cfl=args.cfl)
            harness.write_profile_csv(args.out, result.x, result.prim)
            if args.log:
                harness.write_diagnostics_csv(args.log, result.records)
            print(f"wrote {args.out}: {args.cells} cells, {result.steps} steps, "
                  f"t={result.t:.6g}, wall={result.wall_time:.3f}s")
        elif args.command == "exact":
            case = get_case(args.case)
            x, prof = exact_profile(case, args.cells, case.t_max)
            harness.write_profile_csv(args.out, x, prof)
            print(f"wrote {args.out}: exact case {args.case} at t={case.t_max}")
        else:
            case = get_case(args.case)
            levels = [100 * 2 ** n for n in range(args.levels)]
            if args.command == "convergence":
                reports = harness.convergence_study(case, _SCHEMES[args.scheme], levels)
                harness.write_convergence_csv(args.out, reports)
                print(f"wrote {args.out}: levels {levels}")
            else:
                rows = harness.bench(case, levels)
                harness.write_bench_csv(args.out, rows)
                print(f"wrote {args.out}: {len(rows)} rows")
    except (SolverError, AdmissibilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

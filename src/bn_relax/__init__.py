"""Relaxation finite-volume solver for the 1D Baer-Nunziato two-phase flow model."""

from .eos import EosDomainError, EosParams
from .harness import (ErrorReport, bench, case_error, convergence_study, l1_error,
                      load_case_json, run_case, write_profile_csv)
from .reference import ExactWaveFan, TestCase, exact_profile, exact_sample, get_case
from .riemann import (FixedPointContext, RelaxParams, RelaxRiemannSolution, SharpQuantities,
                      SolverError, WaveOrdering, build_solution, check_pair, fixed_point_context,
                      interface_pair, region_tables, sample, sharp_quantities, solve_star)
from .rusanov import rusanov_fluxes, rusanov_step
from .scheme import (InitialData, RunConfig, RunResult, assemble_fluxes, cfl_dt, run,
                     select_parameters, step)
from .state import (AdmissibilityError, ConservedState, PrimitiveState, VARIABLES,
                    max_abs_eigenvalue, to_conserved, to_primitive, validate_conserved,
                    validate_primitive)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Conservative and primitive state vectors for the seven-equation model.

Fields hold either scalars or equal-length numpy arrays, so the same types
serve single states and whole grids.  The phase-2 fraction is always the
complement ``1 - alpha1``: saturation cannot be violated by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eos import EosParams

#: order of the primitive variables in profiles and CSV files
VARIABLES = ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")
#: rows of the density, velocity and pressure of both phases, phase 1 first,
#: in a stack of primitive variables in ``VARIABLES`` order; slices, so that
#: they index views
RHO, U, P = slice(1, 5, 3), slice(2, 6, 3), slice(3, 7, 3)
#: the same rows as one (3, 2) index: a ``take`` of it along the variable
#: axis gathers (rho, u, p) of both phases at once
RHO_U_P = np.array([[1, 4], [2, 5], [3, 6]])


class AdmissibilityError(ValueError):
    """A state left the admissible region.

    ``what`` names the violated invariant, ``index`` the first entry that
    violates it and ``where`` the check's context; the message gives all three.
    """

    def __init__(self, what, index, where=""):
        super().__init__(f"{what} at index {index}" + (f" [{where}]" if where else ""))
        self.what, self.index, self.where = what, index, where

    def __reduce__(self):
        return type(self), (self.what, self.index, self.where)


@dataclass(frozen=True)
class PrimitiveState:
    alpha1: np.ndarray
    rho1: np.ndarray
    u1: np.ndarray
    p1: np.ndarray
    rho2: np.ndarray
    u2: np.ndarray
    p2: np.ndarray

    def mirrored(self):
        """Same state with both velocities negated."""
        return PrimitiveState(self.alpha1, self.rho1, -self.u1, self.p1,
                              self.rho2, -self.u2, self.p2)

    def astuple(self):
        """The fields in ``VARIABLES`` order, not copied."""
        return self.alpha1, self.rho1, self.u1, self.p1, self.rho2, self.u2, self.p2

    def stack(self):
        return np.stack([np.asarray(getattr(self, v), dtype=float) for v in VARIABLES])

    def __getitem__(self, idx):
        return PrimitiveState(*(np.asarray(getattr(self, v))[idx] for v in VARIABLES))


@dataclass(frozen=True)
class ConservedState:
    """(alpha1, alpha_k rho_k, alpha_k rho_k u_k, alpha_k rho_k E_k) for k = 1, 2."""

    alpha1: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray

    _FIELDS = ("alpha1", "m1", "m2", "q1", "q2", "eta1", "eta2")

    def astuple(self):
        """The fields in ``_FIELDS`` order, not copied."""
        return self.alpha1, self.m1, self.m2, self.q1, self.q2, self.eta1, self.eta2

    def stack(self):
        return np.stack([np.asarray(getattr(self, f), dtype=float) for f in self._FIELDS])

    def __getitem__(self, idx):
        return ConservedState(*(np.asarray(getattr(self, f))[idx] for f in self._FIELDS))


def _rows(fields):
    """The fields of a state (or of several, one after the other) as one
    (len(fields), k) float array, broadcast to one shape first where their
    shapes differ."""
    if len({getattr(v, "shape", ()) for v in fields}) > 1:
        fields = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in fields))
    rows = np.array(fields, dtype=float)
    return rows.reshape(rows.shape[0], -1)


def _first_failure(ok, checks, where):
    """The error of a table ``ok`` of one row per check, in the order of
    their messages ``checks``: its first failing row at its first failing index."""
    row, index = np.argwhere(~ok)[0]
    return AdmissibilityError(checks[row], int(index), where)


# Each check is written ``x > bound`` or ``x < bound`` so that NaN fails it.

@lru_cache(maxsize=16)
def _primitive_bounds(p_inf1: float, p_inf2: float):
    """The primitive domain of a pair of phases with the given ``p_inf``, as
    open lower and upper bounds of each primitive variable, (7, 1) columns:
    alpha1 in (0, 1), rho > 0, p > -p_inf and every entry finite.  ``p >
    -p_inf`` holds exactly where ``p + p_inf > 0`` does.  Keyed on the
    floats, which hash without a Python-level call."""
    lower, upper = np.full((7, 1), -np.inf), np.full((7, 1), np.inf)
    lower[0], upper[0] = 0.0, 1.0
    lower[RHO] = 0.0
    lower[P] = -np.array([[p_inf1], [p_inf2]])
    for c in (lower, upper):
        c.flags.writeable = False
    return lower, upper


#: the checks of ``validate_primitive`` in their order, and their rows of the
#: comparisons with ``_primitive_bounds`` stacked as (above the lower bound,
#: within both): alpha1 within both, densities and then pressures above,
#: then every field but alpha1 within both.  Once the positivity rows pass,
#: a density or pressure below its upper bound is finite.
_PRIMITIVE_CHECKS = ("alpha1 outside (0,1)", "non-positive rho1", "non-positive rho2",
                     "phase 1: p + p_inf <= 0 (complex sound speed)",
                     "phase 2: p + p_inf <= 0 (complex sound speed)",
                     *(f"non-finite {name}" for name in VARIABLES[1:]))
_PRIMITIVE_ROWS = np.array([7, 1, 4, 3, 6, 8, 9, 10, 11, 12, 13])


def validate_primitive(w: PrimitiveState, eos1: EosParams, eos2: EosParams, where: str = ""):
    """Raise AdmissibilityError unless every entry of ``w`` is admissible.

    Checks, in order: alpha1 in (0,1), positive densities, positive ``p +
    p_inf``, and then finite densities, velocities and pressures.  The error
    names the first failing check and its first failing index.
    """
    s = _rows(w.astuple())
    lower, upper = _primitive_bounds(eos1.p_inf, eos2.p_inf)
    above = s > lower
    ok = np.concatenate((above, above & (s < upper)))[_PRIMITIVE_ROWS]
    if not ok.all():
        raise _first_failure(ok, _PRIMITIVE_CHECKS, where)


#: the checks of ``validate_conserved`` in their order, one row each of its table
_CONSERVED_CHECKS = ("alpha1 outside (0,1)",
                     "non-positive partial mass m1", "non-positive partial mass m2",
                     "non-positive internal energy, phase 1",
                     "rho e <= p_inf (sound speed loss), phase 1",
                     "non-positive internal energy, phase 2",
                     "rho e <= p_inf (sound speed loss), phase 2",
                     "non-finite m1", "non-finite m2", "non-finite eta1", "non-finite eta2",
                     "non-finite rho e, phase 1", "non-finite rho e, phase 2")
#: the rows of the fields' finiteness that start that table: its rows 7-10
#: are the finiteness checks of m1, m2, eta1 and eta2, the others are overwritten
_CONSERVED_GATHER = np.array([0, 1, 2, 3, 4, 5, 6, 1, 2, 5, 6, 5, 6])


def validate_conserved(u: ConservedState, eos1: EosParams, eos2: EosParams, where: str = ""):
    """Raise AdmissibilityError unless every entry of ``u`` is admissible.

    Checks, in order: alpha1 in (0,1), positive partial masses, for each
    phase a positive partial internal energy and, for stiffened gas, the
    stricter ``rho_k e_k > p_inf_k`` needed for real sound speeds, finite
    partial masses and energies, and a finite ``rho_k e_k`` of each phase,
    which a tiny fraction holding a huge energy overflows: the rows of one
    table (those of alpha1 and the masses, which the others divide by,
    reduced first); the error names the first failing check and its first
    failing index.  The partial momenta need no check of their own: with
    finite positive masses and finite energies an infinite momentum gives an
    internal energy of -inf, and NaN propagates.
    """
    s = _rows(u.astuple())
    ok = np.isfinite(s)[_CONSERVED_GATHER]
    ok[:3] = s[:3] > 0.0
    ok[0] &= s[0] < 1.0
    # one C-level reduction: the check runs twice a step
    if not np.logical_and.reduce(ok[:3], axis=None):
        raise _first_failure(ok, _CONSERVED_CHECKS, where)
    # a huge finite momentum overflows to -inf, and inf - inf gives NaN:
    # both fail the check below, so the warnings are not let out; so does
    # rho_k e_k = (alpha_k rho_k e_k) / alpha_k, which overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
        eint = s[5:7] - 0.5 * s[3:5] * s[3:5] / s[1:3]  # alpha_k rho_k e_k
        rho_e = eint / np.array([s[0], 1.0 - s[0]])
    ok[3:7:2] = eint > 0.0
    if eos1.p_inf > 0.0 or eos2.p_inf > 0.0:
        # for a phase with p_inf_k = 0 and alpha1 in (0, 1) this row repeats
        # eint > 0
        ok[4:7:2] = rho_e > [[eos1.p_inf], [eos2.p_inf]]
    else:
        ok[4:7:2] = True  # with p_inf_k = 0 the row would repeat eint > 0
    ok[11:] = rho_e < np.inf
    if not ok.all():
        raise _first_failure(ok, _CONSERVED_CHECKS, where)


def to_conserved(w: PrimitiveState, eos1: EosParams, eos2: EosParams) -> ConservedState:
    """Primitive -> conservative conversion; validates the input."""
    validate_primitive(w, eos1, eos2)
    alpha1 = np.asarray(w.alpha1, dtype=float)
    alpha2 = 1.0 - alpha1
    m1 = alpha1 * w.rho1
    m2 = alpha2 * w.rho2
    e1 = eos1.internal_energy(w.rho1, w.p1)
    e2 = eos2.internal_energy(w.rho2, w.p2)
    return ConservedState(
        alpha1=alpha1, m1=m1, m2=m2,
        q1=m1 * w.u1, q2=m2 * w.u2,
        eta1=m1 * (e1 + 0.5 * np.asarray(w.u1) ** 2),
        eta2=m2 * (e2 + 0.5 * np.asarray(w.u2) ** 2),
    )


def to_primitive(u: ConservedState, eos1: EosParams, eos2: EosParams) -> PrimitiveState:
    """Conservative -> primitive conversion; validates the input."""
    validate_conserved(u, eos1, eos2)
    alpha1 = np.asarray(u.alpha1, dtype=float)
    rho1 = u.m1 / alpha1
    rho2 = u.m2 / (1.0 - alpha1)
    u1 = u.q1 / u.m1
    u2 = u.q2 / u.m2
    e1 = u.eta1 / u.m1 - 0.5 * u1 * u1
    e2 = u.eta2 / u.m2 - 0.5 * u2 * u2
    return PrimitiveState(
        alpha1=alpha1, rho1=rho1, u1=u1, p1=eos1.pressure(rho1, e1),
        rho2=rho2, u2=u2, p2=eos2.pressure(rho2, e2),
    )


def max_abs_eigenvalue(w: PrimitiveState, eos1: EosParams, eos2: EosParams):
    """max over both phases of |u_k| + c_k, the spectral radius bound."""
    c1 = eos1.sound_speed(w.rho1, w.p1)
    c2 = eos2.sound_speed(w.rho2, w.p2)
    return np.maximum(np.abs(w.u1) + c1, np.abs(w.u2) + c2)

"""Conservative and primitive state vectors for the seven-equation model.

Fields hold either scalars or equal-length numpy arrays, so the same types
serve single states and whole grids.  The phase-2 fraction is always the
complement ``1 - alpha1``: saturation cannot be violated by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eos import EosParams, phase_columns, pressure_of

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
        """The fields in ``VARIABLES`` order as one float array, (7,) plus
        their broadcast shape."""
        return _stacked(self.astuple())

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
        """The conserved stack: the fields in ``_FIELDS`` order as one float
        array, (7,) plus their broadcast shape."""
        return _stacked(self.astuple())

    def __array__(self, dtype=None, copy=None):
        """The ``stack()``, so that a state reads as its conserved stack
        wherever one is taken (``np.asarray(u, dtype=float)``).  The stack
        is a new array, so ``copy=False`` cannot be met."""
        if copy is False:
            raise ValueError("a ConservedState stacks its fields into a new array")
        s = self.stack()
        return s if dtype is None else s.astype(dtype, copy=False)

    def __getitem__(self, idx):
        return ConservedState(*(np.asarray(getattr(self, f))[idx] for f in self._FIELDS))


def _stacked(fields):
    """The fields of a state (or of several, one after the other) as one
    float array, (len(fields),) plus their shape, broadcast to one shape
    first where their shapes differ."""
    if len({getattr(v, "shape", ()) for v in fields}) > 1:
        fields = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in fields))
    return np.array(fields, dtype=float)


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
    s = w.stack().reshape(7, -1)
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


def validate_conserved(u, eos1: EosParams, eos2: EosParams, where: str = ""):
    """Raise AdmissibilityError unless every entry of ``u``, a conserved
    stack ((7, k) or (7,) floats, read as they are, not copied) or a
    ``ConservedState``, is admissible; return the densities, velocities and
    pressures of its k entries that it checked, each (2, k) with phase 1
    first, for ``to_primitive``.

    They are formed once, with the specific internal energy ``eta / m -
    u^2 / 2``, and checked as the rows of one table, in order: alpha1 in
    (0,1) and positive partial masses (reduced first: the others divide by
    them), for each phase a positive energy and ``p > -p_inf`` (a real sound
    speed, as ``validate_primitive`` reads it), finite partial masses and
    energies, and a finite ``rho e`` and pressure of each phase, which a
    tiny fraction holding a huge energy overflows.  The error names the
    first failing check and its first failing index.  A non-finite velocity
    gives a non-finite energy.
    """
    s = np.asarray(u, dtype=float).reshape(7, -1)
    ok = np.isfinite(s)[_CONSERVED_GATHER]
    ok[:3] = s[:3] > 0.0
    ok[0] &= s[0] < 1.0
    # one C-level reduction: the check runs at every conversion
    if not np.logical_and.reduce(ok[:3], axis=None):
        raise _first_failure(ok, _CONSERVED_CHECKS, where)
    gamma, p_inf = phase_columns(eos1, eos2)
    # an overflow to inf, or NaN from inf - inf or inf * 0, fails a row below
    with np.errstate(over="ignore", invalid="ignore"):
        rho = s[1:3] / np.array([s[0], 1.0 - s[0]])
        vel = s[3:5] / s[1:3]
        e = s[5:7] / s[1:3] - 0.5 * vel * vel
        p = pressure_of(rho, e, gamma, p_inf)
        ok[11:] = (rho * e < np.inf) & (p < np.inf)
    ok[3:7:2] = e > 0.0
    ok[4:7:2] = p > -p_inf
    if not ok.all():
        # an infinite mass gives e = 0 and p = NaN: its own row reports it
        ok[3:7] |= ~ok[[7, 7, 8, 8]]
        raise _first_failure(ok, _CONSERVED_CHECKS, where)
    return rho, vel, p


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


def to_primitive(u, eos1: EosParams, eos2: EosParams) -> PrimitiveState:
    """Conservative -> primitive conversion of a conserved stack or a
    ``ConservedState`` ``u``, as ``validate_conserved`` reads it: alpha1, a
    view of its row, and views of the primitives that ``validate_conserved``
    formed and checked (scalars for a (7,) stack or a state of scalars)."""
    s = np.asarray(u, dtype=float)
    rho, vel, p = validate_conserved(s, eos1, eos2)
    if s.ndim == 1:
        rho, vel, p = rho[:, 0], vel[:, 0], p[:, 0]
    return PrimitiveState(s[0], rho[0], vel[0], p[0], rho[1], vel[1], p[1])


def max_abs_eigenvalue(w: PrimitiveState, eos1: EosParams, eos2: EosParams):
    """max over both phases of |u_k| + c_k, the spectral radius bound."""
    c1 = eos1.sound_speed(w.rho1, w.p1)
    c2 = eos2.sound_speed(w.rho2, w.p2)
    return np.maximum(np.abs(w.u1) + c1, np.abs(w.u2) + c2)

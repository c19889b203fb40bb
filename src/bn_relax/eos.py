"""Stiffened-gas equation of state (ideal gas is the ``p_inf = 0`` case).

The pressure law is ``p = (gamma - 1) rho e - gamma p_inf``.  Real sound
speeds require ``rho e > p_inf``, which is stricter than positivity of the
internal energy when ``p_inf > 0``.  The entropy returned here is the
mathematical (convex, dissipated) one; the physical entropy is its negative.

The formulas of ``p(rho, e)``, ``e(rho, p)``, ``c^2`` and ``rho c`` live in
module-level kernels that take ``gamma`` and ``p_inf`` as arguments, so one
evaluation serves a stack of both phases with ``gamma`` and ``p_inf`` as
(2, 1) columns (``phase_columns``).  The kernels check nothing: outside the
domain they return NaN, inf or a wrong sign.  ``state.validate_conserved``
checks the pressures it forms with ``pressure_of``; the relaxation solver
calls the others on rows it accepted or, for the public entry points, that
``riemann.check_pair`` checked.  Every other caller (Rusanov, users) uses
the checked ``EosParams`` methods, which call the same kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def pressure_of(rho, e, gamma, p_inf):
    """Unchecked pressure ``(gamma - 1) rho e - gamma p_inf``."""
    return (gamma - 1.0) * rho * e - gamma * p_inf


def internal_energy_of(rho, p, gamma, p_inf):
    """Unchecked specific internal energy ``(p + gamma p_inf) / ((gamma - 1) rho)``."""
    return (p + gamma * p_inf) / ((gamma - 1.0) * rho)


def sound_speed_squared_of(rho, p, gamma, p_inf):
    """Unchecked ``c^2 = gamma (p + p_inf) / rho``."""
    return gamma * (p + p_inf) / rho


def lagrangian_sound_speed_of(rho, p, gamma, p_inf):
    """Unchecked ``rho c``, the lower bound of a phase's relaxation parameter."""
    return rho * np.sqrt(sound_speed_squared_of(rho, p, gamma, p_inf))


class EosDomainError(ValueError):
    """Raised when an EOS evaluation leaves the admissible thermodynamic domain."""


@dataclass(frozen=True)
class EosParams:
    """Stiffened-gas parameters for one phase.

    Parameters
    ----------
    gamma : float
        Ratio of specific heats, finite and > 1.
    p_inf : float
        Pressure offset, finite and >= 0 (0 for an ideal gas).

    The entropy and temperature are those of a unit heat capacity at
    constant volume and zero reference entropy.  Each method raises
    EosDomainError outside its domain.  Every check requires ``x > bound``,
    or ``np.isfinite``, of every entry, so that NaN, which compares false,
    fails it.
    """

    gamma: float
    p_inf: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if not 0.0 <= self.p_inf < math.inf:
            raise ValueError(f"p_inf must be finite and >= 0, got {self.p_inf}")

    def pressure(self, rho, e):
        """Pressure from density and specific internal energy."""
        rho = np.asarray(rho, dtype=float)
        e = np.asarray(e, dtype=float)
        if not np.all((rho > 0.0) & np.isfinite(e)):
            raise EosDomainError("pressure: non-positive density or non-finite energy")
        return pressure_of(rho, e, self.gamma, self.p_inf)

    def internal_energy(self, rho, p):
        """Specific internal energy from density and pressure."""
        rho = np.asarray(rho, dtype=float)
        p = np.asarray(p, dtype=float)
        if not np.all((rho > 0.0) & np.isfinite(p)):
            raise EosDomainError("internal_energy: non-positive density or non-finite pressure")
        return internal_energy_of(rho, p, self.gamma, self.p_inf)

    def sound_speed(self, rho, p):
        """Speed of sound ``sqrt(gamma (p + p_inf) / rho)``."""
        rho = np.asarray(rho, dtype=float)
        p = np.asarray(p, dtype=float)
        if not np.all(rho > 0.0):
            raise EosDomainError("sound_speed: non-positive density")
        arg = sound_speed_squared_of(rho, p, self.gamma, self.p_inf)
        if not np.all(arg > 0.0):
            raise EosDomainError(
                "sound_speed: complex sound speed (p + p_inf <= 0, hyperbolicity lost)"
            )
        return np.sqrt(arg)

    def lagrangian_sound_speed(self, rho, p):
        """``rho * c``, the lower bound for the relaxation parameter of this phase."""
        return np.asarray(rho, dtype=float) * self.sound_speed(rho, p)

    def _density_and_excess(self, rho, e, method):
        """``rho`` and ``rho e - p_inf`` as float arrays, checked in that
        order for the domain of ``entropy`` and ``temperature``: both must
        be positive.  ``method`` names the caller in the message."""
        rho = np.asarray(rho, dtype=float)
        e = np.asarray(e, dtype=float)
        if not np.all(rho > 0.0):
            raise EosDomainError(f"{method}: non-positive density")
        arg = rho * e - self.p_inf
        if not np.all(arg > 0.0):
            raise EosDomainError(f"{method}: rho e <= p_inf (outside hyperbolicity region)")
        return rho, arg

    def entropy(self, rho, e):
        """Mathematical entropy ``-log((rho e - p_inf) / rho**gamma)``.

        Decreasing in ``e`` at fixed ``rho`` (ds/de = -1/T < 0).
        """
        rho, arg = self._density_and_excess(rho, e, "entropy")
        return self.gamma * np.log(rho) - np.log(arg)

    def temperature(self, rho, e):
        """Positive integrating factor T with ds/de = -1/T."""
        rho, arg = self._density_and_excess(rho, e, "temperature")
        return arg / rho


@lru_cache(maxsize=16)
def phase_columns(eos1: EosParams, eos2: EosParams):
    """``(gamma, p_inf)`` of both phases as read-only (2, 1) columns, phase 1
    first: the parameters of a kernel evaluated on a (2, k) stack of both
    phases.  Kept per pair of phases, since every step asks for them."""
    columns = np.array([[eos1.gamma], [eos2.gamma]]), np.array([[eos1.p_inf], [eos2.p_inf]])
    for c in columns:
        c.flags.writeable = False
    return columns

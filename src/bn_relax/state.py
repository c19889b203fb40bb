"""Conservative and primitive state vectors for the seven-equation model.

Fields hold either scalars or equal-length numpy arrays, so the same types
serve single states and whole grids.  The phase-2 fraction is always the
complement ``1 - alpha1``: saturation cannot be violated by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eos import EosParams

#: order of the primitive variables in profiles and CSV files
VARIABLES = ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")


class AdmissibilityError(ValueError):
    """A state left the admissible region; message names the violated invariant."""


@dataclass(frozen=True)
class PrimitiveState:
    alpha1: np.ndarray
    rho1: np.ndarray
    u1: np.ndarray
    p1: np.ndarray
    rho2: np.ndarray
    u2: np.ndarray
    p2: np.ndarray

    @property
    def alpha2(self):
        return 1.0 - self.alpha1

    def mirrored(self):
        """Same state with both velocities negated."""
        return PrimitiveState(self.alpha1, self.rho1, -self.u1, self.p1,
                              self.rho2, -self.u2, self.p2)

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

    def stack(self):
        return np.stack([np.asarray(getattr(self, f), dtype=float) for f in self._FIELDS])

    @classmethod
    def from_stack(cls, arr):
        return cls(*arr)


def _first_bad(mask):
    return int(np.argmax(np.atleast_1d(mask)))


# Each check is written ``np.all(x > bound)`` so that NaN, which compares
# false, fails it; ``~(x > bound)`` marks the entries it reports.

def _check_alpha1(alpha1, ctx):
    a = np.asarray(alpha1, dtype=float)
    ok = (a > 0.0) & (a < 1.0)
    if not np.all(ok):
        raise AdmissibilityError(f"alpha1 outside (0,1) at index {_first_bad(~ok)}{ctx}")
    return a


def validate_primitive(w: PrimitiveState, eos1: EosParams, eos2: EosParams, where: str = ""):
    """Raise AdmissibilityError unless every entry of ``w`` is admissible."""
    ctx = f" [{where}]" if where else ""
    _check_alpha1(w.alpha1, ctx)
    for name, rho in (("rho1", w.rho1), ("rho2", w.rho2)):
        r = np.asarray(rho, dtype=float)
        if not np.all(r > 0.0):
            raise AdmissibilityError(f"non-positive {name} at index {_first_bad(~(r > 0))}{ctx}")
    for name, u in (("u1", w.u1), ("u2", w.u2)):
        finite = np.isfinite(u)
        if not np.all(finite):
            raise AdmissibilityError(f"non-finite {name} at index {_first_bad(~finite)}{ctx}")
    for name, rho, p, eos in (("phase 1", w.rho1, w.p1, eos1), ("phase 2", w.rho2, w.p2, eos2)):
        hyp = np.asarray(p, dtype=float) + eos.p_inf
        if not np.all(hyp > 0.0):
            raise AdmissibilityError(f"{name}: p + p_inf <= 0 (complex sound speed) at index "
                                     f"{_first_bad(~(hyp > 0))}{ctx}")


def validate_conserved(u: ConservedState, eos1: EosParams, eos2: EosParams, where: str = ""):
    """Raise AdmissibilityError unless every entry of ``u`` is admissible.

    Checks, in order: alpha1 in (0,1), positive partial masses, positive
    partial internal energies, and for stiffened gas the stricter
    ``rho_k e_k > p_inf_k`` needed for real sound speeds.
    """
    ctx = f" [{where}]" if where else ""
    a = _check_alpha1(u.alpha1, ctx)
    for name, m in (("m1", u.m1), ("m2", u.m2)):
        mv = np.asarray(m, dtype=float)
        if not np.all(mv > 0.0):
            raise AdmissibilityError(
                f"non-positive partial mass {name} at index {_first_bad(~(mv > 0))}{ctx}")
    for k, (m, q, eta, alpha, eos) in enumerate(
            ((u.m1, u.q1, u.eta1, a, eos1), (u.m2, u.q2, u.eta2, 1.0 - a, eos2)), start=1):
        m = np.asarray(m, dtype=float)
        q = np.asarray(q, dtype=float)
        eta = np.asarray(eta, dtype=float)
        eint = eta - 0.5 * q * q / m  # alpha_k rho_k e_k
        if not np.all(eint > 0.0):
            raise AdmissibilityError(
                f"non-positive internal energy, phase {k}, index {_first_bad(~(eint > 0))}{ctx}")
        if eos.p_inf > 0.0:
            # rho_k e_k = (alpha rho e) / alpha_k
            rho_e = eint / alpha
            if not np.all(rho_e > eos.p_inf):
                raise AdmissibilityError(
                    f"rho e <= p_inf (sound speed loss), phase {k}, "
                    f"index {_first_bad(~(rho_e > eos.p_inf))}{ctx}")


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

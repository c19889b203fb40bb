"""Rusanov (local Lax-Friedrichs) baseline for the nonconservative system.

The conservative part takes the standard central flux with spectral-radius
diffusion; the phase-fraction gradient terms use cell-centered coefficients
(u2, p1 of the cell) against the jump of interface-averaged alpha1.  This
variant is frozen here as the comparison baseline; it carries no positivity
or entropy guarantees, and failures on vanishing-phase data are a reportable
outcome rather than a bug.
"""
from __future__ import annotations

import numpy as np

from .eos import EosParams
from .scheme import MarchRows, RunConfig, StepInfo, _pad_edges
from .state import PrimitiveState, max_abs_eigenvalue, to_primitive, validate_conserved


def _physical_flux(w: PrimitiveState, eos1: EosParams, eos2: EosParams):
    al1 = np.asarray(w.alpha1, dtype=float)
    al2 = 1.0 - al1
    e1 = eos1.internal_energy(w.rho1, w.p1)
    e2 = eos2.internal_energy(w.rho2, w.p2)
    E1 = e1 + 0.5 * np.asarray(w.u1) ** 2
    E2 = e2 + 0.5 * np.asarray(w.u2) ** 2
    return np.stack([
        np.zeros_like(al1),
        al1 * w.rho1 * w.u1,
        al2 * w.rho2 * w.u2,
        al1 * (w.rho1 * w.u1 * w.u1 + w.p1),
        al2 * (w.rho2 * w.u2 * w.u2 + w.p2),
        al1 * (w.rho1 * E1 + w.p1) * w.u1,
        al2 * (w.rho2 * E2 + w.p2) * w.u2,
    ])


def rusanov_fluxes(uL, uR, eos1: EosParams, eos2: EosParams):
    """Central flux with local spectral-radius diffusion between the
    conserved stacks (or ``ConservedState``s) ``uL`` and ``uR``; returns
    (flux, r)."""
    wL = to_primitive(uL, eos1, eos2)
    wR = to_primitive(uR, eos1, eos2)
    r = np.maximum(max_abs_eigenvalue(wL, eos1, eos2), max_abs_eigenvalue(wR, eos1, eos2))
    flux = 0.5 * (_physical_flux(wL, eos1, eos2) + _physical_flux(wR, eos1, eos2)) \
        - 0.5 * r * np.subtract(uR, uL)
    return flux, r


def rusanov_step(rows: MarchRows, cfg: RunConfig, dt_cap: float = np.inf) -> StepInfo:
    """One explicit Rusanov update with transmissive boundaries of the
    march's rows ``rows`` (``MarchRows``, as for ``scheme.step``), on the
    mesh spacing ``cfg.dx``; dt is at most ``dt_cap``.

    Every cell is updated: the window of the returned ``StepInfo`` is the
    whole row, ``a = 0``, one flux serving as both the - and the + flux of
    its interface, so its ``updated`` is ``slice(0, n)``.  The time step
    takes the spectral radius of ``max_abs_eigenvalue``, and the ghost
    cells come from ``scheme._pad_edges``.  The step reads ``rows.u`` and
    writes nothing: its new conserved stack is ``StepInfo.new``, which the
    caller stores with ``rows.splice(info.updated, info.new)``.  A step that
    raises leaves the rows as they were.
    """
    (eos1, eos2), dx, u = rows.eos, cfg.dx, rows.u
    prim = to_primitive(u, eos1, eos2)
    smax = float(np.max(max_abs_eigenvalue(prim, eos1, eos2)))
    dt = min(cfg.cfl * dx / smax, dt_cap)
    lam = dt / dx

    upad = _pad_edges(u)
    n = u.shape[1]
    flux, _ = rusanov_fluxes(upad[:, :n + 1], upad[:, 1:], eos1, eos2)

    # centered treatment of the alpha1-gradient products, cell coefficients
    apad = upad[0]
    abar = 0.5 * (apad[:-1] + apad[1:])           # interface averages, n+1 of them
    dalpha = abar[1:] - abar[:-1]                 # per cell
    cvec = np.stack([prim.u2, np.zeros(n), np.zeros(n),
                     -prim.p1, prim.p1, -prim.p1 * prim.u2, prim.p1 * prim.u2])

    unew = u - lam * (flux[:, 1:] - flux[:, :-1]) - lam * cvec * dalpha
    validate_conserved(unew, eos1, eos2, where=f"rusanov post-step, dt={dt:.3e}")
    return StepInfo(dt=dt, fluxes=np.broadcast_to(flux, (2,) + flux.shape), a=0, new=unew)

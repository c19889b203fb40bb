"""Relaxation finite-volume scheme: parameter selection, fluxes, time marching.

The update is the two-flux form ``U_j^{n+1} = U_j - (dt/dx) (F-(U_j, U_{j+1})
- F+(U_{j-1}, U_j))``.  Components 1-5 of F-/F+ are the relaxation-system
flux traces at 0-/0+ plus the coupling-wave Dirac contribution on the side it
crosses; both energy components take the 0+ trace plus the upwinded
``u2* pi1*`` correction that restores total-energy conservation.  Partial
masses, mixture momentum and mixture energy are conservative by construction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eos import EosParams
from .riemann import (RelaxParams, RelaxRiemannSolution, SolverError, as_cellwise,
                      build_solution, classify_ordering, sample, sharp_quantities)
from .state import (VARIABLES, ConservedState, PrimitiveState, to_conserved, to_primitive,
                    validate_conserved)


#: inflation factor of the (1 + ETA)**k parameter ladders
ETA = 0.01
#: rungs each ladder may climb, and a2 retries each interface may take, before
#: selection reports the interface.  The cap turns a runaway search into a
#: diagnosable error; it bounds the growth of each parameter at
#: (1 + ETA)**MAX_INFLATIONS, and must accommodate locally supersonic relative
#: velocities (benchmark case 2 needs roughly a five-fold growth of a1 near the
#: strong right shock).
MAX_INFLATIONS = 1000


@dataclass(frozen=True)
class RunConfig:
    cells: int
    t_final: float
    domain: tuple = (-0.5, 0.5)
    cfl: float = 0.45
    scheme: str = "relaxation"
    entropy_audit: bool = False

    def __post_init__(self):
        if not 0.0 < self.cfl < 0.5:
            raise ValueError("cfl must lie in (0, 0.5)")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if self.scheme not in ("relaxation", "rusanov"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.t_final < 0.0:
            raise ValueError("t_final must be >= 0")


@dataclass(frozen=True)
class InterfaceFluxes:
    """Left/right numerical fluxes, shape (7, n_interfaces)."""

    f_minus: np.ndarray
    f_plus: np.ndarray


def _infeasible(which, wL, wR, j):
    return SolverError(
        f"non-subsonic or infeasible interface: {which} inflation cap exceeded at "
        f"interface {j}; left={_dump(wL, j)} right={_dump(wR, j)}")


def _tau2_ok(s, params):
    return (s.tau_sharp2_l > 0.0) & (s.tau_sharp2_r > 0.0)


def _existence_ok(s, params):
    _, ok = classify_ordering(s, params)
    return ok


def _climb_ladder(wL, wR, params: RelaxParams, bad, grow, holds) -> RelaxParams:
    """Advance a1 or a2 (``grow`` is 1 or 2) up its (1 + ETA)**k ladder on ``bad``.

    Each failing interface takes its first rung where ``holds(s, params)`` is
    true.  Rungs are evaluated in broadcast blocks, which reaches the same
    value as the one-rung-at-a-time loop without paying for the whole ladder
    when a low rung works.
    """
    idx = np.flatnonzero(bad)
    rungs = np.cumprod(np.full(MAX_INFLATIONS, 1.0 + ETA))
    chosen = np.full(idx.size, -1, dtype=np.int64)
    open_cols = np.arange(idx.size)
    block = 128
    for start in range(0, MAX_INFLATIONS, block):
        cols = idx[open_cols]
        sub_a1, sub_a2 = params.a1[cols], params.a2[cols]
        r = rungs[start:start + block, None]
        cand = RelaxParams(sub_a1 * r, sub_a2) if grow == 1 else RelaxParams(sub_a1, sub_a2 * r)
        ok = holds(sharp_quantities(wL[cols], wR[cols], cand), cand)
        hit = ok.any(axis=0)
        chosen[open_cols[hit]] = start + ok.argmax(axis=0)[hit]
        open_cols = open_cols[~hit]
        if open_cols.size == 0:
            break
    if open_cols.size:
        raise _infeasible(f"a{grow}", wL, wR, int(idx[open_cols[0]]))
    out = (params.a1 if grow == 1 else params.a2).copy()
    out[idx] = out[idx] * rungs[chosen]
    return RelaxParams(out, params.a2) if grow == 1 else RelaxParams(params.a1, out)


def select_parameters(wL: PrimitiveState, wR: PrimitiveState, eos1: EosParams, eos2: EosParams):
    """Pick per-interface (a1, a2) and return them with the solved Riemann problem.

    Starts from the Whitham-like bound (1 + ETA) max(rho c) over the two end
    states and climbs until three predicates hold at every interface:

    1. the tau predictors of phase 2 are positive (a2 climbs its ladder);
    2. the tau predictors of phase 1 are positive and the existence
       condition holds (a1 climbs its ladder);
    3. every intermediate specific volume of the solution is positive (a2 is
       multiplied by 1 + ETA, then 1 and 2 are checked again).

    Each interface climbs on its own, so its parameters do not depend on the
    rest of the row.  Any interface exceeding the rung cap is reported with
    its states.  Parameters and solution are one-dimensional, also for
    scalar input.
    """
    wL, wR = as_cellwise(wL), as_cellwise(wR)
    params = RelaxParams(
        (1.0 + ETA) * np.maximum(eos1.lagrangian_sound_speed(wL.rho1, wL.p1),
                                 eos1.lagrangian_sound_speed(wR.rho1, wR.p1)),
        (1.0 + ETA) * np.maximum(eos2.lagrangian_sound_speed(wL.rho2, wL.p2),
                                 eos2.lagrangian_sound_speed(wR.rho2, wR.p2)))
    retries = np.zeros(params.a2.shape, dtype=np.int64)
    while True:
        s = sharp_quantities(wL, wR, params)
        for grow, holds in ((2, _tau2_ok), (1, _existence_ok)):
            bad = ~holds(s, params)
            if np.any(bad):
                params = _climb_ladder(wL, wR, params, bad, grow, holds)
                s = sharp_quantities(wL, wR, params)
        sol = build_solution(wL, wR, eos1, eos2, params, precomputed=s)
        bad = (sol.tau1[1:4] <= 0.0).any(axis=0) | (sol.tau2[1:3] <= 0.0).any(axis=0)
        if not np.any(bad):
            return params, sol
        retries += bad
        if np.any(retries > MAX_INFLATIONS):
            raise _infeasible("a2", wL, wR, int(np.argmax(retries > MAX_INFLATIONS)))
        params = RelaxParams(params.a1, np.where(bad, params.a2 * (1.0 + ETA), params.a2))


def _dump(w: PrimitiveState, j):
    vals = {k: float(getattr(w, k)[j]) for k in VARIABLES}
    return "{" + ", ".join(f"{k}={v:.6g}" for k, v in vals.items()) + "}"


def assemble_fluxes(sol: RelaxRiemannSolution) -> InterfaceFluxes:
    """Numerical fluxes from a solved interface row."""
    wm = sample(sol, 0.0, side="-")
    wp = sample(sol, 0.0, side="+")

    def gflux(w):
        al1 = w.alpha1
        al2 = 1.0 - al1
        return (al1 * w.u1 / w.tau1,
                al2 * w.u2 / w.tau2,
                al1 * (w.u1 * w.u1 / w.tau1 + w.pi1),
                al2 * (w.u2 * w.u2 / w.tau2 + w.pi2),
                al1 * (w.E1 / w.tau1 + w.pi1) * w.u1,
                al2 * (w.E2 / w.tau2 + w.pi2) * w.u2)

    gm = gflux(wm)
    gp = gflux(wp)
    dal = sol.alpha1_r - sol.alpha1_l
    u2s = sol.u2_star
    pi1s = np.where(dal == 0.0, 0.0, sol.pi1_star)
    u2s_pos = np.maximum(u2s, 0.0)
    u2s_neg = np.minimum(u2s, 0.0)
    moving_left = (u2s < 0.0).astype(float)
    moving_right = (u2s > 0.0).astype(float)

    zeros = np.zeros_like(u2s)
    f_minus = np.stack([
        u2s_neg * dal,
        gm[0], gm[1],
        gm[2] - moving_left * pi1s * dal,
        gm[3] + moving_left * pi1s * dal,
        gp[4] - u2s_neg * pi1s * dal,
        gp[5] + u2s_neg * pi1s * dal,
    ])
    f_plus = np.stack([
        zeros - u2s_pos * dal,
        gp[0], gp[1],
        gp[2] + moving_right * pi1s * dal,
        gp[3] - moving_right * pi1s * dal,
        gp[4] + u2s_pos * pi1s * dal,
        gp[5] - u2s_pos * pi1s * dal,
    ])
    return InterfaceFluxes(f_minus=f_minus, f_plus=f_plus)


def interface_fluxes(wL: PrimitiveState, wR: PrimitiveState, eos1: EosParams,
                     eos2: EosParams) -> InterfaceFluxes:
    """Select parameters, solve, and assemble fluxes in one call."""
    _, sol = select_parameters(wL, wR, eos1, eos2)
    return assemble_fluxes(sol)


def cfl_dt(cells: PrimitiveState, params: RelaxParams, dx: float, cfl: float):
    """Time step from the relaxation-system speeds at every interface.

    ``params`` holds one entry per interface of the edge-padded grid
    (n_cells + 1 interfaces); interface j sits between padded cells j, j+1.
    """
    if not 0.0 < cfl < 0.5:
        raise ValueError("cfl must lie in (0, 0.5)")
    smax = 0.0
    for u, rho, a in ((cells.u1, cells.rho1, params.a1), (cells.u2, cells.rho2, params.a2)):
        u, tau = _pad_edges(u), 1.0 / _pad_edges(rho)
        smax = max(smax,
                   float(np.max(np.abs(u[:-1] - a * tau[:-1]))),
                   float(np.max(np.abs(u[1:] + a * tau[1:]))))
    if smax == 0.0:
        raise SolverError("fully degenerate field: zero wave speeds")
    return cfl * dx / smax


def _pad_edges(v):
    """Transmissive ghost cells of one field: replicate its edge values."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.concatenate([v[:1], v, v[-1:]])


def _pad(w: PrimitiveState) -> PrimitiveState:
    """Transmissive ghost cells of every field."""
    return PrimitiveState(*(_pad_edges(getattr(w, f)) for f in VARIABLES))


@dataclass
class StepInfo:
    dt: float
    fluxes: InterfaceFluxes
    sol: RelaxRiemannSolution | None = None


def step(cells: ConservedState, cfg: RunConfig, eos1: EosParams, eos2: EosParams,
         dx: float, dt_cap: float = np.inf, prim: PrimitiveState | None = None):
    """One explicit update with transmissive boundaries.

    Returns (updated cells, StepInfo).  Raises AdmissibilityError with the
    offending cell index if the post-state leaves the admissible region,
    which signals a bug or a CFL breach rather than a recoverable condition.
    """
    if prim is None:
        prim = to_primitive(cells, eos1, eos2)
    padded = _pad(prim)
    n = np.atleast_1d(cells.alpha1).shape[0]
    wl = padded[slice(0, n + 1)]
    wr = padded[slice(1, n + 2)]
    params, sol = select_parameters(wl, wr, eos1, eos2)
    dt = min(cfl_dt(prim, params, dx, cfg.cfl), dt_cap)
    fluxes = assemble_fluxes(sol)
    lam = dt / dx
    u = cells.stack()
    unew = u - lam * (fluxes.f_minus[:, 1:] - fluxes.f_plus[:, :-1])
    out = ConservedState.from_stack(unew)
    validate_conserved(out, eos1, eos2, where=f"post-step, dt={dt:.3e}")
    return out, StepInfo(dt=dt, fluxes=fluxes, sol=sol)


@dataclass(frozen=True)
class InitialData:
    """Riemann-type initial data: left state for x < x0, right state beyond."""

    x0: float
    left: PrimitiveState
    right: PrimitiveState


@dataclass
class StepRecord:
    step: int
    t: float
    dt: float
    mass1: float
    mass2: float
    momentum: float
    energy: float
    min_alpha1: float
    min_alpha2: float
    min_rho1: float
    min_rho2: float
    min_e1: float
    min_e2: float


@dataclass
class RunResult:
    x: np.ndarray
    cells: ConservedState
    prim: PrimitiveState
    t: float
    steps: int
    wall_time: float
    records: list
    conservation_error: dict
    entropy_slack: float  # most positive per-cell violation seen; -inf if not audited

    def profile(self) -> PrimitiveState:
        return self.prim


def _totals(u: ConservedState):
    return (float(np.sum(u.m1)), float(np.sum(u.m2)),
            float(np.sum(u.q1 + u.q2)), float(np.sum(u.eta1 + u.eta2)))


def _project_initial(init: InitialData, x_left, dx, n, eos1, eos2) -> ConservedState:
    """Cell averages of the two-state data (exact split in a straddling cell)."""
    uL = to_conserved(init.left, eos1, eos2).stack()
    uR = to_conserved(init.right, eos1, eos2).stack()
    edges = x_left + dx * np.arange(n + 1)
    frac_left = np.clip((init.x0 - edges[:-1]) / dx, 0.0, 1.0)
    u = uL[:, None] * frac_left + uR[:, None] * (1.0 - frac_left)
    return ConservedState.from_stack(u)


def run(initial: InitialData, cfg: RunConfig, eos1: EosParams, eos2: EosParams) -> RunResult:
    """March the scheme to ``cfg.t_final``; the last step lands on it exactly.

    Per step the record captures dt, the four conserved-family totals and the
    minima entering the admissibility proof.  Conservation of each family is
    audited against the fluxes through the two domain ends; with ``cfg.entropy_audit`` the
    per-cell discrete entropy balance is accumulated as well (relaxation
    scheme only).
    """
    from . import rusanov  # deferred: rusanov reuses this runner

    x_left, x_right = cfg.domain
    dx = (x_right - x_left) / cfg.cells
    x = x_left + dx * (np.arange(cfg.cells) + 0.5)
    cells = _project_initial(initial, x_left, dx, cfg.cells, eos1, eos2)
    validate_conserved(cells, eos1, eos2, where="initial data")

    records = []
    cons_err = {"mass1": 0.0, "mass2": 0.0, "momentum": 0.0, "energy": 0.0}
    entropy_slack = -np.inf
    t = 0.0
    nstep = 0
    prim_old = to_primitive(cells, eos1, eos2)
    tic = time.perf_counter()
    while t < cfg.t_final:
        old = cells
        totals_old = _totals(old)
        if cfg.entropy_audit and cfg.scheme == "relaxation":
            s1_old = eos1.entropy(prim_old.rho1, eos1.internal_energy(prim_old.rho1, prim_old.p1))
            s2_old = eos2.entropy(prim_old.rho2, eos2.internal_energy(prim_old.rho2, prim_old.p2))

        if cfg.scheme == "relaxation":
            cells, info = step(old, cfg, eos1, eos2, dx, dt_cap=cfg.t_final - t, prim=prim_old)
        else:
            cells, info = rusanov.rusanov_step(old, cfg, eos1, eos2, dx, dt_cap=cfg.t_final - t)
        dt = info.dt
        lam = dt / dx

        totals_new = _totals(cells)
        fm, fp = info.fluxes.f_minus, info.fluxes.f_plus
        end_fluxes = (
            (fm[1, -1], fp[1, 0]),
            (fm[2, -1], fp[2, 0]),
            (fm[3, -1] + fm[4, -1], fp[3, 0] + fp[4, 0]),
            (fm[5, -1] + fm[6, -1], fp[5, 0] + fp[6, 0]),
        )
        # the baseline's alpha-gradient terms do not telescope, so only its
        # mass families admit an audit against the end fluxes
        audited = 4 if cfg.scheme == "relaxation" else 2
        for name, new, oldv, (f_out, f_in) in list(zip(cons_err, totals_new, totals_old,
                                                       end_fluxes))[:audited]:
            drift = abs(new - oldv + lam * (f_out - f_in))
            scale = max(1.0, abs(oldv))
            cons_err[name] = max(cons_err[name], drift / scale)

        if cfg.entropy_audit and cfg.scheme == "relaxation":
            prim_new = to_primitive(cells, eos1, eos2)
            s1_new = eos1.entropy(prim_new.rho1, eos1.internal_energy(prim_new.rho1, prim_new.p1))
            s2_new = eos2.entropy(prim_new.rho2, eos2.internal_energy(prim_new.rho2, prim_new.p2))
            sol = info.sol
            s1_pad = np.concatenate([s1_old[:1], s1_old, s1_old[-1:]])
            s2_pad = np.concatenate([s2_old[:1], s2_old, s2_old[-1:]])
            up1 = np.where(sol.u1_star > 0.0, s1_pad[:-1], s1_pad[1:])
            up2 = np.where(sol.u2_star > 0.0, s2_pad[:-1], s2_pad[1:])
            phi1 = fm[1] * up1
            phi2 = fm[2] * up2
            for m_old, m_new, s_old, s_new, phi in (
                    (old.m1, cells.m1, s1_old, s1_new, phi1),
                    (old.m2, cells.m2, s2_old, s2_new, phi2)):
                balance = m_new * s_new - m_old * s_old + lam * (phi[1:] - phi[:-1])
                scale = np.maximum(1.0, np.maximum(np.abs(m_old * s_old),
                                                   lam * (np.abs(phi[1:]) + np.abs(phi[:-1]))))
                entropy_slack = max(entropy_slack, float(np.max(balance / scale)))

        t += dt
        nstep += 1
        prim_new = to_primitive(cells, eos1, eos2)
        prim_old = prim_new
        e1 = eos1.internal_energy(prim_new.rho1, prim_new.p1)
        e2 = eos2.internal_energy(prim_new.rho2, prim_new.p2)
        records.append(StepRecord(
            step=nstep, t=t, dt=dt,
            mass1=totals_new[0], mass2=totals_new[1],
            momentum=totals_new[2], energy=totals_new[3],
            min_alpha1=float(np.min(cells.alpha1)),
            min_alpha2=float(np.min(1.0 - cells.alpha1)),
            min_rho1=float(np.min(prim_new.rho1)), min_rho2=float(np.min(prim_new.rho2)),
            min_e1=float(np.min(e1)), min_e2=float(np.min(e2)),
        ))
    wall = time.perf_counter() - tic

    return RunResult(
        x=x, cells=cells, prim=to_primitive(cells, eos1, eos2), t=t, steps=nstep,
        wall_time=wall, records=records, conservation_error=cons_err,
        entropy_slack=entropy_slack,
    )

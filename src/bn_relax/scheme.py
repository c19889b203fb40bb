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
                      build_solution, classify_ordering, sample,
                      sharp_quantities, take_interfaces)
from .state import (VARIABLES, ConservedState, PrimitiveState, to_conserved, to_primitive,
                    validate_conserved)


#: inflation factor of the (1 + ETA)**k parameter ladders
ETA = 0.01
#: rungs each ladder may climb, and a2 retries each interface may take, before
#: selection reports the interface.  The cap turns a runaway search into a
#: diagnosable error; it bounds the growth of each parameter at
#: (1 + ETA)**MAX_INFLATIONS (about 2.1e4), and must accommodate locally
#: supersonic relative velocities: benchmark case 2 climbs a1 by up to 475
#: rungs, a 113-fold growth, near the strong right shock at 200, 800 and 3200
#: cells.
MAX_INFLATIONS = 1000
#: multiplier of the starting value at each rung of a ladder, rung 0 the start itself
LADDER = np.concatenate([[1.0], np.cumprod(np.full(MAX_INFLATIONS, 1.0 + ETA))])


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


def _largest_root(a, b, c):
    """Largest real root of ``a x^2 + b x + c`` (``a >= 0``); -inf where it has none.

    Above it the quadratic is positive.  The root is formed without
    cancellation; with ``a = 0`` it is that of the linear part.  For
    ``b >= 0`` its denominator ``-b - sqrt(disc)`` vanishes only where
    ``b = c = 0``, whose largest root is 0.
    """
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    den = -b - sq
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(b < 0.0, (sq - b) / (2.0 * a), np.where(den < 0.0, 2.0 * c / den, 0.0))
    return np.where(disc >= 0.0, root, -np.inf)


def _tau_roots(tauL, tauR, du, dp):
    """Largest roots in ``a`` of the two tau predictors of a phase times ``a^2``.

    ``tau_sharp_l > 0`` iff ``tauL a^2 + (du/2) a - dp/2 > 0``, and
    ``tau_sharp_r > 0`` iff ``tauR a^2 + (du/2) a + dp/2 > 0``, with
    ``du = uR - uL`` and ``dp = pR - pL``.
    """
    return _largest_root(tauL, 0.5 * du, -0.5 * dp), _largest_root(tauR, 0.5 * du, 0.5 * dp)


def _a2_least(wl, wr, s, params):
    """a2 above which both tau predictors of phase 2 are positive."""
    return np.maximum(*_tau_roots(1.0 / wl.rho2, 1.0 / wr.rho2, wr.u2 - wl.u2, wr.p2 - wl.p2))


def _a1_least(wl, wr, s, params):
    """a1 above which phase 1's tau predictors are positive and ``u_cap`` lies
    inside its window, with a2 and phase 2's predictors those of ``s``.

    Multiplied by ``a1 (1 + (a1/a2)|lambda|)``, each bound of the window is a
    quadratic in a1 too: its constant terms cancel.
    """
    tauL, tauR = 1.0 / wl.rho1, 1.0 / wr.rho1
    du, dp = wr.u1 - wl.u1, wr.p1 - wl.p1
    lam = s.lambda_alpha
    g = np.abs(lam) / params.a2
    h = lam * du / (2.0 * params.a2)
    c0 = (0.5 * (wl.u1 + wr.u1) - s.u_sharp2
          - lam * (0.5 * (wl.p1 + wr.p1) - s.pi_sharp2) / params.a2)
    upper = _largest_root(g * tauL, tauL + 0.5 * g * du - h, 0.5 * du - 0.5 * g * dp - c0)
    lower = _largest_root(g * tauR, tauR + 0.5 * g * du + h, c0 + 0.5 * du + 0.5 * g * dp)
    return np.max([*_tau_roots(tauL, tauR, du, dp), upper, lower], axis=0)


def _climb_ladder(wL, wR, params: RelaxParams, idx, grow, holds, least) -> RelaxParams:
    """Advance a1 or a2 (``grow`` is 1 or 2) up its ``LADDER`` at interfaces ``idx``.

    Each interface fails ``holds(s, params)`` at rung 0 and takes its first
    rung where the predicate is true.  Every predicate is the positivity of
    quadratics in the climbing parameter, so it holds above the largest of
    their roots, ``least``: the climb starts at the first rung above it, k0,
    and one call checks rungs k0 - 1 and k0 with the exact predicate.  Where
    that check does not confirm k0 (a rung within rounding of a root), a
    bisection over the rung index finds the first rung that holds.  Both take
    the predicate to be false below some rung and true from it on.  A
    quadratic is negative only between its roots, so that fails only where
    one of them is positive at the start and has both roots above it; no
    climb of the benchmark cases or of random rows with near-vacuum phases
    and strong jumps does that, and the tests compare the climb with a scan
    of every rung.
    """
    climbing = params.a1 if grow == 1 else params.a2
    base, other = climbing[idx], (params.a2 if grow == 1 else params.a1)[idx]
    wl, wr = wL[idx], wR[idx]

    def check(cols, rungs):
        value = base[cols] * LADDER[rungs]
        cand = (RelaxParams(value, other[cols]) if grow == 1
                else RelaxParams(other[cols], value))
        return holds(sharp_quantities(wl[cols], wr[cols], cand), cand)

    k0 = np.clip(np.searchsorted(LADDER, least / base, side="right"), 1, MAX_INFLATIONS)
    below, at = check(slice(None), np.stack([k0 - 1, k0]))
    # bracket (lo, hi]: rung lo fails, rung hi holds (MAX_INFLATIONS + 1: none does)
    lo = np.where(below, 0, np.where(at, k0 - 1, k0))
    hi = np.where(below, k0 - 1, np.where(at, k0, MAX_INFLATIONS + 1))
    while (cols := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[cols] + hi[cols]) // 2
        ok = check(cols, mid)
        lo[cols], hi[cols] = np.where(ok, lo[cols], mid), np.where(ok, mid, hi[cols])
    if np.any(hi > MAX_INFLATIONS):
        raise _infeasible(f"a{grow}", wL, wR, int(idx[np.argmax(hi > MAX_INFLATIONS)]))
    out = climbing.copy()
    out[idx] = base * LADDER[hi]
    return RelaxParams(out, params.a2) if grow == 1 else RelaxParams(params.a1, out)


def select_parameters(wL: PrimitiveState, wR: PrimitiveState, eos1: EosParams,
                      eos2: EosParams) -> RelaxRiemannSolution:
    """Pick per-interface (a1, a2) and return the solved Riemann problem,
    whose ``params`` hold them.

    Starts from the Whitham-like bound (1 + ETA) max(rho c) over the two end
    states and climbs until three predicates hold at every interface:

    1. the tau predictors of phase 2 are positive (a2 climbs its ladder);
    2. the tau predictors of phase 1 are positive and the existence
       condition holds (a1 climbs its ladder);
    3. every intermediate specific volume of the solution is positive and
       finite (a2 is multiplied by 1 + ETA, then 1 and 2 are checked again).

    Each interface climbs on its own, so its parameters and its solution do
    not depend on the rest of the row.  A round of retries for predicate 3
    solves only the interfaces that failed it; after retries the whole row is
    solved once more with the final parameters.  Any interface exceeding the
    rung cap is reported with its states.  Parameters and solution are
    one-dimensional, also for scalar input.
    """
    wL, wR = as_cellwise(wL), as_cellwise(wR)
    params = RelaxParams(
        (1.0 + ETA) * np.maximum(eos1.lagrangian_sound_speed(wL.rho1, wL.p1),
                                 eos1.lagrangian_sound_speed(wR.rho1, wR.p1)),
        (1.0 + ETA) * np.maximum(eos2.lagrangian_sound_speed(wL.rho2, wL.p2),
                                 eos2.lagrangian_sound_speed(wR.rho2, wR.p2)))
    at = np.arange(params.a2.size)  # interfaces solved in this round: the whole row at first
    wl, wr, sub = wL, wR, params
    for _ in range(MAX_INFLATIONS + 1):
        s = sharp_quantities(wl, wr, sub)
        for grow, holds, least in ((2, _tau2_ok, _a2_least), (1, _existence_ok, _a1_least)):
            bad = ~holds(s, sub)
            if np.any(bad):
                params = _climb_ladder(wL, wR, params, at[bad], grow, holds,
                                       least(wl, wr, s, sub)[bad])
                sub = take_interfaces(params, at)
                s = sharp_quantities(wl, wr, sub)
        sol = build_solution(wl, wr, eos1, eos2, sub, precomputed=s)
        # the oriented regions serve: reflection maps the intermediate ones onto themselves
        tau = np.concatenate([sol.phase1.tau[1:4], sol.phase2.tau[1:3]])
        bad = ~((tau > 0.0) & (tau < np.inf)).all(axis=0)
        if not np.any(bad):
            return sol if at.size == params.a2.size else build_solution(wL, wR, eos1, eos2, params)
        at = at[bad]
        a2 = params.a2.copy()
        a2[at] *= 1.0 + ETA
        params = RelaxParams(params.a1, a2)
        wl, wr, sub = wL[at], wR[at], take_interfaces(params, at)
    raise _infeasible("a2", wL, wR, int(at[0]))


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


def cfl_dt(sol: RelaxRiemannSolution, dx: float, cfl: float):
    """Time step from the fastest wave of a solved interface row.

    The outermost breaks of each phase are its acoustic speeds
    ``u_L - a tau_L`` and ``u_R + a tau_R``, which bound every other wave.
    Reflection only negates and swaps them, so the oriented breaks serve.
    """
    if not 0.0 < cfl < 0.5:
        raise ValueError("cfl must lie in (0, 0.5)")
    smax = max(float(np.max(np.abs(phase.breaks[[0, -1]]))) for phase in (sol.phase1, sol.phase2))
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
    sol = select_parameters(padded[:-1], padded[1:], eos1, eos2)
    dt = min(cfl_dt(sol, dx, cfg.cfl), dt_cap)
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


def _phase_entropies(w: PrimitiveState, eos1: EosParams, eos2: EosParams):
    """Mathematical entropy of each phase of a primitive state."""
    return [eos.entropy(rho, eos.internal_energy(rho, p))
            for rho, p, eos in ((w.rho1, w.p1, eos1), (w.rho2, w.p2, eos2))]


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
    audit_entropy = cfg.entropy_audit and cfg.scheme == "relaxation"
    entropy_slack = -np.inf
    t = 0.0
    nstep = 0
    prim = to_primitive(cells, eos1, eos2)
    totals_new = _totals(cells)
    if audit_entropy:
        entropies = _phase_entropies(prim, eos1, eos2)
    tic = time.perf_counter()
    while t < cfg.t_final:
        old, totals_old = cells, totals_new
        if cfg.scheme == "relaxation":
            cells, info = step(old, cfg, eos1, eos2, dx, dt_cap=cfg.t_final - t, prim=prim)
        else:
            cells, info = rusanov.rusanov_step(old, cfg, eos1, eos2, dx, dt_cap=cfg.t_final - t)
        prim = to_primitive(cells, eos1, eos2)
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

        if audit_entropy:
            # per cell and phase: the entropy balance with the phase's mass
            # flux upwinded by its contact speed
            new_entropies = _phase_entropies(prim, eos1, eos2)
            for m_old, m_new, s_old, s_new, mass_flux, u_star in zip(
                    (old.m1, old.m2), (cells.m1, cells.m2), entropies, new_entropies,
                    fm[1:3], (info.sol.u1_star, info.sol.u2_star)):
                s_pad = _pad_edges(s_old)
                phi = mass_flux * np.where(u_star > 0.0, s_pad[:-1], s_pad[1:])
                balance = m_new * s_new - m_old * s_old + lam * (phi[1:] - phi[:-1])
                scale = np.maximum(1.0, np.maximum(np.abs(m_old * s_old),
                                                   lam * (np.abs(phi[1:]) + np.abs(phi[:-1]))))
                entropy_slack = max(entropy_slack, float(np.max(balance / scale)))
            entropies = new_entropies

        t += dt
        nstep += 1
        records.append(StepRecord(
            step=nstep, t=t, dt=dt,
            mass1=totals_new[0], mass2=totals_new[1],
            momentum=totals_new[2], energy=totals_new[3],
            min_alpha1=float(np.min(cells.alpha1)),
            min_alpha2=float(np.min(1.0 - cells.alpha1)),
            min_rho1=float(np.min(prim.rho1)), min_rho2=float(np.min(prim.rho2)),
            min_e1=float(np.min(eos1.internal_energy(prim.rho1, prim.p1))),
            min_e2=float(np.min(eos2.internal_energy(prim.rho2, prim.p2))),
        ))
    wall = time.perf_counter() - tic

    return RunResult(
        x=x, cells=cells, prim=to_primitive(cells, eos1, eos2), t=t, steps=nstep,
        wall_time=wall, records=records, conservation_error=cons_err,
        entropy_slack=entropy_slack,
    )

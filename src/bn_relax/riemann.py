"""Exact solver for the relaxation Riemann problem at one interface.

Every function is elementwise over numpy arrays, so a whole row of interfaces
is solved in one call.  The construction is carried out for the wave ordering
``u2* < u1*``; the opposite ordering is obtained by reflecting the data
(velocities negated, sides swapped), solving, and reflecting back, which
reproduces the exact same floating-point values by symmetry of the formulas.

The solution is stored as per-phase piecewise-constant region tables in the
nonconservative variables (tau, u, pi, E) plus the phase-fraction jump at the
coupling wave.  Sampling at a wave speed returns the right limit.

The solver takes the relaxation parameters as given.  Choosing them so that
the problem has a solution with positive intermediate specific volumes is the
job of ``scheme.select_parameters``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .eos import EosParams
from .state import VARIABLES, PrimitiveState

#: floor of the rightmost phase-1 specific volume on the dissipation branch,
#: as a fraction of ``tau_sharp1_r``; must lie in (0, 1)
MU = 0.1


class SolverError(RuntimeError):
    """Internal failure of the Riemann solver (should be unreachable on feasible input)."""


class WaveOrdering(enum.IntEnum):
    ORDER_21 = -1      # u2* > u1*
    COINCIDENT = 0     # u2* == u1*
    ORDER_12 = 1       # u2* < u1*


@dataclass(frozen=True)
class RelaxParams:
    """Per-phase relaxation parameters (units of a mass flux), both positive."""

    a1: np.ndarray
    a2: np.ndarray


@dataclass(frozen=True)
class SharpQuantities:
    """Closed-form star-state predictors built on the two input states.

    ``u_cap`` is the effective relative velocity whose position inside
    ``(-a1 tau_sharp1_r, a1 tau_sharp1_l)`` decides feasibility and ordering.
    """

    u_sharp1: np.ndarray
    pi_sharp1: np.ndarray
    tau_sharp1_l: np.ndarray
    tau_sharp1_r: np.ndarray
    u_sharp2: np.ndarray
    pi_sharp2: np.ndarray
    tau_sharp2_l: np.ndarray
    tau_sharp2_r: np.ndarray
    lambda_alpha: np.ndarray
    u_cap: np.ndarray


def as_cellwise(w: PrimitiveState) -> PrimitiveState:
    """View of a state with every field at least one-dimensional."""
    return PrimitiveState(*(np.atleast_1d(np.asarray(getattr(w, v), dtype=float))
                            for v in VARIABLES))


def _star_predictors(uL, uR, pL, pR, tauL, tauR, a):
    u_s = 0.5 * (uL + uR) - (pR - pL) / (2.0 * a)
    pi_s = 0.5 * (pL + pR) - 0.5 * a * (uR - uL)
    tau_l = tauL + (u_s - uL) / a
    tau_r = tauR - (u_s - uR) / a
    return u_s, pi_s, tau_l, tau_r


def sharp_quantities(wL: PrimitiveState, wR: PrimitiveState, params: RelaxParams) -> SharpQuantities:
    """Evaluate all star-state predictors from the interface pair.

    Pure algebra on the inputs; non-positive tau predictors are reported by
    the caller's feasibility test, not here.
    """
    u1, pi1, t1l, t1r = _star_predictors(wL.u1, wR.u1, wL.p1, wR.p1,
                                         1.0 / np.asarray(wL.rho1, dtype=float),
                                         1.0 / np.asarray(wR.rho1, dtype=float), params.a1)
    u2, pi2, t2l, t2r = _star_predictors(wL.u2, wR.u2, wL.p2, wR.p2,
                                         1.0 / np.asarray(wL.rho2, dtype=float),
                                         1.0 / np.asarray(wR.rho2, dtype=float), params.a2)
    a2L = 1.0 - np.asarray(wL.alpha1, dtype=float)
    a2R = 1.0 - np.asarray(wR.alpha1, dtype=float)
    lam = (a2R - a2L) / (a2R + a2L)
    ratio = params.a1 / params.a2
    u_cap = (u1 - u2 - lam * (pi1 - pi2) / params.a2) / (1.0 + ratio * np.abs(lam))
    return SharpQuantities(u1, pi1, t1l, t1r, u2, pi2, t2l, t2r, lam, u_cap)


def coincident_band(s: SharpQuantities, params: RelaxParams):
    """Scaled band around u_cap = 0 treated as the coincident ordering."""
    return 1e-12 * params.a1 * np.maximum(s.tau_sharp1_l, s.tau_sharp1_r)


def classify_ordering(s: SharpQuantities, params: RelaxParams):
    """Return (ordering, feasible) arrays.

    ``feasible`` is False where the existence condition fails (tau predictors
    of phase 1 non-positive, or u_cap outside the open subsonic window); the
    caller reacts by enlarging a1.  Infeasible entries still carry an
    ordering tag from the sign of u_cap.
    """
    eps = coincident_band(s, params)
    ordering = np.where(np.abs(s.u_cap) <= eps, 0, np.sign(s.u_cap)).astype(np.int8)
    feasible = ((s.tau_sharp1_l > 0.0) & (s.tau_sharp1_r > 0.0)
                & (s.u_cap > -params.a1 * s.tau_sharp1_r)
                & (s.u_cap < params.a1 * s.tau_sharp1_l))
    return ordering, feasible


@dataclass(frozen=True)
class FixedPointContext:
    """Scalar-equation setup for locating the coupling-wave speed.

    Valid for interfaces already oriented to ``u_cap >= 0``.  ``MU`` caps how
    far the dissipation branch may compress the rightmost phase-1 specific
    volume (it is floored at ``MU * tau_sharp1_r``).
    """

    nu: np.ndarray            # alpha1_l / alpha1_r
    m_sharp: np.ndarray       # (u_sharp1 - u_sharp2) / (a1 tau_sharp1_l)
    p_sharp: np.ndarray       # (pi_sharp1 - pi_sharp2) / (a1^2 tau_sharp1_l)
    tau_ratio: np.ndarray     # tau_sharp1_r / tau_sharp1_l
    coupling: np.ndarray      # (a1/a2) alpha1_r / (alpha2_l + alpha2_r)
    rhs: np.ndarray           # target value of psi

    def mach_conservative(self, m):
        """Energy-preserving transmitted Mach number (non-negative, < 1)."""
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore"):  # masked m = 0 entries blow up harmlessly
            safe_m = np.maximum(m, 1e-300)
            q = 1.0 + 1.0 / self.nu
            b = q * (1.0 + m * m) / (2.0 * safe_m)
            c = 4.0 / self.nu
            # the discriminant b^2 - c factors into non-negative terms, which
            # avoids the catastrophic cancellation of the naive form near m = 1
            rs = 1.0 / np.sqrt(self.nu)
            f1 = q * (1.0 - m) ** 2 + 2.0 * m * (1.0 - rs) ** 2
            f2 = q * (1.0 + m * m) + 4.0 * m * rs
            disc = np.sqrt(f1 * f2) / (2.0 * safe_m)
            out = np.where(m > 0.0, (c / 2.0) / (b + disc), 0.0)
            # for equal phase fractions the map is the identity; taking it
            # exactly makes the phases decouple to machine precision
            return np.where(self.nu == 1.0, m, out)

    def mach_cap(self, m):
        """Dissipative cap keeping tau1_r* >= MU tau_sharp1_r; +inf when inactive."""
        m = np.asarray(m, dtype=float)
        den = 1.0 - (1.0 - MU) * self.tau_ratio
        cap = (m + (1.0 - MU) * self.tau_ratio) / (self.nu * np.where(den > 0.0, den, 1.0))
        return np.where(den > 0.0, cap, np.inf)

    def mach(self, m):
        return np.minimum(self.mach_conservative(m), self.mach_cap(m))

    def psi(self, m):
        m = np.asarray(m, dtype=float)
        return m + self.coupling * ((1.0 + self.nu) * m - 2.0 * self.nu * self.mach(m))


def fixed_point_context(wL: PrimitiveState, wR: PrimitiveState, s: SharpQuantities,
                        params: RelaxParams) -> FixedPointContext:
    a1L = np.asarray(wL.alpha1, dtype=float)
    a1R = np.asarray(wR.alpha1, dtype=float)
    scale = params.a1 * s.tau_sharp1_l
    m_sharp = (s.u_sharp1 - s.u_sharp2) / scale
    p_sharp = (s.pi_sharp1 - s.pi_sharp2) / (params.a1 * scale)
    ratio = params.a1 / params.a2
    return FixedPointContext(
        nu=a1L / a1R,
        m_sharp=m_sharp,
        p_sharp=p_sharp,
        tau_ratio=s.tau_sharp1_r / s.tau_sharp1_l,
        coupling=ratio * a1R / ((1.0 - a1L) + (1.0 - a1R)),
        rhs=m_sharp - ratio * s.lambda_alpha * p_sharp,
    )


def solve_star(ctx: FixedPointContext, s: SharpQuantities, params: RelaxParams):
    """Bisect psi(m) = rhs on (0, 1) and return (m_star, u2_star, u1_star).

    Assumes the oriented ordering (u_cap >= 0); entries flagged coincident by
    the caller should be overwritten with m = 0.  psi(0) = 0 <= rhs and
    psi(1) > rhs whenever the existence condition holds, so a sign change is
    guaranteed; its absence is an internal error.
    """
    rhs = np.asarray(ctx.rhs, dtype=float)
    lo = np.zeros_like(rhs)
    hi = np.ones_like(rhs)
    f_hi = ctx.psi(hi) - rhs
    if np.any(f_hi <= 0.0) or np.any(rhs < 0.0):
        raise SolverError("fixed point bracket failure on (0, 1)")
    # inlined psi with hoisted constants; 52 halvings reach machine precision
    slope = 1.0 + ctx.coupling * (1.0 + ctx.nu)
    weight = 2.0 * ctx.coupling * ctx.nu
    q = 1.0 + 1.0 / ctx.nu
    half_c = 2.0 / ctx.nu
    rs = 1.0 / np.sqrt(ctx.nu)
    drift = 2.0 * (1.0 - rs) ** 2
    cap_den = 1.0 - (1.0 - MU) * ctx.tau_ratio
    cap_add = (1.0 - MU) * ctx.tau_ratio
    cap_mul = 1.0 / (ctx.nu * np.where(cap_den > 0.0, cap_den, np.inf))  # 0 disables cap
    huge = np.where(cap_den > 0.0, 0.0, np.inf)
    equal_frac = ctx.nu == 1.0
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        b2m = q * (1.0 + mid * mid)                     # 2 m b
        # factored discriminant: see mach_conservative
        disc2m = np.sqrt((q * (1.0 - mid) ** 2 + mid * drift) * (b2m + 4.0 * mid * rs))
        m0 = np.where(equal_frac, mid, (half_c * 2.0 * mid) / (b2m + disc2m))
        mcap = (mid + cap_add) * cap_mul + huge
        f = slope * mid - weight * np.minimum(m0, mcap) - rhs
        go_right = f <= 0.0
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    m_star = 0.5 * (lo + hi)
    mach = ctx.mach(m_star)
    u2_star = s.u_sharp1 - params.a1 * s.tau_sharp1_l * m_star
    u1_star = s.u_sharp1 - params.a1 * s.tau_sharp1_l * (m_star - ctx.nu * mach) / (1.0 + ctx.nu * mach)
    return m_star, u2_star, u1_star


@dataclass(frozen=True)
class RelaxRiemannSolution:
    """Piecewise-constant self-similar solution in original orientation.

    Phase-1 values live on five regions separated by ``breaks1``
    (left acoustic, coupling, phase-1 contact, right acoustic, in ascending
    order); phase-2 values on four regions separated by ``breaks2``.  The
    phase fraction jumps from ``alpha1_l`` to ``alpha1_r`` at ``u2_star``.
    ``pi1_star`` is NaN where the phase fraction does not jump (it is never
    used there).  Region tables have the region axis first.
    """

    params: RelaxParams
    ordering: np.ndarray
    u1_star: np.ndarray
    u2_star: np.ndarray
    pi1_star: np.ndarray
    alpha1_l: np.ndarray
    alpha1_r: np.ndarray
    breaks1: np.ndarray   # (4, ...)
    tau1: np.ndarray      # (5, ...)
    u1: np.ndarray
    pi1: np.ndarray
    E1: np.ndarray
    breaks2: np.ndarray   # (3, ...)
    tau2: np.ndarray      # (4, ...)
    u2: np.ndarray
    pi2: np.ndarray
    E2: np.ndarray


@dataclass(frozen=True)
class SampledState:
    """Nonconservative state at one self-similar speed."""

    alpha1: np.ndarray
    tau1: np.ndarray
    u1: np.ndarray
    pi1: np.ndarray
    E1: np.ndarray
    tau2: np.ndarray
    u2: np.ndarray
    pi2: np.ndarray
    E2: np.ndarray

    @property
    def rho1(self):
        return 1.0 / self.tau1

    @property
    def rho2(self):
        return 1.0 / self.tau2


def _oriented_regions(wL, wR, e1L, e1R, e2L, e2R, s, params, m_star, mach, nu, u2s):
    """Region tables for the oriented problem (u_cap >= 0, so u2* <= u1*)."""
    a1, a2 = params.a1, params.a2
    t1L = 1.0 / np.asarray(wL.rho1, dtype=float)
    t1R = 1.0 / np.asarray(wR.rho1, dtype=float)
    t2L = 1.0 / np.asarray(wL.rho2, dtype=float)
    t2R = 1.0 / np.asarray(wR.rho2, dtype=float)

    shift = (m_star - nu * mach) / (1.0 + nu * mach)
    u1s = s.u_sharp1 - a1 * s.tau_sharp1_l * shift

    tau1m = s.tau_sharp1_l * (1.0 - m_star) / (1.0 - mach)
    tau1p = s.tau_sharp1_l * (1.0 + m_star) / (1.0 + nu * mach)
    tau1rs = s.tau_sharp1_r + s.tau_sharp1_l * shift
    u1m = u2s + a1 * mach * tau1m
    pi1m = wL.p1 + a1 ** 2 * (t1L - tau1m)
    pi1p = wL.p1 + a1 ** 2 * (t1L - tau1p)
    pi1rs = wR.p1 + a1 ** 2 * (t1R - tau1rs)
    E1m = 0.5 * u1m ** 2 + e1L + (pi1m ** 2 - np.asarray(wL.p1) ** 2) / (2.0 * a1 ** 2)
    E1p = 0.5 * u1s ** 2 + e1L + (pi1p ** 2 - np.asarray(wL.p1) ** 2) / (2.0 * a1 ** 2)
    E1rs = 0.5 * u1s ** 2 + e1R + (pi1rs ** 2 - np.asarray(wR.p1) ** 2) / (2.0 * a1 ** 2)

    tau2ls = t2L + (u2s - wL.u2) / a2
    tau2rs = t2R - (u2s - wR.u2) / a2
    pi2ls = wL.p2 + a2 ** 2 * (t2L - tau2ls)
    pi2rs = wR.p2 + a2 ** 2 * (t2R - tau2rs)
    E2ls = 0.5 * u2s ** 2 + e2L + (pi2ls ** 2 - np.asarray(wL.p2) ** 2) / (2.0 * a2 ** 2)
    E2rs = 0.5 * u2s ** 2 + e2R + (pi2rs ** 2 - np.asarray(wR.p2) ** 2) / (2.0 * a2 ** 2)

    breaks1 = np.stack([wL.u1 - a1 * t1L, u2s, u1s, wR.u1 + a1 * t1R])
    tau1 = np.stack([t1L, tau1m, tau1p, tau1rs, t1R])
    uu1 = np.stack([np.broadcast_to(np.asarray(wL.u1, dtype=float), u1s.shape),
                    u1m, u1s, u1s,
                    np.broadcast_to(np.asarray(wR.u1, dtype=float), u1s.shape)])
    pp1 = np.stack([np.broadcast_to(np.asarray(wL.p1, dtype=float), u1s.shape),
                    pi1m, pi1p, pi1rs,
                    np.broadcast_to(np.asarray(wR.p1, dtype=float), u1s.shape)])
    EE1 = np.stack([0.5 * np.asarray(wL.u1) ** 2 + e1L, E1m, E1p, E1rs,
                    0.5 * np.asarray(wR.u1) ** 2 + e1R])

    breaks2 = np.stack([wL.u2 - a2 * t2L, u2s, wR.u2 + a2 * t2R])
    tau2 = np.stack([t2L, tau2ls, tau2rs, t2R])
    uu2 = np.stack([np.broadcast_to(np.asarray(wL.u2, dtype=float), u2s.shape),
                    u2s, u2s,
                    np.broadcast_to(np.asarray(wR.u2, dtype=float), u2s.shape)])
    pp2 = np.stack([np.broadcast_to(np.asarray(wL.p2, dtype=float), u2s.shape),
                    pi2ls, pi2rs,
                    np.broadcast_to(np.asarray(wR.p2, dtype=float), u2s.shape)])
    EE2 = np.stack([0.5 * np.asarray(wL.u2) ** 2 + e2L, E2ls, E2rs,
                    0.5 * np.asarray(wR.u2) ** 2 + e2R])

    return u1s, breaks1, tau1, uu1, pp1, EE1, breaks2, tau2, uu2, pp2, EE2


def build_solution(wL: PrimitiveState, wR: PrimitiveState, eos1: EosParams, eos2: EosParams,
                   params: RelaxParams,
                   precomputed: SharpQuantities | None = None) -> RelaxRiemannSolution:
    """Solve the interface Riemann problems for already-feasible parameters.

    Raises SolverError if the existence condition does not hold (callers are
    expected to have selected parameters first).  Intermediate specific
    volumes are returned whatever their sign: their positivity is one of the
    predicates ``scheme.select_parameters`` climbs a2 for.
    """
    a1 = np.asarray(params.a1, dtype=float)
    a2 = np.asarray(params.a2, dtype=float)
    s0 = precomputed if precomputed is not None else sharp_quantities(wL, wR, params)
    eps = coincident_band(s0, params)
    flip = s0.u_cap < -eps

    def pick(a, b):
        """``a`` where the interface keeps its orientation, ``b`` where it is reflected."""
        return np.where(flip, np.asarray(b, dtype=float), np.asarray(a, dtype=float))

    # reflect the flagged interfaces: swap sides, negate velocities
    mL, mR = wL.mirrored(), wR.mirrored()
    wl = PrimitiveState(*(pick(getattr(wL, v), getattr(mR, v)) for v in VARIABLES))
    wr = PrimitiveState(*(pick(getattr(wR, v), getattr(mL, v)) for v in VARIABLES))

    # reflection maps the predictors exactly: u and u_cap flip sign, pi is
    # untouched, the tau predictors swap sides
    s = SharpQuantities(
        u_sharp1=pick(s0.u_sharp1, -s0.u_sharp1), pi_sharp1=s0.pi_sharp1,
        tau_sharp1_l=pick(s0.tau_sharp1_l, s0.tau_sharp1_r),
        tau_sharp1_r=pick(s0.tau_sharp1_r, s0.tau_sharp1_l),
        u_sharp2=pick(s0.u_sharp2, -s0.u_sharp2), pi_sharp2=s0.pi_sharp2,
        tau_sharp2_l=pick(s0.tau_sharp2_l, s0.tau_sharp2_r),
        tau_sharp2_r=pick(s0.tau_sharp2_r, s0.tau_sharp2_l),
        lambda_alpha=pick(s0.lambda_alpha, -s0.lambda_alpha), u_cap=pick(s0.u_cap, -s0.u_cap))
    ordering, feasible = classify_ordering(s, params)
    if np.any(~feasible):
        raise SolverError("existence condition violated; select parameters before solving")

    ctx = fixed_point_context(wl, wr, s, params)
    coincident = ordering == 0
    equal_frac = wl.alpha1 == wr.alpha1
    if np.all(coincident):
        m_star = np.zeros_like(s.u_cap)
    else:
        # solve everywhere (cheap, branch-free); coincident entries forced to 0
        m_star, _, _ = solve_star(replace(ctx, rhs=np.where(coincident, 0.0, ctx.rhs)), s, params)
        # without a fraction jump the scalar equation is the identity, so the
        # root is the right-hand side itself; taking it exactly (and the
        # phase-2 star speed verbatim below) decouples the phases bitwise
        m_star = np.where(equal_frac, np.clip(ctx.rhs, 0.0, 1.0), m_star)
        m_star = np.where(coincident, 0.0, m_star)
    mach = np.where(coincident, 0.0, ctx.mach(m_star))
    u2s = np.where(equal_frac, s.u_sharp2, s.u_sharp1 - a1 * s.tau_sharp1_l * m_star)

    e1L_ = eos1.internal_energy(wl.rho1, wl.p1)
    e1R_ = eos1.internal_energy(wr.rho1, wr.p1)
    e2L_ = eos2.internal_energy(wl.rho2, wl.p2)
    e2R_ = eos2.internal_energy(wr.rho2, wr.p2)

    (u1s, breaks1, tau1, uu1, pp1, EE1,
     breaks2, tau2, uu2, pp2, EE2) = _oriented_regions(
        wl, wr, e1L_, e1R_, e2L_, e2R_, s, params, m_star, mach, ctx.nu, u2s)

    # coupling pressure: defined only when the phase fraction jumps
    dal = wr.alpha1 - wl.alpha1
    al2sum = (1.0 - wl.alpha1) + (1.0 - wr.alpha1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1_star = s.pi_sharp2 - a2 * al2sum / dal * (u2s - s.u_sharp2)
    pi1_star = np.where(dal == 0.0, np.nan, pi1_star)

    # reflect back: reverse region order, negate speeds and velocities
    def unflip(breaks, vals_t, vals_u, vals_p, vals_E):
        rb = np.where(flip, -breaks[::-1], breaks)
        return (rb,
                np.where(flip, vals_t[::-1], vals_t),
                np.where(flip, -vals_u[::-1], vals_u),
                np.where(flip, vals_p[::-1], vals_p),
                np.where(flip, vals_E[::-1], vals_E))

    breaks1, tau1, uu1, pp1, EE1 = unflip(breaks1, tau1, uu1, pp1, EE1)
    breaks2, tau2, uu2, pp2, EE2 = unflip(breaks2, tau2, uu2, pp2, EE2)
    u1_star = np.where(flip, -u1s, u1s)
    u2_star = np.where(flip, -u2s, u2s)
    ordering = np.where(flip, -ordering, ordering).astype(np.int8)

    return RelaxRiemannSolution(
        params=RelaxParams(a1, a2), ordering=ordering,
        u1_star=u1_star, u2_star=u2_star, pi1_star=pi1_star,
        alpha1_l=np.asarray(wL.alpha1, dtype=float), alpha1_r=np.asarray(wR.alpha1, dtype=float),
        breaks1=breaks1, tau1=tau1, u1=uu1, pi1=pp1, E1=EE1,
        breaks2=breaks2, tau2=tau2, u2=uu2, pi2=pp2, E2=EE2,
    )


def _region_index(breaks, xi, side):
    xi = np.asarray(xi, dtype=float)
    if side == "+":
        return (breaks <= xi).sum(axis=0)
    return (breaks < xi).sum(axis=0)


def _take(regions, idx):
    if regions.ndim == 2 and idx.ndim == 1:
        return regions[idx, np.arange(idx.shape[0])]
    return np.take_along_axis(regions, idx[None, ...], axis=0)[0]


def sample(sol: RelaxRiemannSolution, xi, side: str = "+") -> SampledState:
    """State at self-similar speed ``xi``; the right limit at a wave speed.

    ``side='-'`` takes the left limit instead (used for the flux traces).
    """
    i1 = _region_index(sol.breaks1, xi, side)
    i2 = _region_index(sol.breaks2, xi, side)
    on_left_of_coupling = (np.asarray(xi) < sol.u2_star) | \
        ((np.asarray(xi) == sol.u2_star) & (side == "-"))
    alpha1 = np.where(on_left_of_coupling, sol.alpha1_l, sol.alpha1_r)
    return SampledState(
        alpha1=alpha1,
        tau1=_take(sol.tau1, i1), u1=_take(sol.u1, i1),
        pi1=_take(sol.pi1, i1), E1=_take(sol.E1, i1),
        tau2=_take(sol.tau2, i2), u2=_take(sol.u2, i2),
        pi2=_take(sol.pi2, i2), E2=_take(sol.E2, i2),
    )


def interface_jump(sol: RelaxRiemannSolution):
    """Coupling-wave data: (u2_star, pi1_star, Dirac weight vector).

    The weight is the 7-component vector multiplying the jump measure in the
    nonconservative product; its entropy slots are zero and the momentum
    entries cancel across phases.  Where the phase fraction does not jump the
    weight is identically zero and pi1_star stays NaN (never consumed).
    """
    dal = sol.alpha1_r - sol.alpha1_l
    pi = np.where(dal == 0.0, 0.0, sol.pi1_star)
    zeros = np.zeros_like(dal)
    dstar = np.stack([dal * sol.u2_star, zeros, zeros, -dal * pi, dal * pi, zeros, zeros])
    return sol.u2_star, sol.pi1_star, dstar

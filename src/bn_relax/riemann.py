"""Exact solver for the relaxation Riemann problem at one interface.

Every function is elementwise over numpy arrays, so a whole row of interfaces
is solved in one call.  The construction is carried out for the wave ordering
``u2* <= u1*``; an interface with the opposite ordering is reflected first
(velocities negated, sides swapped) and solved in that oriented frame.  The
solution stays in it, together with the ``flip`` mask of the reflected
interfaces.  Sampling a reflected interface at ``xi`` reads its oriented
solution at ``-xi``, takes the other one-sided limit there and negates the
velocities, which gives the exact floating-point values that reflecting the
whole solution back would, by symmetry of the formulas.

The coupling-wave speed solves a scalar equation, ``psi(m) = rhs``, which
``solve_star`` iterates, from a bracket narrowed around a closed-form seed,
only at interfaces where the phase fraction jumps and the waves do not
coincide; elsewhere the root is known in closed form.

Per phase, the solution holds the specific volumes and velocities of its
piecewise-constant regions, the wave speeds between them, and the pressure
and internal energy of its two end states; the phase fraction jumps at the
coupling wave.  The other nonconservative variables of a region, pi and E,
follow from the Suliciu-type Lagrangian relations to the end state on the
same side of the phase's contact.  ``sample`` applies them only to the
regions it reads, and ``region_tables`` to every region, for tests and
audits.  The outermost breaks, the acoustic speeds ``u -+ a tau`` of the end
states, also give the time step.  Sampling at a wave speed returns the right
limit.

The solver takes the relaxation parameters as given.  Choosing them so that
the problem has a solution with positive intermediate specific volumes is the
job of ``scheme.select_parameters``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .eos import EosParams
from .state import VARIABLES, PrimitiveState

#: floor of the rightmost phase-1 specific volume on the dissipation branch,
#: as a fraction of ``tau_sharp1_r``; must lie in (0, 1)
MU = 0.1
#: relative stopping tolerance of the star solve, on the residual of psi and
#: on the width of the bracket
STOP_TOL = 4.0 * np.finfo(float).eps
#: sweeps of the star solve after which every bracket is at most 2**-52 wide
MAX_SWEEPS = 4 * 52


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
    lambda_alpha: np.ndarray
    u_cap: np.ndarray


def as_cellwise(w: PrimitiveState) -> PrimitiveState:
    """View of a state with every field at least one-dimensional."""
    return PrimitiveState(*(np.atleast_1d(np.asarray(getattr(w, v), dtype=float))
                            for v in VARIABLES))


def take_interfaces(data, at):
    """The interfaces ``at`` (a mask or indices) of a dataclass of per-interface arrays.

    The interface axis is the last one.  A 0-d field holds for every
    interface and is kept as it is.
    """
    idx = np.flatnonzero(at) if np.asarray(at).dtype == bool else at

    def part(v):
        v = np.asarray(v)
        return v.take(idx, axis=-1) if v.ndim else v
    return type(data)(**{f.name: part(getattr(data, f.name)) for f in fields(data)})


def _acoustic_taus(tauL, tauR, uL, uR, u_s, a):
    """Specific volumes behind the left and right acoustic waves of a phase
    whose contact moves at ``u_s``."""
    return tauL + (u_s - uL) / a, tauR - (u_s - uR) / a


def _star_predictors(uL, uR, pL, pR, a):
    u_s = 0.5 * (uL + uR) - (pR - pL) / (2.0 * a)
    pi_s = 0.5 * (pL + pR) - 0.5 * a * (uR - uL)
    return u_s, pi_s


def sharp_quantities(wL: PrimitiveState, wR: PrimitiveState, params: RelaxParams) -> SharpQuantities:
    """Evaluate all star-state predictors from the interface pair.

    Pure algebra on the inputs; non-positive tau predictors are reported by
    the caller's feasibility test, not here.
    """
    u1, pi1 = _star_predictors(wL.u1, wR.u1, wL.p1, wR.p1, params.a1)
    t1l, t1r = _acoustic_taus(1.0 / np.asarray(wL.rho1, dtype=float),
                              1.0 / np.asarray(wR.rho1, dtype=float), wL.u1, wR.u1, u1, params.a1)
    u2, pi2 = _star_predictors(wL.u2, wR.u2, wL.p2, wR.p2, params.a2)
    a2L = 1.0 - np.asarray(wL.alpha1, dtype=float)
    a2R = 1.0 - np.asarray(wR.alpha1, dtype=float)
    lam = (a2R - a2L) / (a2R + a2L)
    ratio = params.a1 / params.a2
    u_cap = (u1 - u2 - lam * (pi1 - pi2) / params.a2) / (1.0 + ratio * np.abs(lam))
    return SharpQuantities(u1, pi1, t1l, t1r, u2, pi2, lam, u_cap)


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
    volume (it is floored at ``MU * tau_sharp1_r``).  The coefficients of
    ``mach`` are computed on first use and kept, because ``solve_star``
    evaluates ``psi`` once per sweep.
    """

    nu: np.ndarray            # alpha1_l / alpha1_r
    tau_ratio: np.ndarray     # tau_sharp1_r / tau_sharp1_l
    coupling: np.ndarray      # (a1/a2) alpha1_r / (alpha2_l + alpha2_r)
    rhs: np.ndarray           # target value of psi: m_sharp - (a1/a2) lambda_alpha p_sharp

    @cached_property
    def _conservative_coeffs(self):
        q = 1.0 + 1.0 / self.nu
        rs = 1.0 / np.sqrt(self.nu)
        return q, 2.0 * (1.0 - rs) ** 2, 4.0 * rs, 4.0 / self.nu

    def mach_conservative(self, m):
        """Energy-preserving transmitted Mach number (non-negative, < 1)."""
        m = np.asarray(m, dtype=float)
        q, drift, four_rs, four_over_nu = self._conservative_coeffs
        # smaller root (c/2) / (b + sqrt(b^2 - c)) of the quadratic with
        # b = q (1 + m^2) / (2m), c = 4 / nu, multiplied through by 2m so that
        # m = 0 needs no guard; b^2 - c factors into non-negative terms, which
        # avoids the catastrophic cancellation of the naive form near m = 1
        two_mb = q * (1.0 + m * m)
        disc = np.sqrt((q * (1.0 - m) ** 2 + drift * m) * (two_mb + four_rs * m))
        out = four_over_nu * m / (two_mb + disc)
        # for equal phase fractions the map is the identity; taking it
        # exactly makes the phases decouple to machine precision
        return np.where(self.nu == 1.0, m, out)

    @cached_property
    def _cap_coeffs(self):
        shift = (1.0 - MU) * self.tau_ratio
        den = 1.0 - shift
        # an inactive cap gets slope 0 and offset +inf
        return shift, 1.0 / (self.nu * np.where(den > 0.0, den, np.inf)), \
            np.where(den > 0.0, 0.0, np.inf)

    def mach_cap(self, m):
        """Dissipative cap keeping tau1_r* >= MU tau_sharp1_r; +inf when inactive."""
        shift, slope, offset = self._cap_coeffs
        return (np.asarray(m, dtype=float) + shift) * slope + offset

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
    # the predictors' velocity and pressure differences, made dimensionless
    m_sharp = (s.u_sharp1 - s.u_sharp2) / scale
    p_sharp = (s.pi_sharp1 - s.pi_sharp2) / (params.a1 * scale)
    ratio = params.a1 / params.a2
    return FixedPointContext(
        nu=a1L / a1R,
        tau_ratio=s.tau_sharp1_r / s.tau_sharp1_l,
        coupling=ratio * a1R / ((1.0 - a1L) + (1.0 - a1R)),
        rhs=m_sharp - ratio * s.lambda_alpha * p_sharp,
    )


def _seed(ctx: FixedPointContext):
    """Approximate root of psi(m) = rhs in [0, 1]; 0 where none is found.

    psi is the larger of its two branches, the conservative one (``mach =
    mach_conservative``) and the cap (``mach = mach_cap``), so its root is
    the smaller of the branch roots in [0, 1] of the increasing ones.  On a
    branch, psi(m) = rhs makes the Mach number linear in m, ``mach = alpha m
    + beta`` with ``beta <= 0``, so the cap branch is a linear equation.  On
    the conservative branch, the line put into the quadratic ``2m M^2 - q (1
    + m^2) M + 2m/nu = 0`` of ``mach_conservative`` gives a cubic ``f(m) = 2m
    (M - M-)(M - M+)``, with M- < M+ the roots of the quadratic.  The line
    starts below M-, which stays below ``1/sqrt(nu)``, and rises without
    bound, so ``f > 0`` up to the root sought, its first crossing of M-, and
    ``f < 0`` past it; with ``f(-inf) < 0 < f(inf)`` that root is the middle
    one of three real roots, which is taken in trigonometric form.  The cubic
    is ill-conditioned where psi is, so the seed only narrows a bracket.
    """
    c, nu, rhs = ctx.coupling, ctx.nu, ctx.rhs
    c_nu = c * nu
    q = 1.0 + 1.0 / nu
    alpha = (1.0 + c * (1.0 + nu)) / (2.0 * c_nu)
    beta = -rhs / (2.0 * c_nu)
    # monic cubic m^3 + b m^2 + d1 m + d0: its coefficients divided by
    # 2 alpha^2 - q alpha = alpha / (c nu), and 4 alpha beta - q beta taken as
    # beta (q + 2 / (c nu)); both differences cancel for large c
    scale = c_nu / alpha
    b = beta * (q + 2.0 / c_nu) * scale
    d1 = (2.0 * beta * beta - q * alpha + 2.0 / nu) * scale
    d0 = -q * beta * scale
    shift = b / 3.0
    p = d1 - b * shift                       # m = t - shift: t^3 + p t + r = 0
    r = (2.0 * shift * shift - d1) * shift + d0
    with np.errstate(invalid="ignore", divide="ignore"):
        amp = 2.0 * np.sqrt(-p / 3.0)
        angle = np.arccos(np.clip(-4.0 * r / (amp * amp * amp), -1.0, 1.0)) / 3.0
        conservative = amp * np.cos(angle - 2.0 * np.pi / 3.0) - shift
        shift_cap, slope, _ = ctx._cap_coeffs
        # an active cap has a positive slope; a decreasing branch gives a negative root
        cap = (slope * shift_cap - beta) / (alpha - slope)
    conservative = np.where((conservative >= 0.0) & (conservative <= 1.0), conservative, np.inf)
    cap = np.where((slope > 0.0) & (cap >= 0.0) & (cap <= 1.0), cap, np.inf)
    seed = np.minimum(conservative, cap)
    return np.where(np.isfinite(seed), seed, 0.0)


def solve_star(ctx: FixedPointContext):
    """Solve psi(m) = rhs on (0, 1) and return (m_star, mach(m_star)).

    Assumes the oriented ordering (u_cap >= 0).  psi(0) = 0 <= rhs and
    psi(1) > rhs whenever the existence condition holds, so (0, 1) brackets
    the root; its absence is an internal error.  psi is increasing, with a
    kink wherever ``mach_cap`` takes over from ``mach_conservative``.

    One evaluation of psi, at 0, ``m0 (1 -+ 2**-30)`` and 1, both checks the
    bracket and narrows it: ``m0`` is the closed-form seed of ``_seed``, and
    the bracket becomes the first of (0, m0-), (m0-, m0+), (m0+, 1) in which
    psi - rhs changes sign.  A poor seed only leaves a wider bracket.

    Each sweep evaluates psi once per interface at the Illinois point: the
    secant point of the bracket (lo, hi), after halving the residual of an
    end that the two previous sweeps both kept.  The sweep takes the midpoint
    instead where that point is not strictly inside the bracket, or where the
    bracket is wider than half its width three sweeps earlier.  So the
    bracket at least halves every four sweeps, and MAX_SWEEPS leave it no
    wider than the 52 halvings of plain bisection would.  An interface stops
    at the first m with |psi(m) - rhs| <= STOP_TOL max(1, rhs), which is
    m = 0 with no sweep when rhs itself is that small, or when
    hi - lo <= STOP_TOL hi, with m the last point evaluated.
    """
    rhs = np.asarray(ctx.rhs, dtype=float)
    m0 = _seed(ctx)
    points = np.stack([np.zeros_like(rhs), m0 * (1.0 - 2.0 ** -30),
                       np.minimum(m0 * (1.0 + 2.0 ** -30), 1.0), np.ones_like(rhs)])
    f = ctx.psi(points) - rhs               # psi(0) = 0 exactly
    if np.any(f[-1] <= 0.0) or np.any(rhs < 0.0):
        raise SolverError("fixed point bracket failure on (0, 1)")
    # the first sign change: f[k] <= 0 < f[k + 1]
    k = np.argmax(f[1:] > 0.0, axis=0)
    ends = np.stack([k, k + 1])
    lo, hi = np.take_along_axis(points, ends, axis=0)
    f_lo, f_hi = np.take_along_axis(f, ends, axis=0)
    tol = STOP_TOL * np.maximum(1.0, rhs)
    m = np.zeros_like(rhs)
    widths = [np.inf] * 3                   # bracket widths before the last three sweeps
    moved_lo = np.full(rhs.shape, -1)       # end moved by the last sweep: 1 lo, 0 hi, -1 none
    active = rhs > tol
    for _ in range(MAX_SWEEPS):
        if not np.any(active):
            break
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo - f_lo * (width / (f_hi - f_lo))
        bisect = ~((x > lo) & (x < hi)) | (width > 0.5 * widths[0])
        widths = widths[1:] + [width]
        x = np.where(bisect, lo + 0.5 * width, x)
        f = ctx.psi(x) - rhs
        # converged interfaces sweep on harmlessly; only m is frozen for them
        to_lo = f <= 0.0
        again = to_lo == moved_lo
        lo, hi = np.where(to_lo, x, lo), np.where(to_lo, hi, x)
        f_lo = np.where(to_lo, f, np.where(again, 0.5 * f_lo, f_lo))
        f_hi = np.where(to_lo, np.where(again, 0.5 * f_hi, f_hi), f)
        moved_lo = to_lo
        m = np.where(active, x, m)
        active &= (np.abs(f) > tol) & (hi - lo > STOP_TOL * hi)
    return m, ctx.mach(m)


@dataclass(frozen=True)
class OrientedPhase:
    """One phase of a solved row in the oriented frame (``u2* <= u1*``).

    ``tau`` and ``u`` hold the region values, region axis first, from the
    left end state to the right one; the last two regions lie right of the
    phase's contact and the others left of it.  ``breaks`` holds the wave
    speeds between the regions in ascending order.  ``p_l``, ``e_l`` and
    ``p_r``, ``e_r`` are the pressure and specific internal energy of the
    end states, whose specific volumes are ``tau[0]`` and ``tau[-1]``.
    """

    breaks: np.ndarray
    tau: np.ndarray
    u: np.ndarray
    p_l: np.ndarray
    p_r: np.ndarray
    e_l: np.ndarray
    e_r: np.ndarray


@dataclass(frozen=True)
class RelaxRiemannSolution:
    """Piecewise-constant self-similar solution of a row of interfaces.

    ``phase1`` has five regions (separated by the left acoustic, coupling,
    phase-1 contact and right acoustic waves) and ``phase2`` four, both in
    the oriented frame; ``flip`` marks the interfaces solved reflected.
    ``sample`` and ``region_tables`` read the phases in the original frame,
    in which ``ordering``, the contact speeds and the phase fractions are
    given: the phase fraction jumps from ``alpha1_l`` to ``alpha1_r`` at
    ``u2_star``.  ``pi1_star`` is NaN where the phase fraction does not jump
    (it is never used there).
    """

    params: RelaxParams
    flip: np.ndarray
    ordering: np.ndarray
    u1_star: np.ndarray
    u2_star: np.ndarray
    pi1_star: np.ndarray
    alpha1_l: np.ndarray
    alpha1_r: np.ndarray
    phase1: OrientedPhase
    phase2: OrientedPhase


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


def _oriented_phases(wl, wr, s, params, m_star, mach, nu, u2s, eos1, eos2):
    """Both phases of the oriented problem (u_cap >= 0, so u2* <= u1*).

    Each runs from the left to the right end state; between its acoustic
    waves lie the coupling wave and, for phase 1, its contact.
    """
    a1 = params.a1
    shift = (m_star - nu * mach) / (1.0 + nu * mach)
    u1s = s.u_sharp1 - a1 * s.tau_sharp1_l * shift
    tau1m = s.tau_sharp1_l * (1.0 - m_star) / (1.0 - mach)
    tau1p = s.tau_sharp1_l * (1.0 + m_star) / (1.0 + nu * mach)
    tau1rs = s.tau_sharp1_r + s.tau_sharp1_l * shift
    u1m = u2s + a1 * mach * tau1m
    t2L, t2R = 1.0 / wl.rho2, 1.0 / wr.rho2
    tau2ls, tau2rs = _acoustic_taus(t2L, t2R, wl.u2, wr.u2, u2s, params.a2)
    return (_oriented_phase((1.0 / wl.rho1, tau1m, tau1p, tau1rs, 1.0 / wr.rho1),
                            (wl.u1, u1m, u1s, u1s, wr.u1), (u2s, u1s),
                            (wl.rho1, wl.p1), (wr.rho1, wr.p1), eos1, a1),
            _oriented_phase((t2L, tau2ls, tau2rs, t2R), (wl.u2, u2s, u2s, wr.u2), (u2s,),
                            (wl.rho2, wl.p2), (wr.rho2, wr.p2), eos2, params.a2))


def _oriented_phase(tau, u, inner, left, right, eos, a) -> OrientedPhase:
    """One phase from its region values and the (rho, p) of its end states.

    The breaks are the acoustic speeds ``u0 -+ a tau0`` of the end states
    around the ``inner`` wave speeds.
    """
    tau, u = np.stack(tau), np.stack(u)
    breaks = np.stack([u[0] - a * tau[0], *inner, u[-1] + a * tau[-1]])
    return OrientedPhase(breaks, tau, u, left[1], right[1],
                         eos.internal_energy(*left), eos.internal_energy(*right))


def _closure(tau, u, tau0, p0, e0, a):
    """(pi, E) of regions tied to the end state ``(tau0, p0, e0)`` on their
    side of the phase's contact by the Lagrangian relations
    ``pi = p0 + a^2 (tau0 - tau)`` and
    ``E = u^2/2 + e0 + (pi^2 - p0^2) / (2 a^2)``, which give ``p0`` and
    ``u0^2/2 + e0`` exactly at the end state itself."""
    a_sq = a ** 2
    pi = p0 + a_sq * (tau0 - tau)
    E = 0.5 * u ** 2 + e0 + (pi ** 2 - p0 ** 2) / (2.0 * a_sq)
    return pi, E


def _regions(phase: OrientedPhase, a, idx):
    """Oriented (tau, u, pi, E) of the regions ``idx`` of each interface.

    ``idx`` holds one region per interface, or a column of regions that
    broadcasts over the interfaces.
    """
    n = phase.tau.shape[1]
    flat = idx * n + np.arange(n)
    tau, u = phase.tau.take(flat), phase.u.take(flat)
    right = idx >= phase.tau.shape[0] - 2
    pi, E = _closure(tau, u, np.where(right, phase.tau[-1], phase.tau[0]),
                     np.where(right, phase.p_r, phase.p_l),
                     np.where(right, phase.e_r, phase.e_l), a)
    return tau, u, pi, E


def build_solution(wL: PrimitiveState, wR: PrimitiveState, eos1: EosParams, eos2: EosParams,
                   params: RelaxParams,
                   precomputed: SharpQuantities | None = None) -> RelaxRiemannSolution:
    """Solve the interface Riemann problems for already-feasible parameters.

    Raises SolverError if the existence condition does not hold (callers are
    expected to have selected parameters first).  Intermediate specific
    volumes are returned whatever their sign: their positivity is one of the
    predicates ``scheme.select_parameters`` climbs a2 for.  The solution is
    one-dimensional, also for scalar input.
    """
    wL, wR = as_cellwise(wL), as_cellwise(wR)
    s0 = precomputed if precomputed is not None else sharp_quantities(wL, wR, params)
    eps = coincident_band(s0, params)
    flip = s0.u_cap < -eps

    def pick(a, b):
        """``a`` where the interface keeps its orientation, ``b`` where it is reflected."""
        return np.where(flip, b, a)

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
        lambda_alpha=pick(s0.lambda_alpha, -s0.lambda_alpha), u_cap=pick(s0.u_cap, -s0.u_cap))
    ordering, feasible = classify_ordering(s, params)
    if np.any(~feasible):
        raise SolverError("existence condition violated; select parameters before solving")

    ctx = fixed_point_context(wl, wr, s, params)
    coincident = ordering == 0
    equal_frac = wl.alpha1 == wr.alpha1
    # without a fraction jump the scalar equation is the identity, so the
    # root is the right-hand side itself; taking it exactly (and the
    # phase-2 star speed verbatim below) decouples the phases bitwise
    m_star = np.where(coincident, 0.0, np.clip(ctx.rhs, 0.0, 1.0))
    # so is the Mach map: with equal fractions mach_conservative(m) is m and
    # mach_cap(m) >= m, so mach(m) = m; the coincident ordering has m = 0
    mach = m_star.copy()
    # solve_star's bracket check sees only the jumping interfaces; the others
    # could not fail it, since coincident ones have no equation to solve and
    # with equal fractions psi(1) >= 1 > rhs
    jump = ~(coincident | equal_frac)
    if np.any(jump):
        m_star[jump], mach[jump] = solve_star(take_interfaces(ctx, jump))
    u2s = np.where(equal_frac, s.u_sharp2, s.u_sharp1 - params.a1 * s.tau_sharp1_l * m_star)

    # coupling pressure: defined only when the phase fraction jumps
    dal = wr.alpha1 - wl.alpha1
    al2sum = (1.0 - wl.alpha1) + (1.0 - wr.alpha1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1_star = s.pi_sharp2 - params.a2 * al2sum / dal * (u2s - s.u_sharp2)
    pi1_star = np.where(dal == 0.0, np.nan, pi1_star)

    phase1, phase2 = _oriented_phases(wl, wr, s, params, m_star, mach, ctx.nu, u2s, eos1, eos2)
    # each contact speed is the velocity of the middle region(s) beside it
    return RelaxRiemannSolution(
        params=params, flip=flip, ordering=np.where(flip, -ordering, ordering).astype(np.int8),
        u1_star=pick(phase1.u[2], -phase1.u[2]), u2_star=pick(phase2.u[1], -phase2.u[1]),
        pi1_star=pi1_star, alpha1_l=wL.alpha1, alpha1_r=wR.alpha1, phase1=phase1, phase2=phase2)


def sample(sol: RelaxRiemannSolution, xi, side: str = "+") -> SampledState:
    """State at self-similar speed ``xi``; the right limit at a wave speed.

    ``side='-'`` takes the left limit instead (used for the flux traces).
    Only here, and in ``region_tables``, are pi and E of a region formed.
    """
    xi = np.asarray(xi, dtype=float)
    flip = sol.flip
    # a reflected interface is read at -xi in its oriented frame, where the
    # requested one-sided limit is the other one.  A break at the oriented
    # speed counts as passed where flip != (side == "+"); there the speed is
    # replaced by the next float up, since b <= x is b < nextafter(x, inf)
    kept, reflected = xi, -xi
    if side == "+":
        kept = np.nextafter(kept, np.inf)
    else:
        reflected = np.nextafter(reflected, np.inf)
    xi_o = np.where(flip, reflected, kept)
    sign = np.where(flip, -1.0, 1.0)
    on_left_of_coupling = (xi < sol.u2_star) | ((xi == sol.u2_star) & (side == "-"))
    states = [np.where(on_left_of_coupling, sol.alpha1_l, sol.alpha1_r)]
    for phase, a in ((sol.phase1, sol.params.a1), (sol.phase2, sol.params.a2)):
        # a count of at most four breaks: int8 holds it and sums fastest
        idx = (phase.breaks < xi_o).sum(axis=0, dtype=np.int8).astype(np.intp)
        tau, u, pi, E = _regions(phase, a, idx)
        states += [tau, sign * u, pi, E]
    return SampledState(*states)


def region_tables(sol: RelaxRiemannSolution) -> dict:
    """Every region of a solved row in the original frame, for tests and audits.

    Keys are ``breaks``, ``tau``, ``u``, ``pi`` and ``E`` with the phase
    number appended (``tau1``, ``E2``, ...); region axis first, breaks in
    ascending order.  A reflected interface has its regions reversed and its
    speeds and velocities negated.
    """
    tables = {}
    for k, phase, a in (("1", sol.phase1, sol.params.a1), ("2", sol.phase2, sol.params.a2)):
        idx = np.arange(phase.tau.shape[0])[:, None]
        for name, sign, table in zip(("breaks", "tau", "u", "pi", "E"), (-1.0, 1.0, -1.0, 1.0, 1.0),
                                     (phase.breaks, *_regions(phase, a, idx))):
            tables[name + k] = np.where(sol.flip, sign * table[::-1], table)
    return tables

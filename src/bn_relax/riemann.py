"""Exact solver for the relaxation Riemann problem at one interface.

Every function is elementwise over numpy arrays, so a whole row of interfaces
is solved in one call.  The entry point ``build_solution`` takes the row's
interface pair as one (2, 7, k) array: side (left first), primitive variable
in ``VARIABLES`` order, interface.  ``interface_pair`` forms it from two
``PrimitiveState``s, and ``check_pair`` is the one check of it, against the
domain of the EOS kernels the solver evaluates unchecked.  The predictor
algebra (``sharp_quantities``, ``fixed_point_context``) reads the rows of the
checked pair too.

The construction is carried out for the wave ordering ``u2* <= u1*``; an
interface with the opposite ordering is reflected first (velocities
negated, sides swapped) and solved in that oriented frame.  Its
contact speeds and phase 1's middle states are mapped back, in ``_tables``
only, and the solution is stored in the original frame; the coupling
pressure is the same in both frames.  Every other value is the same formula
of the original states in either frame, and equals the reflected oriented
value bit for bit, since IEEE rounding is symmetric under negation.

The coupling-wave speed solves a scalar equation, ``psi(m) = rhs``, which
``solve_star`` iterates, from a bracket narrowed around a closed-form seed,
only at interfaces where the phase fraction jumps and the waves do not
coincide; elsewhere the root is known in closed form.

Per phase, the solution holds the specific volume, velocity, pi and E of
each of its piecewise-constant regions and the wave speeds between them; the
phase fraction jumps at the coupling wave.  pi and E of a region follow from
the Suliciu-type Lagrangian relations to the end state on the same side of
the phase's contact, and are formed once, when the row is solved.
``sample`` only counts the breaks passed and looks the regions up, into the
(4, 2, n) table that ``scheme`` reads, and ``region_tables`` gives views of
the same arrays, for tests and audits.  The
outermost breaks, the acoustic speeds ``u -+ a tau`` of the end states, also
give the time step.  Sampling at a wave speed returns the right limit.

The solver takes the relaxation parameters as given.  Choosing them so that
the problem has a solution with positive intermediate specific volumes is the
job of ``scheme.select_parameters``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .eos import EosDomainError, EosParams, internal_energy_of, phase_columns
from .state import P, RHO, RHO_U_P, VARIABLES, PrimitiveState

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
    ``ordering`` is the sign of ``u_cap`` (0 in a narrow band), and
    ``feasible`` the existence condition for the parameters the predictors
    were built with; an infeasible entry still carries its ordering.
    """

    u_sharp1: np.ndarray
    pi_sharp1: np.ndarray
    tau_sharp1_l: np.ndarray
    tau_sharp1_r: np.ndarray
    u_sharp2: np.ndarray
    pi_sharp2: np.ndarray
    lambda_alpha: np.ndarray
    u_cap: np.ndarray
    ordering: np.ndarray
    feasible: np.ndarray


def interface_pair(wL: PrimitiveState, wR: PrimitiveState):
    """The two sides of a row of interfaces as one (2, 7, k) float array:
    side (left first), primitive variable (``VARIABLES`` order), interface.
    A scalar field holds for every interface.  Checks nothing: the entry
    points that take the pair call ``check_pair``."""
    fields = [np.asarray(v, dtype=float) for v in (*wL.astuple(), *wR.astuple())]
    if len({v.shape for v in fields}) > 1:
        fields = np.broadcast_arrays(*fields)
    return np.array(fields).reshape(2, 7, -1)


@lru_cache(maxsize=16)
def _pair_bounds(p_inf1: float, p_inf2: float):
    """Open lower and upper bounds of each primitive variable of a pair of
    phases with the given ``p_inf``, as (7, 1) columns: alpha1 in (0, 1), rho
    > 0, p > -p_inf and every entry finite.  ``p > -p_inf`` holds exactly
    where ``p + p_inf > 0`` does.  Keyed on the floats, which hash without
    a Python-level call."""
    lower, upper = np.full((7, 1), -np.inf), np.full((7, 1), np.inf)
    lower[0], upper[0] = 0.0, 1.0
    lower[RHO] = 0.0
    lower[P] = -np.array([[p_inf1], [p_inf2]])
    for c in (lower, upper):
        c.flags.writeable = False
    return lower, upper


def check_pair(pair, eos1: EosParams, eos2: EosParams):
    """The one domain check of an interface pair, the (2, 7, k) array of
    ``interface_pair``: the domain of the EOS kernels that the relaxation
    solver evaluates on it unchecked.  Raises ValueError unless ``pair`` has
    that shape, and EosDomainError unless every entry is finite, ``0 <
    alpha1 < 1``, and every density and every ``p + p_inf`` is positive.
    NaN compares false, so it fails the check."""
    if pair.ndim != 3 or pair.shape[:2] != (2, 7):
        raise ValueError(f"an interface pair has shape (2, 7, k), got {pair.shape}")
    lower, upper = _pair_bounds(eos1.p_inf, eos2.p_inf)
    ok = (pair > lower) & (pair < upper)
    if not ok.all():
        side, var, j = np.argwhere(~ok)[0]
        raise EosDomainError("interface pair: non-finite entry, alpha1 outside (0, 1), "
                             "non-positive density or p + p_inf <= 0: "
                             f"{VARIABLES[var]} of side {('left', 'right')[side]} "
                             f"at interface {j}")


def _acoustic_taus(tauL, tauR, uL, uR, u_s, a):
    """Specific volumes behind the left and right acoustic waves of a phase
    whose contact moves at ``u_s``."""
    return tauL + (u_s - uL) / a, tauR - (u_s - uR) / a


def _star_predictors(uL, uR, pL, pR, a):
    u_s = 0.5 * (uL + uR) - (pR - pL) / (2.0 * a)
    pi_s = 0.5 * (pL + pR) - 0.5 * a * (uR - uL)
    return u_s, pi_s


def _classify(u_cap, tau_l, tau_r, a1):
    # a scaled band around u_cap = 0 counts as the coincident ordering
    eps = 1e-12 * a1 * np.maximum(tau_l, tau_r)
    ordering = np.where(np.abs(u_cap) <= eps, 0, np.sign(u_cap)).astype(np.int8)
    feasible = (tau_l > 0.0) & (tau_r > 0.0) & (u_cap > -a1 * tau_r) & (u_cap < a1 * tau_l)
    return ordering, feasible


def sharp_quantities(pair, params: RelaxParams) -> SharpQuantities:
    """Evaluate all star-state predictors from the interface pair, and
    classify them (``ordering``, ``feasible``).

    Pure algebra on the rows of ``pair``, a checked (2, 7, k) pair or a
    (2, 7) one; non-positive tau predictors are reported by the feasibility
    test, not here.
    """
    a1, a2 = params.a1, params.a2
    (al, rho1l, u1l, p1l, _, u2l, p2l), (ar, rho1r, u1r, p1r, _, u2r, p2r) = pair
    u1, pi1 = _star_predictors(u1l, u1r, p1l, p1r, a1)
    t1l, t1r = _acoustic_taus(1.0 / rho1l, 1.0 / rho1r, u1l, u1r, u1, a1)
    u2, pi2 = _star_predictors(u2l, u2r, p2l, p2r, a2)
    a2L, a2R = 1.0 - al, 1.0 - ar
    lam = (a2R - a2L) / (a2R + a2L)
    ratio = a1 / a2
    u_cap = (u1 - u2 - lam * (pi1 - pi2) / a2) / (1.0 + ratio * np.abs(lam))
    return SharpQuantities(u1, pi1, t1l, t1r, u2, pi2, lam, u_cap, *_classify(u_cap, t1l, t1r, a1))


@dataclass(frozen=True)
class FixedPointContext:
    """Scalar-equation setup for locating the coupling-wave speed.

    Valid for interfaces already oriented to ``u_cap >= 0``.  ``MU`` caps how
    far the dissipation branch may compress the rightmost phase-1 specific
    volume (it is floored at ``MU * tau_sharp1_r``).  Every coefficient that
    psi and its Mach number read (``_coeffs``), among them ``1 + nu``, ``2
    nu`` and whether some ``nu`` is 1, is formed once, on first use, because
    ``solve_star`` evaluates ``psi_mach`` once per sweep; the identity taken
    where ``nu`` is 1 costs an evaluation only when some ``nu`` is.  Both
    branches of the Mach number are formed in one body, ``_branches``.
    """

    nu: np.ndarray            # alpha1_l / alpha1_r
    tau_ratio: np.ndarray     # tau_sharp1_r / tau_sharp1_l
    coupling: np.ndarray      # (a1/a2) alpha1_r / (alpha2_l + alpha2_r)
    rhs: np.ndarray           # target value of psi: m_sharp - (a1/a2) lambda_alpha p_sharp

    @cached_property
    def _coeffs(self):
        """The coefficients of ``_branches`` and ``psi_mach``, as three
        tuples: those of the conservative branch (``unit`` is the mask of
        equal phase fractions, None where there is none), those of the cap
        (an inactive cap gets slope 0 and offset +inf) and ``(1 + nu, 2 nu)``."""
        nu = self.nu
        rs = 1.0 / np.sqrt(nu)
        unit = np.equal(nu, 1.0)
        shift = (1.0 - MU) * self.tau_ratio
        den = 1.0 - shift
        capped = den > 0.0
        return ((1.0 + 1.0 / nu, 2.0 * (1.0 - rs) ** 2, 4.0 * rs, 4.0 / nu,
                 unit if unit.any() else None),
                (shift, 1.0 / (nu * np.where(capped, den, np.inf)), np.where(capped, 0.0, np.inf)),
                (1.0 + nu, 2.0 * nu))

    def _branches(self, m):
        """``(mach_conservative(m), mach_cap(m))`` of a float array ``m``."""
        (q, drift, four_rs, four_over_nu, unit), (shift, slope, offset), _ = self._coeffs
        # smaller root (c/2) / (b + sqrt(b^2 - c)) of the quadratic with
        # b = q (1 + m^2) / (2m), c = 4 / nu, multiplied through by 2m so that
        # m = 0 needs no guard; b^2 - c factors into non-negative terms, which
        # avoids the catastrophic cancellation of the naive form near m = 1
        two_mb = q * (1.0 + m * m)
        disc = np.sqrt((q * (1.0 - m) ** 2 + drift * m) * (two_mb + four_rs * m))
        conservative = four_over_nu * m / (two_mb + disc)
        if unit is not None:
            # for equal phase fractions the map is the identity; taking it
            # exactly makes the phases decouple to machine precision
            conservative = np.where(unit, m, conservative)
        return conservative, (m + shift) * slope + offset

    def mach_conservative(self, m):
        """Energy-preserving transmitted Mach number (non-negative, < 1)."""
        return self._branches(np.asarray(m, dtype=float))[0]

    def mach_cap(self, m):
        """Dissipative cap keeping tau1_r* >= MU tau_sharp1_r; +inf when inactive."""
        return self._branches(np.asarray(m, dtype=float))[1]

    def mach(self, m):
        return np.minimum(*self._branches(np.asarray(m, dtype=float)))

    def psi_mach(self, m):
        """``(psi(m), mach(m))``: psi together with the Mach number it is built on."""
        m = np.asarray(m, dtype=float)
        mach = np.minimum(*self._branches(m))
        one_plus_nu, two_nu = self._coeffs[2]
        return m + self.coupling * (one_plus_nu * m - two_nu * mach), mach

    def at(self, idx):
        """The context of the interfaces ``idx`` (a mask or indices)."""
        return FixedPointContext(self.nu[idx], self.tau_ratio[idx], self.coupling[idx],
                                 self.rhs[idx])


def _context(a1L, a1R, du, dpi, tau_l, tau_r, lam, a1, a2) -> FixedPointContext:
    """The context of sides with phase fractions ``a1L`` and ``a1R``, whose
    predictors have the differences ``du = u_sharp1 - u_sharp2`` and ``dpi =
    pi_sharp1 - pi_sharp2``, the tau predictors ``tau_l`` and ``tau_r`` and
    the fraction jump ``lam`` (``lambda_alpha``)."""
    scale = a1 * tau_l
    # the predictors' velocity and pressure differences, made dimensionless
    m_sharp = du / scale
    p_sharp = dpi / (a1 * scale)
    ratio = a1 / a2
    return FixedPointContext(
        nu=a1L / a1R,
        tau_ratio=tau_r / tau_l,
        coupling=ratio * a1R / ((1.0 - a1L) + (1.0 - a1R)),
        rhs=m_sharp - ratio * lam * p_sharp,
    )


def fixed_point_context(pair, s: SharpQuantities, params: RelaxParams) -> FixedPointContext:
    """The context of ``pair`` (as ``sharp_quantities`` takes it) with the predictors ``s``."""
    return _context(pair[0, 0], pair[1, 0], s.u_sharp1 - s.u_sharp2, s.pi_sharp1 - s.pi_sharp2,
                    s.tau_sharp1_l, s.tau_sharp1_r, s.lambda_alpha, params.a1, params.a2)


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
    (q, *_), (shift_cap, slope, _), (one_plus_nu, _) = ctx._coeffs
    c_nu = c * nu
    two_c_nu = 2.0 * c_nu
    alpha = (1.0 + c * one_plus_nu) / two_c_nu
    beta = -rhs / two_c_nu
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
        # clipped to [-1, 1]; NaN stays NaN
        angle = np.arccos(np.minimum(np.maximum(-4.0 * r / (amp * amp * amp), -1.0), 1.0)) / 3.0
        conservative = amp * np.cos(angle - 2.0 * np.pi / 3.0) - shift
        # an active cap has a positive slope; a decreasing branch gives a negative root
        cap = (slope * shift_cap - beta) / (alpha - slope)
    conservative = np.where((conservative >= 0.0) & (conservative <= 1.0), conservative, np.inf)
    cap = np.where((slope > 0.0) & (cap >= 0.0) & (cap <= 1.0), cap, np.inf)
    seed = np.minimum(conservative, cap)
    return np.where(np.isfinite(seed), seed, 0.0)


#: the bracket points of ``solve_star`` are ``m0 * _BRACKET[0] + _BRACKET[1]``,
#: capped at 1
_BRACKET = np.array([[0.0, 1.0 - 2.0 ** -30, 1.0 + 2.0 ** -30, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])[:, :, None]
#: rows of (lo, hi, f(lo), f(hi)) past the first sign change ``k`` in the
#: stacked bracket points and values
_BRACKET_ENDS = np.array([[0], [1], [4], [5]])


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

    The sweep after which no interface is active returns at once: it does
    not update the residuals of the bracket ends, which no later sweep
    reads.  Most calls return after one sweep.  The ends, their residuals
    and the result are updated in place, only where they change.
    """
    rhs = np.asarray(ctx.rhs, dtype=float)
    n = rhs.size
    # m0 lies in [0, 1], so the rows of points are 0, m0 (1 - 2**-30),
    # min(m0 (1 + 2**-30), 1) and 1
    points = np.minimum(_seed(ctx) * _BRACKET[0] + _BRACKET[1], 1.0)
    f, mach_points = ctx.psi_mach(points)
    f -= rhs                                # psi(0) = 0 exactly
    if ((f[-1] <= 0.0) | (rhs < 0.0)).any():
        raise SolverError("fixed point bracket failure on (0, 1)")
    # the first sign change: f[k] <= 0 < f[k + 1]; points and f stacked are
    # one table, whose rows k and k + 1 of each are the bracket
    k = (f[1:] > 0.0).argmax(axis=0)
    lo, hi, f_lo, f_hi = np.concatenate([points, f]).take((k + _BRACKET_ENDS) * n + np.arange(n))
    tol = STOP_TOL * np.maximum(1.0, rhs)
    m, mach = points[0], mach_points[0]     # rows of fresh arrays, written in place
    active = rhs > tol
    if not active.any():
        return m.reshape(rhs.shape), mach.reshape(rhs.shape)
    widths = [np.inf] * 3                   # bracket widths before the last three sweeps
    moved_lo = None                         # the end moved by the last sweep: to_lo
    # the secant point divides by f_hi - f_lo, which vanishes on converged
    # interfaces; the sweep replaces such a point by the midpoint
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(MAX_SWEEPS):
            width = hi - lo
            x = lo - f_lo * (width / (f_hi - f_lo))
            bisect = ~((x > lo) & (x < hi))
            if sweep >= 3:                  # before, widths[0] is inf
                bisect |= width > 0.5 * widths[0]
            widths = widths[1:] + [width]
            np.putmask(x, bisect, lo + 0.5 * width)
            f, mach_x = ctx.psi_mach(x)
            f -= rhs
            # converged interfaces sweep on harmlessly; only m is frozen for them
            np.putmask(m, active, x)
            np.putmask(mach, active, mach_x)
            to_lo = f <= 0.0
            to_hi = ~to_lo
            np.putmask(lo, to_lo, x)
            np.putmask(hi, to_hi, x)
            active &= (np.abs(f) > tol) & (hi - lo > STOP_TOL * hi)
            if not active.any():
                break
            if moved_lo is not None:
                # halve the residual of an end that both sweeps kept
                again = to_lo == moved_lo
                np.putmask(f_lo, again, 0.5 * f_lo)
                np.putmask(f_hi, again, 0.5 * f_hi)
            np.putmask(f_lo, to_lo, f)
            np.putmask(f_hi, to_hi, f)
            moved_lo = to_lo
    # the bracket table is two-dimensional, also for a scalar context
    return m.reshape(rhs.shape), mach.reshape(rhs.shape)


#: rows of each phase in ``RelaxRiemannSolution.regions``
_PHASE_ROWS = (slice(0, 5), slice(5, 9))
#: columns of each phase's breaks in its row of ``RelaxRiemannSolution.breaks``
_PHASE_BREAKS = (slice(0, 4), slice(0, 3))
#: first row of each phase, as a column
_FIRST_REGION = np.array([[rows.start] for rows in _PHASE_ROWS])
#: phase of each row of ``RelaxRiemannSolution.regions``
_PHASE_OF_REGION = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
#: rows of the end states in ``RelaxRiemannSolution.regions``: [side, phase]
_END_REGION = np.array([[0, 5], [4, 8]])
#: end state that each region is tied to by the Lagrangian relations, the
#: one on its side of its phase's contact, for the ordering ``u2* <= u1*``,
#: as an index into the (side, phase) stack of end states flattened; with
#: the other ordering phase 1's middle region lies right of its contact
_END_OF_REGION = 2 * np.array([0, 0, 0, 1, 1, 0, 0, 1, 1]) + _PHASE_OF_REGION
#: direction of each side's acoustic waves, for a (side, phase, k) stack
_OUTWARD = np.array([-1.0, 1.0])[:, None, None]


@dataclass(frozen=True)
class RelaxRiemannSolution:
    """Piecewise-constant self-similar solution of a row of interfaces.

    Phase 1 has five regions (separated by the left acoustic wave, the
    coupling wave and phase 1's contact in the order of ``ordering``, and
    the right acoustic wave) and phase 2 four, all in the original frame.
    ``regions`` holds (tau, u, pi, E) of phase 1's regions and then of
    phase 2's (rows ``_PHASE_ROWS``), region axis second, each phase from
    its left end state to its right one; the last two regions of phase 2
    lie right of its contact.  ``breaks`` holds, per phase, the wave speeds
    between its regions in ascending order (columns ``_PHASE_BREAKS``),
    phase 2's padded with +inf.  The phase fraction jumps from ``alpha1_l``
    to ``alpha1_r`` at ``u2_star``.  ``pi1_star`` is NaN where the phase
    fraction does not jump (it is never used there).
    """

    params: RelaxParams
    ordering: np.ndarray
    u1_star: np.ndarray
    u2_star: np.ndarray
    pi1_star: np.ndarray
    alpha1_l: np.ndarray
    alpha1_r: np.ndarray
    breaks: np.ndarray
    regions: np.ndarray


def _tables(sides, a, gamma, p_inf, u_sharp1, tau_l, tau_r, m_star, mach, nu, u2s, flip, sign):
    """(breaks, regions) in the original frame of a row solved in the oriented one.

    ``sides`` holds (rho, u, p) of the end states, shape (2, 3, 2, k): side
    (left first), variable, phase, interface.  ``sides`` and the parameters
    ``a`` = (a1, a2) belong to the original frame; ``gamma`` and ``p_inf``
    are the EOS columns.  Phase 1's predictor ``u_sharp1`` and tau
    predictors, ``m_star``, ``mach``, ``nu`` and the phase-2 contact speed
    ``u2s`` belong to the oriented problem (u_cap >= 0, so u2* <= u1*),
    which ``flip`` marks as reflected and ``sign`` maps back.  Both contact
    speeds and phase 1's middle states are mapped back: the velocities are
    negated and, where ``flip`` holds, phase 1's regions on either side of
    its two contacts trade places, its two middle breaks swap, and its
    middle region is tied to the right end state.  Everything else is
    formed from the original end states and contact speeds, each end-state
    formula once on the (side, phase) stack.
    """
    a1, a2 = a
    nu_mach = nu * mach
    one_nu_mach = 1.0 + nu_mach
    shift = (m_star - nu_mach) / one_nu_mach
    u1s = u_sharp1 - a1 * tau_l * shift
    tau1m = tau_l * (1.0 - m_star) / (1.0 - mach)
    tau1p = tau_l * (1.0 + m_star) / one_nu_mach
    tau1rs = tau_r + tau_l * shift
    u1m = sign * (u2s + a1 * mach * tau1m)
    u1s, u2s = sign * u1s, sign * u2s
    # the end states, [side, phase]
    rho, u, p = sides[:, 0], sides[:, 1], sides[:, 2]
    tau = 1.0 / rho
    # the acoustic speeds u_L - a tau_L and u_R + a tau_R of both phases
    outer = u + _OUTWARD * (a * tau)
    breaks = np.empty((2, 4, u2s.size))
    breaks[:, 0], breaks[0, 3], breaks[1, 2] = outer[0], outer[1, 0], outer[1, 1]
    # with the other ordering phase 1's two middle breaks swap
    middle = np.array([u2s, u1s])
    breaks[0, 1:3] = np.where(flip, middle[::-1], middle)
    breaks[1, 1], breaks[1, 3] = u2s, np.inf
    regions = np.empty((4, 9, u2s.size))
    tau_r, u_r, pi, E = regions
    tau_r[_END_REGION], u_r[_END_REGION] = tau, u
    tau_r[1], tau_r[2], tau_r[3] = tau1m, tau1p, tau1rs
    tau_r[6], tau_r[7] = _acoustic_taus(tau[0, 1], tau[1, 1], u[0, 1], u[1, 1], u2s, a2)
    u_r[1], u_r[2], u_r[3], u_r[6], u_r[7] = u1m, u1s, u1s, u2s, u2s
    e = internal_energy_of(rho, p, gamma, p_inf)
    ends = np.array([tau, p, e]).reshape(3, 4, -1).take(_END_OF_REGION, axis=1)
    # with the other ordering the regions beside phase 1's contacts trade
    # places, and its middle region lies right of its contact
    regions[:2, 1:4:2] = np.where(flip, regions[:2, 3:0:-2], regions[:2, 1:4:2])
    np.copyto(ends[:, 2], ends[:, 3], where=flip)
    # the Lagrangian relations to each region's end state (tau0, p0, e0):
    # pi = p0 + a^2 (tau0 - tau) and E = u^2/2 + e0 + (pi^2 - p0^2) / (2 a^2),
    # which give p0 and u0^2/2 + e0 exactly at the end state itself
    tau0, p0, e0 = ends
    a_sq = (a ** 2).take(_PHASE_OF_REGION, axis=0)
    np.subtract(tau0, tau_r, out=pi)
    pi *= a_sq
    pi += p0
    np.square(u_r, out=E)
    E *= 0.5
    E += e0
    # the last term in the buffers of tau0 and p0, which are not read again
    np.square(pi, out=tau0)
    tau0 -= np.square(p0, out=p0)
    a_sq *= 2.0
    tau0 /= a_sq
    E += tau0
    return breaks, regions


def build_solution(pair, eos1: EosParams, eos2: EosParams, params: RelaxParams,
                   precomputed: SharpQuantities | None = None,
                   columns: tuple | None = None) -> RelaxRiemannSolution:
    """Solve the interface Riemann problems of ``pair``, the (2, 7, k) array
    of ``interface_pair``, for already-feasible parameters.

    Raises EosDomainError if the pair leaves the EOS domain
    (``check_pair``), and SolverError if the existence condition does not
    hold (callers are expected to have selected parameters first).
    ``precomputed`` and ``columns`` are private to
    ``scheme.select_parameters``, which passes the pair it checked, the
    sharp quantities it formed on it and the ``phase_columns`` it looked up:
    the pair is then neither checked again nor are the predictors and their
    ordering formed again, since selection solves every round on the same
    pair, and a check per round would cost more than the solve saves.  The
    existence condition is checked either way.  Public callers leave both
    None.  The EOS is evaluated with the unchecked kernels.
    Intermediate specific volumes are returned whatever their sign: their
    positivity is one of the predicates ``scheme.select_parameters`` climbs
    a2 for.  The solution is one-dimensional.
    """
    if precomputed is None:
        check_pair(pair, eos1, eos2)
        s = sharp_quantities(pair, params)
    else:
        s = precomputed
    if columns is None:
        columns = phase_columns(eos1, eos2)
    # the existence condition and the ordering hold in the original frame:
    # the window and the coincident band are symmetric under reflection
    if not s.feasible.all():
        raise SolverError("existence condition violated; select parameters before solving")
    flip = s.ordering < 0
    sign = np.where(flip, -1.0, 1.0)
    a = np.empty((2, flip.size))
    a[0], a[1] = params.a1, params.a2

    # a reflected interface swaps its sides and negates their velocities,
    # and reflection maps the predictors exactly: u and u_cap flip sign, pi
    # is untouched, the tau predictors swap sides
    al, ar = np.where(flip, pair[::-1, 0], pair[:, 0])
    taus = np.array([s.tau_sharp1_l, s.tau_sharp1_r])
    tau_l, tau_r = np.where(flip, taus[::-1], taus)
    u_sharp1, u_sharp2 = sign * s.u_sharp1, sign * s.u_sharp2
    ctx = _context(al, ar, sign * (s.u_sharp1 - s.u_sharp2), s.pi_sharp1 - s.pi_sharp2,
                   tau_l, tau_r, sign * s.lambda_alpha, *a)
    coincident = s.ordering == 0
    equal_frac = al == ar
    # without a fraction jump the scalar equation is the identity, so the
    # root is the right-hand side itself; taking it exactly (and the
    # phase-2 star speed verbatim below) decouples the phases bitwise
    # (rhs clipped to [0, 1] as np.clip clips it: np.maximum with the bound
    # first keeps rhs where the two tie, so -0.0 stays -0.0)
    m_star = np.where(coincident, 0.0, np.minimum(np.maximum(0.0, ctx.rhs), 1.0))
    # so is the Mach map: with equal fractions mach_conservative(m) is m and
    # mach_cap(m) >= m, so mach(m) = m; the coincident ordering has m = 0
    mach = m_star.copy()
    # solve_star's bracket check sees only the jumping interfaces; the others
    # could not fail it, since coincident ones have no equation to solve and
    # with equal fractions psi(1) >= 1 > rhs
    jump = (~(coincident | equal_frac)).nonzero()[0]
    if jump.size:
        m_star[jump], mach[jump] = solve_star(ctx.at(jump))
    u2s = np.where(equal_frac, u_sharp2, u_sharp1 - a[0] * tau_l * m_star)

    # coupling pressure: defined only when the phase fraction jumps, that is
    # where ar - al != 0, which for finite fractions is where ar != al
    pi1_star = np.where(equal_frac, np.nan, s.pi_sharp2 - a[1] * ((1.0 - al) + (1.0 - ar))
                        / np.where(equal_frac, 1.0, ar - al) * (u2s - u_sharp2))

    # the sides' density, velocity and pressure of both phases
    breaks, regions = _tables(pair.take(RHO_U_P, axis=1), a, *columns, u_sharp1,
                              tau_l, tau_r, m_star, mach, ctx.nu, u2s, flip, sign)
    # each contact speed is the velocity of the middle region(s) beside it
    return RelaxRiemannSolution(
        params=params, ordering=s.ordering,
        u1_star=regions[1, 2], u2_star=regions[1, 6], pi1_star=pi1_star,
        alpha1_l=pair[0, 0], alpha1_r=pair[1, 0], breaks=breaks, regions=regions)


def sample(sol: RelaxRiemannSolution, xi, side: str = "+"):
    """State at self-similar speed ``xi``; the right limit at a wave speed.

    Returns ``(alpha1, table)``: the phase fraction, and the (4, 2, n) table
    of (tau, u, pi, E) of both phases, phase axis second, the layout that
    ``scheme._trace_flux`` reads.  ``side='-'`` takes the left limit instead
    (used for the flux traces): a break at ``xi`` counts as passed for the
    right limit and not for the left one; any other ``side`` raises
    ValueError.  Both phases are looked up together, in one ``take`` from
    the region table.
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    xi = np.asarray(xi, dtype=float)
    if side == "+":
        on_left_of_coupling, passed = xi < sol.u2_star, sol.breaks <= xi
    else:
        on_left_of_coupling, passed = xi <= sol.u2_star, sol.breaks < xi
    # per phase a count of at most four breaks: int8 holds it and sums fastest
    rows = passed.sum(axis=1, dtype=np.int8) + _FIRST_REGION
    n = sol.regions.shape[-1]
    table = sol.regions.reshape(4, -1).take(rows * n + np.arange(n), axis=1)
    return np.where(on_left_of_coupling, sol.alpha1_l, sol.alpha1_r), table


def region_tables(sol: RelaxRiemannSolution) -> dict:
    """Every region of a solved row, for tests and audits: views of its arrays.

    Keys are ``breaks``, ``tau``, ``u``, ``pi`` and ``E`` with the phase
    number appended (``tau1``, ``E2``, ...); region axis first, breaks in
    ascending order.
    """
    tables = {}
    for k, (rows, cut) in enumerate(zip(_PHASE_ROWS, _PHASE_BREAKS)):
        tables[f"breaks{k + 1}"] = sol.breaks[k, cut]
        for name, table in zip(("tau", "u", "pi", "E"), sol.regions):
            tables[f"{name}{k + 1}"] = table[rows]
    return tables

"""Relaxation finite-volume scheme: parameter selection, fluxes, time marching.

The update is the two-flux form ``U_j^{n+1} = U_j - (dt/dx) (F-(U_j, U_{j+1})
- F+(U_{j-1}, U_j))``.  Components 1-5 of F-/F+ are the relaxation-system
flux traces at 0-/0+ plus the coupling-wave Dirac contribution on the side it
crosses; both energy components take the 0+ trace plus the upwinded
``u2* pi1*`` correction that restores total-energy conservation.  Partial
masses, mixture momentum and mixture energy are conservative by construction.
"""
from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eos import EosParams, internal_energy_of, lagrangian_sound_speed_of, phase_columns
from .riemann import (RelaxRiemannSolution, SolverError, build_solution, check_pair, sample,
                      sharp_quantities)
from .state import (P, RHO, VARIABLES, AdmissibilityError, ConservedState, PrimitiveState,
                    to_conserved, to_primitive, validate_conserved)


#: inflation factor of the parameters: the Whitham-like start and each climb
#: past a threshold are (1 + ETA) times the value they exceed
ETA = 0.01
#: rounds of a2 climbs each interface may take, and the growth
#: (1 + ETA)**MAX_INFLATIONS (about 2.1e4) each climb may make, before
#: selection reports the interface (read at each call).  The cap turns a
#: runaway search into a diagnosable error.  An a1 climb takes no round: one
#: stacked root evaluation gives its threshold, and one evaluation of both
#: phases' predictors checks it.  On rows of 250 hard pairs (near-vacuum
#: phases, velocities in +-4) one selection calls build_solution at most 8
#: times.  The growth must accommodate locally supersonic relative
#: velocities where alpha1 jumps and strong compressions of a phase.  Where
#: alpha1 does not jump the window does not bind, so case 2's cold phase 1
#: (rho1 = 1, p1 = 0.01) slipping through phase 2 faster than its sound
#: speed takes no climb: cases 1-5 climb neither parameter at 200 or 800
#: cells, and the census's largest climbs grow a1 36-fold and a2 34-fold.
MAX_INFLATIONS = 1000
#: the signs of the left and right rows of a (2, k) side stack
_SIDES = np.array([[1.0], [-1.0]])


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
        if isinstance(self.cells, bool) or not isinstance(self.cells, numbers.Integral):
            raise ValueError(f"cells must be an integer, got {self.cells!r}")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if len(self.domain) != 2 or not -math.inf < self.domain[0] < self.domain[1] < math.inf:
            raise ValueError("domain must be (a, b), finite with a < b")
        if self.scheme not in ("relaxation", "rusanov"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.entropy_audit and self.scheme != "relaxation":
            raise ValueError("the entropy audit needs the relaxation scheme")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and >= 0")

    @cached_property
    def dx(self) -> float:
        """The mesh spacing, formed at the first read and kept."""
        return (self.domain[1] - self.domain[0]) / self.cells


class InterfaceError(SolverError):
    """SolverError at interface ``j`` of ``pair`` (its two (7, k) sides), whose
    states the message gives; ``what`` is the failure and ``interface`` is ``j``."""

    def __init__(self, what, pair, j):
        left, right = pair
        super().__init__(f"{what} at interface {j}; left={_dump(left, j)} right={_dump(right, j)}")
        self.what, self.interface = what, j


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


def _volume_least(taus, du, dp, lam, k):
    """Largest root in ``a`` of the two quadratics that give the positivity
    of a phase's specific volumes beside its middle wave (the a2 threshold),
    as one evaluation of their (2, k) stack; ``taus`` stacks the end states'.

    With ``du = uR - uL``, ``dp = pR - pL`` and the middle wave at ``u_sharp
    + lam du/2 + k/a``, where ``u_sharp`` is the phase's star predictor, the
    volumes times ``a^2`` are ``tauL a^2 + (1 + lam)(du/2) a + k - dp/2`` and
    ``tauR a^2 + (1 - lam)(du/2) a + dp/2 - k``.  With ``lam = k = 0`` they
    are the tau predictors.
    """
    return np.maximum.reduce(_largest_root(taus, (1.0 + lam * _SIDES) * du / 2.0,
                                           np.array([k - dp / 2.0, dp / 2.0 - k])))


def _a1_least(pair, s, a):
    """a1 above which phase 1's tau predictors are positive and, where alpha1
    jumps, ``u_cap`` lies inside its window at the interfaces of ``pair``,
    with a2 that of the relaxation parameters ``a`` (a (2, k) array of (a1,
    a2)) and phase 2's predictors those of ``s``.

    Multiplied by ``a1 (1 + (a1/a2)|lambda|)``, each bound of the window is a
    quadratic in a1 too: its constant terms cancel.  With the tau predictors'
    two (``_volume_least``'s at ``lam = k = 0``) they are one (4, k) stack.
    Where alpha1 does not jump, the window's two roots are dropped (-inf).
    """
    taus, (left, right) = 1.0 / pair[:, 1], pair[:, 2:4]
    # phase 1's velocity and pressure: jumps, and means
    jumps, means = right - left, 0.5 * (left + right)
    lam, a2 = s.lambda_alpha, a[1]
    g, h = np.abs(lam) / a2, lam * jumps[0] / (2.0 * a2)
    c0 = means[0] - s.u_sharp2 - lam * (means[1] - s.pi_sharp2) / a2
    (half_du, half_dp), (g_du, g_dp) = 0.5 * jumps, 0.5 * g * jumps
    roots = _largest_root(
        np.concatenate((taus, g * taus)), np.array([half_du, half_du, *(taus + g_du - h * _SIDES)]),
        np.array([0.0 - half_dp, half_dp, half_du - g_dp - c0, c0 + half_du + g_dp]))
    roots[2:, pair[0, 0] == pair[1, 0]] = -np.inf
    return np.maximum.reduce(roots)


def _climb_ladder(pair, a, idx, grow, least):
    """Raise a1 or a2 (``grow`` is 1 or 2) past ``least`` at interfaces ``idx``
    of ``pair``, where the relaxation parameters are ``a``, the (2, k) array
    of (a1, a2): new parameters, a copy of ``a`` with row ``grow - 1``
    written at ``idx``.

    Every predicate is the positivity of quadratics in the climbing
    parameter (for a2, with the coupling term of its last solve held fixed),
    so it holds above the largest of their roots, ``least``.  Each
    interface takes ``(1 + ETA) max(base, least)``, ``base`` its value
    before the climb: a margin of ETA above the threshold, and a growth of
    at least ``1 + ETA`` where rounding puts the threshold below the value
    that failed.  A growth beyond
    ``(1 + ETA)**MAX_INFLATIONS`` is reported as an error.
    """
    a = a.copy()
    base = a[grow - 1, idx]
    value = (1.0 + ETA) * np.maximum(base, least)
    over = value > (1.0 + ETA) ** MAX_INFLATIONS * base
    if over.any():
        raise InterfaceError(f"non-subsonic or infeasible interface: a{grow} inflation cap "
                             "exceeded", pair, int(idx[np.argmax(over)]))
    a[grow - 1, idx] = value
    return a


#: the intermediate regions: phase 1's regions 1-3 and phase 2's 1-2
_MIDDLE_REGIONS = np.array([1, 2, 3, 6, 7])


def _whitham_start(rho, p, gamma, p_inf):
    """The parameters' Whitham-like start ``(1 + ETA) rho c`` at ``(rho, p)``
    (unchecked), from which selection climbs."""
    return (1.0 + ETA) * lagrangian_sound_speed_of(rho, p, gamma, p_inf)


def select_parameters(pair, eos1: EosParams, eos2: EosParams) -> RelaxRiemannSolution:
    """Pick per-interface relaxation parameters (a1, a2) for ``pair``, the
    (2, 7, k) array of ``riemann.interface_pair``, and return the solved
    Riemann problem, whose ``a`` holds them as a (2, k) float array, phase 1
    first.

    Both start from the Whitham-like bound (1 + ETA) max(rho c) over the two
    end states, formed as one (phase, interface) array on the pair's (side,
    phase) rows, and each climbs for one predicate:

    1. a1, for the existence condition: phase 1's tau predictors are
       positive and, where alpha1 jumps, ``u_cap`` lies inside its window
       (``_a1_least``).  Where alpha1 does not jump, each phase is its own
       single-phase Suliciu problem, which needs positive tau predictors
       only (Bouchut 2004), so the window does not bind there;
    2. a2, for the solution: every intermediate specific volume is positive
       and finite (``_volume_least`` of phase 2's volumes beside the coupling
       wave, with the coupling term of the failing solve held fixed).

    Each climb takes its parameter from ``base`` to ``(1 + ETA) max(base,
    least)``, the threshold one root evaluation of stacked quadratics.  The a1 threshold
    is exact, and a1 is checked once, by one evaluation of both phases'
    predictors: an a1 climb is a short pass.  The a2 threshold
    is exact where alpha1 does not jump and an estimate where it does, which
    the next round's solve checks.  An interface that fails predicate 2
    takes a1 from its Whitham start again (row 0 of ``a`` is reset
    there), so ``a`` does not depend on the order of the climbs.  A
    climb beyond the growth cap, an a1 climb after which the existence
    condition still fails, and an interface failing predicate 2 after
    MAX_INFLATIONS rounds are reported as errors.
    Each interface climbs on its own, so its parameters and its solution do
    not depend on the rest of the row: every round solves the whole row, an
    interface that passed keeps its parameters and its bits, and the first
    round with no failing interface gives the solution.  Parameters and
    solution are one-dimensional.  The pair is checked once (``check_pair``:
    EosDomainError outside the EOS domain, ValueError for another shape),
    before any parameter is formed; every round's ``build_solution`` takes
    it with the sharp quantities formed on it and the phase columns, looked
    up once, so it checks nothing again; the predictors, the thresholds and
    the errors read its rows.
    """
    check_pair(pair, eos1, eos2)
    columns = phase_columns(eos1, eos2)
    # the start of both phases, the larger of the two sides' on the (side,
    # phase) rows
    start = _whitham_start(pair[:, RHO], pair[:, P], *columns).max(axis=0)
    a = start
    for _ in range(MAX_INFLATIONS + 1):
        s = sharp_quantities(pair, a)
        bad = (~s.feasible).nonzero()[0]
        if bad.size:
            a = _climb_ladder(pair, a, bad, 1, _a1_least(pair, s, a)[bad])
            s = sharp_quantities(pair, a)
            missed = (~s.feasible).nonzero()[0]
            if missed.size:
                raise InterfaceError("a1 climbed past its threshold, yet its predicate fails",
                                     pair, int(missed[0]))
        sol = build_solution(pair, eos1, eos2, a, precomputed=s, columns=columns)
        tau = sol.regions[0].take(_MIDDLE_REGIONS, axis=0)
        ok = (tau > 0.0) & (tau < np.inf)
        if ok.all():
            return sol
        bad = ~ok.all(axis=0)
        (du, dp), lam = pair[1, 5:] - pair[0, 5:], s.lambda_alpha  # phase 2's jumps
        k = (sol.u2_star - s.u_sharp2 - lam * du / 2.0) * a[1]
        least = _volume_least(1.0 / pair[:, 4], du, dp, lam, k)[bad]
        # a1 restarts where the solve failed
        retry = a.copy()
        np.copyto(retry[0], start[0], where=bad)
        a = _climb_ladder(pair, retry, bad.nonzero()[0], 2, least)
    raise InterfaceError("non-subsonic or infeasible interface: a2 inflation cap exceeded",
                         pair, int(np.argmax(bad)))


def _dump(side, j):
    """The state of interface ``j`` of ``side``, (7, k) rows in ``VARIABLES`` order."""
    return "{" + ", ".join(f"{k}={float(v[j]):.6g}" for k, v in zip(VARIABLES, side)) + "}"


def _trace_flux(alpha1, table):
    """Components 1-6 of the physical flux, as a (6, n) array, of a state
    given by ``alpha1`` and ``table``, the (4, 2, n) table of (tau, u, pi,
    E) of both phases, phase axis second: ``sample``'s result of a trace.
    Each of the three formulas (mass, momentum, energy) is evaluated once,
    on the (2, n) phase stack."""
    tau, u, pi, E = table
    al = np.array([alpha1, 1.0 - alpha1])
    out = np.empty((3,) + tau.shape)
    np.divide(al * u, tau, out=out[0])
    np.multiply(al, u * u / tau + pi, out=out[1])
    np.multiply(al * (E / tau + pi), u, out=out[2])
    return out.reshape(6, -1)


def assemble_fluxes(sol: RelaxRiemannSolution) -> np.ndarray:
    """Numerical fluxes of a solved interface row of k interfaces: the (2, 7,
    k) array of their - and + fluxes, components in ``ConservedState`` field
    order."""
    gm = _trace_flux(*sample(sol, 0.0, side="-"))
    gp = _trace_flux(*sample(sol, 0.0, side="+"))
    dal = sol.alpha1_r - sol.alpha1_l
    u2s = sol.u2_star
    pi1s = np.where(dal == 0.0, 0.0, sol.pi1_star)
    u2s_pos = np.maximum(u2s, 0.0)
    u2s_neg = np.minimum(u2s, 0.0)
    # the coupling terms: work of pi1* on each side of the coupling wave
    left = (u2s < 0.0) * pi1s * dal
    right = (u2s > 0.0) * pi1s * dal
    neg = u2s_neg * pi1s * dal
    pos = u2s_pos * pi1s * dal
    f = np.empty((2, 7, u2s.size))
    f[0, 0], f[1, 0] = u2s_neg * dal, 0.0 - u2s_pos * dal
    f[0, 1:3], f[1, 1:3] = gm[:2], gp[:2]
    f[0, 3], f[0, 4], f[0, 5], f[0, 6] = gm[2] - left, gm[3] + left, gp[4] - neg, gp[5] + neg
    f[1, 3], f[1, 4], f[1, 5], f[1, 6] = gp[2] + right, gp[3] - right, gp[4] + pos, gp[5] - pos
    return f


#: the first and the last break of each phase, as rows of the breaks of
#: both phases flattened: phase 1 has four breaks, phase 2 three
_OUTER_BREAKS = np.array([0, 3, 4, 6])


def cfl_dt(sol: RelaxRiemannSolution, dx: float, cfl: float):
    """Time step from the fastest wave of a solved interface row, read off
    the solution alone.

    The outermost breaks of each phase are its acoustic speeds
    ``u_L - a tau_L`` and ``u_R + a tau_R``, which bound every other wave.
    """
    if not 0.0 < cfl < 0.5:
        raise ValueError("cfl must lie in (0, 0.5)")
    outer = sol.breaks.reshape(8, -1).take(_OUTER_BREAKS, axis=0)
    smax = float(np.abs(outer).max(initial=0.0))
    if smax == 0.0:
        raise SolverError("fully degenerate field: zero wave speeds")
    return cfl * dx / smax


def _pad_edges(rows):
    """Transmissive ghost cells: the k rows of length n of ``rows`` (an array
    or a sequence) between copies of their edge values, in one new array."""
    out = np.empty((len(rows), rows[0].size + 2))
    out[:, 1:-1] = rows
    out[:, 0], out[:, -1] = out[:, 1], out[:, -2]
    return out


class MarchRows:
    """The rows that a march owns, formed from the state ``cells`` of the
    phases ``eos`` = (eos1, eos2); ``cells`` is copied, never written:

    - ``w``, the primitive row between transmissive ghost cells, (7, n + 2),
      formed by ``to_primitive``, which validates ``cells``;
    - ``window`` = (a, b), the interfaces [a, b] that the next ``step``
      solves: from the one before the first wave interface, whose two states
      differ in some field, to the one after the last, or (0, 0) where there
      is none;
    - ``u``, the conserved stack, (7, n), whose rows ``cells`` views;
    - ``families``, the ``FAMILIES`` entrywise, (4, n);
    - ``energies``, the specific internal energy of each phase, (2, n);
    - ``columns``, the ``phase_columns`` of ``eos``, looked up once.

    ``splice`` is the one writer of the rows: a step (``step`` or
    ``rusanov_step``) reads them and returns its new cells, and ``splice``
    stores those and brings the other rows in line on them, so a relaxation
    step and its bookkeeping cost the window rather than the row.  A step
    that raises leaves the rows as they were.
    """

    def __init__(self, cells: ConservedState, eos1: EosParams, eos2: EosParams):
        self.eos = eos1, eos2
        self.columns = phase_columns(eos1, eos2)
        n = np.size(cells.alpha1)
        self.w = np.empty((7, n + 2))
        self.families, self.energies = np.empty((4, n)), np.empty((2, n))
        self.splice(slice(0, n), cells.stack())

    def splice(self, updated: slice, new):
        """Store the conserved values ``new``, (7, b - a), of the cells
        ``updated`` = [a, b) and bring the rows in line with them: the
        primitives of [a, b) (``to_primitive`` validates them) and both
        ghost cells, then ``window`` from the interfaces [a, b], the only
        ones beside a changed cell, and the families and energies of [a, b).
        Every other entry keeps its bits, since its cells did, and every
        other interface stays calm."""
        a, b = updated.start, updated.stop
        if b - a == self.families.shape[1]:
            # a whole new row becomes u rather than being copied into it:
            # the copy is bitwise too, but once every per-step temporary is
            # freed the allocator trims the heap top and faults it back in
            # the next step (about 7 times the minor page faults of a
            # 3200-cell Rusanov march)
            self.u, self.cells = new, ConservedState(*new)
        else:
            self.u[:, a:b] = new
        w = self.w
        w[:, a + 1:b + 1] = to_primitive(ConservedState(*new), *self.eos).astuple()
        w[:, 0], w[:, -1] = w[:, 1], w[:, -2]
        waves = (w[:, a:b + 1] != w[:, a + 1:b + 2]).any(axis=0).nonzero()[0]
        self.window = (a + int(waves[0]) - 1, a + int(waves[-1]) + 1) if waves.size else (0, 0)
        _family_values(new, out=self.families[:, a:b])
        self.energies[:, a:b] = internal_energy_of(w[RHO, a + 1:b + 1], w[P, a + 1:b + 1],
                                                   *self.columns)

    def totals(self):
        """The families summed over the row: each row of ``families`` is
        reduced as ``np.sum`` reduces it on its own, bit for bit."""
        return np.add.reduce(self.families, axis=-1)

    def minima(self):
        """The ``StepRecord`` minima of the row, in its field order; the
        densities (rows ``RHO`` of ``w``) are read as a view.  As ``fl(1 -
        x)`` falls with ``x``, min alpha2 is ``1 - max alpha1`` exactly."""
        alpha1 = self.u[0]
        return (float(alpha1.min()), float(1.0 - alpha1.max()),
                *self.w[RHO, 1:-1].min(axis=1).tolist(), *self.energies.min(axis=1).tolist())


@dataclass
class StepInfo:
    """A step of length ``dt`` whose window is the interfaces [a, b]:
    ``fluxes`` holds their - and + fluxes, shape (2, 7, b - a + 1), and the
    step changes the cells ``updated`` = [a, b) only, to the conserved
    values ``new``, (7, b - a), which ``MarchRows.splice`` stores.  Every
    interface left of ``a`` carries the fluxes of ``a``, and every one right
    of ``b`` those of ``b``.  A Rusanov step's window is the whole row, ``a
    = 0``.  ``sol`` is the relaxation solution of every interface of the
    window, the mesh interfaces ``a + arange(b - a + 1)`` in order, and
    ``fluxes`` is its ``assemble_fluxes``; it is None for the Rusanov
    scheme."""

    dt: float
    fluxes: np.ndarray
    a: int
    new: np.ndarray
    sol: RelaxRiemannSolution | None = None

    @property
    def updated(self) -> slice:
        return slice(self.a, self.a + self.fluxes.shape[-1] - 1)

    def ends(self):
        """The flux through the right and through the left domain end, the
        columns of a (7, 2) conserved stack: the window's end columns."""
        return np.array((self.fluxes[0, :, -1], self.fluxes[1, :, 0])).T


def step(rows: MarchRows, cfg: RunConfig, dt_cap: float = np.inf) -> StepInfo:
    """One explicit relaxation update with transmissive boundaries of the
    march's rows ``rows``, on the mesh spacing ``cfg.dx``; dt is at most
    ``dt_cap``.

    Only the cells beside a wave interface, whose two states differ in some
    field, can change.  The window is ``rows.window``, the interfaces [a,
    b] from the one before the first wave interface to the one after the
    last (both 0 on a fully calm row); interfaces 0 and n lie between a cell
    and its ghost copy, so they are never waves and the window stays in the
    mesh.  Every
    interface left of ``a`` carries the state of ``a``, and every one right
    of ``b`` that of ``b``.  The relaxation Riemann problem is solved at
    every interface of the window, calm ones between two waves and its two
    calm ends included, on one contiguous (2, 7, b - a + 1) pair of slices
    of the padded primitive row; ``assemble_fluxes`` of that solution is
    ``StepInfo.fluxes`` and ``cfl_dt`` reads dt off it.  The cells outside
    ``[a, b)``, whose two fluxes are the same floats, keep their bits.

    A calm interface, whose exact solution is its constant state, is solved
    like any other.  Its tau predictors are its own specific volumes and
    alpha1 does not jump there, so it meets the existence condition at its
    Whitham start and takes no climb, however fast its phases slip.  Its
    alpha1 "-" flux, ``u2* * 0``, is -0.0 where u2* is negative, which
    changes no cell's bits.  A uniform field marches bitwise unchanged.

    The step reads the padded primitive row, the window and the conserved
    stack of ``rows`` and writes nothing: it returns the new values of the
    cells [a, b) as ``StepInfo.new``, and the caller stores them and brings
    the other rows, the next window among them, in line with
    ``rows.splice(info.updated, info.new)``.  ``rusanov_step`` takes
    ``rows`` alike.

    Returns the step's ``StepInfo``.  Raises AdmissibilityError with the
    offending cell's mesh index if the post-state leaves the admissible region,
    which signals a bug or a CFL breach rather than a recoverable condition.
    A selection failure is reported as an InterfaceError at its mesh
    interface ``a + j``, from the pair of the whole row.  Either way the
    rows are left as they were.
    """
    (eos1, eos2), dx = rows.eos, cfg.dx
    w, (a, b) = rows.w, rows.window
    try:
        sol = select_parameters(np.array((w[:, a:b + 1], w[:, a + 1:b + 2])), eos1, eos2)
    except InterfaceError as err:
        raise InterfaceError(err.what, (w[:, :-1], w[:, 1:]), a + err.interface) from None
    dt = min(cfl_dt(sol, dx, cfg.cfl), dt_cap)
    f = assemble_fluxes(sol)
    new = rows.u[:, a:b] - dt / dx * (f[0, :, 1:] - f[1, :, :-1])
    try:
        validate_conserved(ConservedState(*new), eos1, eos2)
    except AdmissibilityError as err:
        raise AdmissibilityError(err.what, a + err.index, f"post-step, dt={dt:.3e}") from None
    return StepInfo(dt=dt, fluxes=f, a=a, new=new, sol=sol)


@dataclass(frozen=True)
class InitialData:
    """Riemann-type initial data: left state for x < x0, right state beyond;
    ``x0`` must be finite."""

    x0: float
    left: PrimitiveState
    right: PrimitiveState

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


@dataclass
class StepRecord:
    """What ``run`` records of one step.  Its fields, in order, are the
    columns of ``harness.write_diagnostics_csv`` (``bn-relax run --log``)."""

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


class EntropyAudit:
    """The per-cell discrete entropy balance of both phases of a relaxation
    march on the rows ``rows`` (``MarchRows``), each phase's mass flux
    upwinded by its contact speed.  It keeps the mathematical entropy of
    each phase between transmissive ghost cells, (2, n + 2), and the
    partial masses times it, (2, n), and brings both in line on the cells a
    step changed, so a step's audit costs its window."""

    def __init__(self, rows: MarchRows):
        self.rows = rows
        self.s = _pad_edges(self._entropies(0, rows.u.shape[1]))
        self.ms = rows.u[1:3] * self.s[:, 1:-1]

    def _entropies(self, a, b):
        """Each phase's entropy of the cells [a, b), from the rows' densities
        and energies."""
        rows = self.rows
        return np.array([eos.entropy(rho, e) for eos, rho, e in
                         zip(rows.eos, rows.w[RHO, a + 1:b + 1], rows.energies[:, a:b])])

    def slack(self, info: StepInfo, lam: float) -> float:
        """The most positive balance over its scale of the step ``info``
        (``lam`` is dt/dx), after ``MarchRows.splice``.  Only the cells
        [a, b) of its window are balanced: every other cell keeps its bits
        and its two fluxes are the same floats, so its balance is 0.0
        exactly, which ``initial`` stands for.  The window's interfaces are
        upwinded by the contact speeds ``u1_star`` and ``u2_star`` of the
        step's solution."""
        a, b = info.updated.start, info.updated.stop
        s, ms, sol = self.s, self.ms, info.sol
        fm = info.fluxes[0, 1:3]
        upwind = np.array((sol.u1_star, sol.u2_star)) > 0.0
        phi = fm * np.where(upwind, s[:, a:b + 1], s[:, a + 1:b + 2])
        new = self._entropies(a, b)
        ms_new = self.rows.u[1:3, a:b] * new
        balance = ms_new - ms[:, a:b] + lam * (phi[:, 1:] - phi[:, :-1])
        scale = np.maximum(1.0, np.maximum(np.abs(ms[:, a:b]),
                                           lam * (np.abs(phi[:, 1:]) + np.abs(phi[:, :-1]))))
        s[:, a + 1:b + 1], ms[:, a:b] = new, ms_new
        s[:, 0], s[:, -1] = s[:, 1], s[:, -2]
        return float(np.max(balance / scale, initial=0.0 if b - a < ms.shape[1] else -np.inf))


#: the conserved families that ``run`` audits, in the order of ``_family_values``;
#: the keys of ``RunResult.conservation_error`` and fields of ``StepRecord``
FAMILIES = ("mass1", "mass2", "momentum", "energy")


def _family_values(u, out=None):
    """Partial masses, mixture momentum and mixture energy of a conserved
    stack ``u``, rows in ``ConservedState`` field order, entrywise: a (4, k)
    array, written into ``out`` if given."""
    out = np.empty((4, u.shape[1])) if out is None else out
    out[:2] = u[1:3]
    np.add(u[3::2], u[4::2], out=out[2:])     # (q1, eta1) + (q2, eta2)
    return out


def _project_initial(init: InitialData, cfg: RunConfig, eos1, eos2) -> ConservedState:
    """Cell averages of the two-state data on the mesh of ``cfg`` (exact
    split in a straddling cell), validated as the initial data."""
    uL = to_conserved(init.left, eos1, eos2).stack()
    uR = to_conserved(init.right, eos1, eos2).stack()
    edges = cfg.domain[0] + cfg.dx * np.arange(cfg.cells + 1)
    frac_left = np.clip((init.x0 - edges[:-1]) / cfg.dx, 0.0, 1.0)
    u = uL[:, None] * frac_left + uR[:, None] * (1.0 - frac_left)
    cells = ConservedState(*u)
    validate_conserved(cells, eos1, eos2, where="initial data")
    return cells


def run(initial: InitialData, cfg: RunConfig, eos1: EosParams, eos2: EosParams) -> RunResult:
    """March the scheme to ``cfg.t_final``; the last step lands on it exactly.

    Per step the record captures dt, the totals of the ``FAMILIES`` and the
    minima entering the admissibility proof.  Conservation of each family is
    audited against the fluxes through the two domain ends; with
    ``cfg.entropy_audit`` the per-cell discrete entropy balance of both
    phases is accumulated as well (``EntropyAudit``).

    The march owns its rows (``MarchRows``) with either scheme, and each
    step takes only them, the config and the time left: it returns the new
    values of the cells it changes (``StepInfo.new`` on ``StepInfo.updated``),
    a relaxation step those of its window and a Rusanov step the whole row,
    and ``MarchRows.splice`` stores them, converts them, updates the families
    and energies there and sets the next window.  The totals and minima are
    reductions of the owned rows.  The conservation audit reads only the two
    end columns of the step's record (``StepInfo.ends``), and the entropy
    audit only the step's window.

    A step that the final time does not cap and whose dt is at most machine
    epsilon times ``cfg.t_final`` raises SolverError: at least 1/eps steps
    would remain, so the march would never end.
    """
    from . import rusanov  # deferred: rusanov reuses this runner

    x = cfg.domain[0] + cfg.dx * (np.arange(cfg.cells) + 0.5)
    records = []
    relaxation = cfg.scheme == "relaxation"
    advance = step if relaxation else rusanov.rusanov_step
    # the baseline's alpha-gradient terms do not telescope, so only its
    # mass families admit an audit against the end fluxes
    audited = len(FAMILIES) if relaxation else 2
    drift = np.zeros(len(FAMILIES))
    entropy_slack = -np.inf
    t = 0.0
    nstep = 0
    # the projection is not kept: held through a 3200-cell Rusanov march
    # (case 1 to t_max / 2), it raised the minor page faults from 145,872 to
    # 222,549 and the benchmark's Rusanov wall time by about 10 %
    rows = MarchRows(_project_initial(initial, cfg, eos1, eos2), eos1, eos2)
    totals = rows.totals()
    audit = EntropyAudit(rows) if cfg.entropy_audit else None
    # a time step this small, unless the final time caps it, leaves at
    # least 1/eps steps to go: the march would not end
    dt_floor = sys.float_info.epsilon * cfg.t_final
    tic = time.perf_counter()
    while t < cfg.t_final:
        totals_old = totals
        info = advance(rows, cfg, dt_cap=cfg.t_final - t)
        dt = info.dt
        if dt <= dt_floor and dt < cfg.t_final - t:
            raise SolverError(f"time step collapsed: step {nstep + 1} at t = {t:.6e} took "
                              f"dt = {dt:.6e} <= eps * t_final = {dt_floor:.6e}")
        rows.splice(info.updated, info.new)
        totals, minima = rows.totals(), rows.minima()
        lam = dt / cfg.dx
        # the families' flux through the right end and through the left one
        ends = _family_values(info.ends())
        drift = np.maximum(drift, np.abs(totals - totals_old + lam * (ends[:, 0] - ends[:, 1]))
                           / np.maximum(1.0, np.abs(totals_old)))
        if audit is not None:
            entropy_slack = max(entropy_slack, audit.slack(info, lam))
        t += dt
        nstep += 1
        records.append(StepRecord(nstep, t, dt, *totals.tolist(), *minima))
    wall = time.perf_counter() - tic

    return RunResult(
        x=x, cells=rows.cells, prim=to_primitive(rows.cells, eos1, eos2), t=t, steps=nstep,
        wall_time=wall, records=records,
        conservation_error={name: float(drift[k]) if k < audited else 0.0
                            for k, name in enumerate(FAMILIES)},
        entropy_slack=entropy_slack,
    )

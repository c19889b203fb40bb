import dataclasses
import math
import re

import numpy as np
import pytest

from bn_relax import (AdmissibilityError, EosDomainError, EosParams, InitialData, PrimitiveState,
                      RunConfig, SolverError, WaveOrdering, assemble_fluxes, build_solution, cfl_dt,
                      get_case, interface_pair, region_tables, run, rusanov, rusanov_step, sample,
                      scheme, select_parameters, sharp_quantities, step, to_conserved,
                      to_primitive)
from bn_relax.eos import (internal_energy_of, lagrangian_sound_speed_of, phase_columns,
                          sound_speed_squared_of)
from bn_relax.riemann import SharpQuantities
from bn_relax.scheme import ETA, MAX_INFLATIONS, MarchRows, StepRecord
from bn_relax.state import VARIABLES, ConservedState
from conftest import SAMPLED, fields, fresh_step, random_primitive, rng_of
import frozen_audit
import frozen_climb
import frozen_predictors
from test_scripts import load as load_script
from frozen_audit import whole_rows

IDEAL = EosParams(1.4)
STIFF = EosParams(3.0, 100.0)


def sc(x):
    return np.asarray(x).reshape(-1)[0].item()


def flux_vector(w: PrimitiveState, eos1, eos2):
    """Exact single-state flux of the governing system (first component zero)."""
    e1 = eos1.internal_energy(w.rho1, w.p1)
    e2 = eos2.internal_energy(w.rho2, w.p2)
    a1, a2 = w.alpha1, 1.0 - w.alpha1
    return np.array([
        0.0,
        a1 * w.rho1 * w.u1,
        a2 * w.rho2 * w.u2,
        a1 * (w.rho1 * w.u1 ** 2 + w.p1),
        a2 * (w.rho2 * w.u2 ** 2 + w.p2),
        a1 * (w.rho1 * (e1 + 0.5 * w.u1 ** 2) + w.p1) * w.u1,
        a2 * (w.rho2 * (e2 + 0.5 * w.u2 ** 2) + w.p2) * w.u2,
    ])


# ------------------------------------------------------------ parameter selection

def test_whitham_init_case1_interface():
    case = get_case(1)
    params = select_parameters(interface_pair(case.left, case.right), case.eos1, case.eos2).a
    # this interface is feasible straight from the (1 + eta) Whitham bound
    assert sc(params[0]) == pytest.approx(1.1516, abs=2e-4)
    rc_max = max(sc(case.eos2.lagrangian_sound_speed(case.left.rho2, case.left.p2)),
                 sc(case.eos2.lagrangian_sound_speed(case.right.rho2, case.right.p2)))
    assert sc(params[1]) == pytest.approx(1.01 * rc_max, rel=1e-12)


def test_uniform_data_zero_inflations():
    w = PrimitiveState(0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)
    params = select_parameters(interface_pair(w, w), IDEAL, IDEAL).a
    assert sc(params[0]) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(1.0, 1.0)),
                                          rel=1e-13)
    assert sc(params[1]) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(2.0, 0.8)),
                                          rel=1e-13)


def test_near_vacuum_interface_terminates():
    # case-3 star region sits near vacuum; the loop must still settle
    case = get_case(3)
    star = PrimitiveState(0.2, 0.0219, 0.0, 0.0019, 0.0219, 0.0, 0.0019)
    sol = select_parameters(interface_pair(case.left, star), case.eos1, case.eos2)
    params = sol.a
    assert np.all(np.isfinite(np.atleast_1d(params[1])))
    assert np.all(region_tables(sol)["tau2"][1:3] > 0.0)


def test_whitham_bound_always_respected(rng):
    w = random_primitive(rng, 60)
    wL, wR = w[slice(0, 30)], w[slice(30, 60)]
    params = select_parameters(interface_pair(wL, wR), IDEAL, IDEAL).a
    floor1 = np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                        IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))
    floor2 = np.maximum(IDEAL.lagrangian_sound_speed(wL.rho2, wL.p2),
                        IDEAL.lagrangian_sound_speed(wR.rho2, wR.p2))
    assert np.all(params[0] > floor1)
    assert np.all(params[1] > floor2)


def test_selection_is_row_independent(rng):
    # every interface climbs on its own: solving the whole row gives each
    # interface the bits it gets alone, on the a1 and a2 ladders and retries
    w = random_primitive(rng, 800)
    wL, wR = w[slice(0, 400)], w[slice(400, 800)]
    sol = select_parameters(interface_pair(wL, wR), IDEAL, IDEAL)
    params = sol.a
    tau1 = region_tables(sol)["tau1"]
    for j in range(400):
        sj = select_parameters(interface_pair(wL[j], wR[j]), IDEAL, IDEAL)
        pj = sj.a
        in_row = (params[0, j], params[1, j], tau1[:, j], sol.u2_star[j])
        alone = (pj[0], pj[1], region_tables(sj)["tau1"][:, 0], sj.u2_star)
        for got, want in zip(in_row, alone):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
    start1 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                                      IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))
    start2 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho2, wL.p2),
                                      IDEAL.lagrangian_sound_speed(wR.rho2, wR.p2))
    assert np.any(params[0] > start1) and np.any(params[1] > start2)


@pytest.mark.parametrize("bad_tau", [np.nan, np.inf])
def test_non_finite_intermediate_volume_takes_a_retry(monkeypatch, bad_tau):
    # a NaN or infinite intermediate specific volume is not a positive one:
    # the interface takes a positivity retry, as for a negative volume.  The
    # row is case 1's pair and two uniform pairs, none of which retries.  A
    # NaN u2* as well leaves no threshold: a2 climbs by one factor
    case = get_case(1)
    wL, wR = (PrimitiveState(*(np.array([getattr(a, v), getattr(b, v), getattr(c, v)], float)
                               for v in VARIABLES))
              for a, b, c in ((case.left, case.left, case.right),
                              (case.right, case.left, case.right)))
    plain = select_parameters(interface_pair(wL, wR), case.eos1, case.eos2)
    solve = scheme.build_solution
    for bad_u2_star in (False, True):
        calls = []

        def corrupt_first(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if not calls:
                sol.regions[0, 2, 0] = bad_tau
                if bad_u2_star:
                    sol.u2_star[0] = np.nan
            calls.append(sol)
            return sol

        monkeypatch.setattr(scheme, "build_solution", corrupt_first)
        sol = select_parameters(interface_pair(wL, wR), case.eos1, case.eos2)
        assert len(calls) > 1
        want = plain.a[1].copy()
        want[0] *= 1.0 + ETA
        assert sol.a[1].tobytes() == want.tobytes()
        assert sol.a[0].tobytes() == plain.a[0].tobytes()
        tables = region_tables(sol)
        assert np.all(np.isfinite(tables["tau1"])) and np.all(np.isfinite(tables["tau2"]))


def hard_row(rng, n):
    """One side of a row of pairs that climb both ladders often: alpha1
    log-uniform down to 1e-9 from either end, pressures 0.2-200 and
    velocities in +-4."""
    alpha = 10.0 ** rng.uniform(-9.0, np.log10(0.5), n)
    alpha = np.where(rng.random(n) < 0.5, alpha, 1.0 - alpha)
    pressure = 10.0 ** rng.uniform(np.log10(0.2), np.log10(200.0), (2, n))
    return PrimitiveState(alpha, rng.uniform(0.2, 3.0, n), rng.uniform(-4.0, 4.0, n),
                          pressure[0], rng.uniform(0.2, 3.0, n), rng.uniform(-4.0, 4.0, n),
                          pressure[1])


def hard_rows(rng, rows=6, n=250, equal_fractions=False):
    """Rows of ``hard_row`` pairs, half with a stiffened phase 2, as (wL, wR,
    eos2); with ``equal_fractions`` every other pair has equal alpha1."""
    out = []
    for r in range(rows):
        wL, wR = hard_row(rng, n), hard_row(rng, n)
        if equal_fractions:
            wR.alpha1[::2] = wL.alpha1[::2]
        out.append((wL, wR, (IDEAL, STIFF)[r % 2]))
    return out


def recorded_climbs(rng, monkeypatch, **rows):
    """Every ``_climb_ladder`` call made while selecting parameters on
    ``hard_rows``, as (arguments, returned params, the row's last solve
    before it), and the number of solves of each selection.  A solve is
    (arguments, keyword arguments, solution) of a ``build_solution`` call."""
    climbs, solves, per_call = [], [], []
    climb, solve = scheme._climb_ladder, scheme.build_solution

    def recording_climb(*args):
        out = climb(*args)
        climbs.append((args, out, solves[-1] if solves else None))
        return out

    def recording_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(scheme, "_climb_ladder", recording_climb)
    monkeypatch.setattr(scheme, "build_solution", recording_solve)
    for wL, wR, eos2 in hard_rows(rng, **rows):
        solves.clear()
        select_parameters(interface_pair(wL, wR), IDEAL, eos2)
        per_call.append(len(solves))
    monkeypatch.undo()
    return climbs, per_call


def holds_at(args, value):
    """The existence condition of a recorded climb of a1, with a1 set to
    ``value`` at the climbing interfaces."""
    pair, params, idx, _, _ = args
    a = np.array([value, params[1, idx]])
    return sharp_quantities(pair[:, :, idx], a).feasible


def climbed(args, out):
    """The values a climb chose for its interfaces."""
    _, _, idx, grow, _ = args
    return out[grow - 1, idx]


def whitham_a1(wL, wR):
    return (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                                    IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))


def rebuilt_a2_least(solve):
    """The a2 threshold of the interfaces failing a recorded solve: the
    largest root in a2 of its two phase-2 volumes beside the coupling wave
    times a2^2, with ``k``, the coupling wave's shift of u2* beyond
    ``lambda du/2`` times a2, held fixed."""
    (pair, _, _, sub), kwargs, sol = solve
    wl, wr = PrimitiveState(*pair[0]), PrimitiveState(*pair[1])
    s = kwargs["precomputed"]
    tau = sol.regions[0, [1, 2, 3, 6, 7]]
    bad = ~((tau > 0.0) & np.isfinite(tau)).all(axis=0)
    du, dp, lam = wr.u2 - wl.u2, wr.p2 - wl.p2, s.lambda_alpha
    k = (sol.u2_star - s.u_sharp2 - lam * du / 2.0) * sub[1]
    left = scheme._largest_root(1.0 / wl.rho2, (1.0 + lam) * (du / 2.0), k - dp / 2.0)
    right = scheme._largest_root(1.0 / wr.rho2, (1.0 - lam) * (du / 2.0), dp / 2.0 - k)
    return np.maximum(left, right)[bad]


def tau_sharp2(wL, wR, a2):
    """Phase 2's tau predictors: its volumes beside the coupling wave where
    alpha1 does not jump."""
    u_s = 0.5 * (wL.u2 + wR.u2) - (wR.p2 - wL.p2) / (2.0 * a2)
    return 1.0 / wL.rho2 + (u_s - wL.u2) / a2, 1.0 / wR.rho2 - (u_s - wR.u2) / a2


def test_ladder_climbs_eta_past_the_threshold(rng, monkeypatch):
    climbs = []
    for equal_fractions in (False, True):
        climbs += recorded_climbs(rng, monkeypatch, equal_fractions=equal_fractions)[0]
    assert {args[3] for args, _, _ in climbs} == {1, 2}
    assert sum(args[2].size for args, _, _ in climbs if args[3] == 1) > 200
    exact = flat_a1 = 0
    for args, out, solve in climbs:
        pair, params, idx, grow, least = args
        wL, wR = PrimitiveState(*pair[0]), PrimitiveState(*pair[1])
        base = params[grow - 1, idx]
        value = climbed(args, out)
        assert value.tobytes() == ((1.0 + ETA) * np.maximum(base, least)).tobytes()
        rest = np.ones(params[0].size, bool)
        rest[idx] = False
        if grow == 1:
            assert not np.any(holds_at(args, base))  # the start fails: that is why it climbs
            # the threshold is exact: the predicate holds above it and fails just below
            assert np.all(holds_at(args, value))
            assert not np.any(holds_at(args, (1.0 - 1e-6) * least))
            assert out[1].tobytes() == params[1].tobytes()
            # without a jump of alpha1 only phase 1's tau predictors climb it
            flat = wL.alpha1[idx] == wR.alpha1[idx]
            s = sharp_quantities(pair[:, :, idx], np.array([base, params[1, idx]]))
            assert np.all(np.minimum(s.tau_sharp1_l, s.tau_sharp1_r)[flat] <= 0.0)
            flat_a1 += np.count_nonzero(flat)
        else:
            # the threshold comes from the solve that failed, and a1 restarts
            assert least.tobytes() == rebuilt_a2_least(solve).tobytes()
            assert out[0, idx].tobytes() == whitham_a1(wL, wR)[idx].tobytes()
            assert np.array_equal(out[0, rest], params[0, rest])
            # without a jump of alpha1 the threshold is exact
            flat = wL.alpha1[idx] == wR.alpha1[idx]
            wl, wr = wL[idx[flat]], wR[idx[flat]]
            assert np.all(np.min(tau_sharp2(wl, wr, value[flat]), axis=0) > 0.0)
            assert np.all(np.min(tau_sharp2(wl, wr, (1.0 - 1e-6) * least[flat]), axis=0) <= 0.0)
            exact += np.count_nonzero(flat)
        # the other interfaces keep the climbing parameter
        assert np.array_equal(out[grow - 1][rest], params[grow - 1][rest])
    assert exact > 20 and flat_a1 > 20


def test_a1_climbs_from_its_start_at_the_returned_a2(rng):
    # a retry takes a1 from its Whitham start again, so the returned a1 is
    # one climb from that start at the returned a2, whatever the retries were
    for wL, wR, eos2 in hard_rows(rng):
        params = select_parameters(interface_pair(wL, wR), IDEAL, eos2).a
        start = whitham_a1(wL, wR)
        cand = np.array([start, params[1]])
        pair = interface_pair(wL, wR)
        s = sharp_quantities(pair, cand)
        ok = s.feasible
        want = np.where(ok, start, (1.0 + ETA) * np.maximum(start, scheme._a1_least(pair, s, cand)))
        assert params[0].tobytes() == want.tobytes()


def same_bytes(got, want):
    """Assert equal dtype, shape and bytes, field by field for sharp quantities."""
    if isinstance(want, SharpQuantities):
        for f in dataclasses.fields(want):
            same_bytes(getattr(got, f.name), getattr(want, f.name))
        return
    a, b = np.asarray(got), np.asarray(want)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def frozen_climb_checks(monkeypatch):
    """Check every threshold and every predictor evaluation of the
    selections that follow against ``frozen_climb``, bytes for bytes, and
    return what they saw: the orderings and the zero ``lambda_alpha`` after
    each a1 climb at the interfaces that climbed, the a1 thresholds 0 of
    pairs with no phase-1 jump (the root of ``b = c = 0``), and the numbers
    of a1 and a2 thresholds formed."""
    seen = dict(orderings=set(), lam_zero=0, flat_roots=0, a1=0, a2=0)
    a1_least, volume_least, predictors = (scheme._a1_least, scheme._volume_least,
                                          scheme.sharp_quantities)
    last = []

    def checked_a1_least(pair, s, params):
        least = a1_least(pair, s, params)
        same_bytes(least, frozen_climb.a1_least(pair, s, params))
        flat = (pair[1, 2:4] == pair[0, 2:4]).all(axis=0)
        seen["flat_roots"] += np.count_nonzero(flat & (least == 0.0))
        seen["a1"] += 1
        return least

    def checked_volume_least(taus, du, dp, lam, k):
        least = volume_least(taus, du, dp, lam, k)
        same_bytes(least, frozen_climb.volume_least(*taus, du, dp, lam, k))
        seen["a2"] += 1
        return least

    def checked_predictors(pair, params):
        s = predictors(pair, params)
        same_bytes(s, frozen_climb.sharp_quantities(pair, params))
        # an a1 climb keeps a2, which every later round of a selection has
        # climbed: so a call on the pair of the last call with its a2 follows
        # an a1 climb, and the last call was the round's first
        if last and last[-1][0] is pair and np.array_equal(params[1], last[-1][1][1]):
            climbed = params[0] != last[-1][1][0]
            seen["orderings"] |= set(s.ordering[climbed].tolist())
            seen["lam_zero"] += np.count_nonzero(s.lambda_alpha[climbed] == 0.0)
        last.append((pair, params))
        return s

    monkeypatch.setattr(scheme, "_a1_least", checked_a1_least)
    monkeypatch.setattr(scheme, "_volume_least", checked_volume_least)
    monkeypatch.setattr(scheme, "sharp_quantities", checked_predictors)
    return seen


def crafted_climbs():
    """A row of ideal-gas pairs: three that climb a1 and end with each
    ordering, and two that do not.  Case 2's cold phase 1 (rho1 = 1, p1 =
    0.01) moves through phase 2 across a jump of alpha1 from 0.8 to 0.7
    (u_cap < 0), then its mirror image does (u_cap > 0): both climb for the
    window.  Both phases collide at +-5 at equal fractions (u_cap = 0), which
    climbs for phase 1's tau predictors.  The pair at rest has no jump, so
    both roots of its tau predictors are signed zeros, one of them that of
    ``b = c = 0``; phase 1 expanding at equal pressures around phase 2 at
    rest has the threshold -0.0, the tau predictors' roots ``2c / (-b -
    |b|)`` of ``c = 0 - dp/2 = +0``.  The last three have equal fractions,
    so their window's roots are dropped."""
    cold = PrimitiveState(0.8, 1.0, -19.59741, 0.01, 1.6087, -6.3085, 466.72591)
    thinner = dataclasses.replace(cold, alpha1=0.7)
    colliding = PrimitiveState(0.5, 1.0, 5.0, 0.01, 1.0, 5.0, 1.0)
    rest = PrimitiveState(0.4, 1.0, 0.0, 1.0, 2.0, 0.0, 0.8)
    expanding = PrimitiveState(0.4, 1.0, -1.0, 1.0, 2.0, 0.0, 0.8)
    sides = [(cold, thinner), (thinner.mirrored(), cold.mirrored()),
             (colliding, colliding.mirrored()), (rest, rest), (expanding, expanding.mirrored())]
    return [PrimitiveState(*np.array([w.astuple() for w in side], dtype=float).T)
            for side in zip(*sides)]


def test_stacked_thresholds_and_kept_predictors_match_the_frozen_copy(rng, monkeypatch):
    # the a1 and a2 thresholds, each one stacked root evaluation, and the
    # predictors formed after an a1 climb, both phases in one evaluation,
    # give the bytes of one root evaluation per quadratic and of predictors
    # formed phase by phase:
    # on the hard rows (with and without equal fractions), on the gate
    # script's two hard rows, on a crafted row and on every step of case 2
    # at 200 cells, which climbs a1 on none: alpha1 does not jump where its
    # cold phase 1 slips through phase 2 faster than its sound speed
    gate = load_script("gate_digests")
    draw = np.random.default_rng(gate.HARD_SEED)
    rows = [(wL, wR, eos2) for equal in (False, True)
            for wL, wR, eos2 in hard_rows(rng, equal_fractions=equal)]
    rows += [(gate._hard_side(draw, gate.HARD_PAIRS), gate._hard_side(draw, gate.HARD_PAIRS),
              eos2) for eos2 in (IDEAL, STIFF)]
    rows.append((*crafted_climbs(), IDEAL))
    seen = frozen_climb_checks(monkeypatch)
    for wL, wR, eos2 in rows:
        select_parameters(interface_pair(wL, wR), IDEAL, eos2)
    assert seen["a2"] > 0
    hard = seen["a1"]
    case = get_case(2)
    run(case.initial, RunConfig(cells=200, t_final=case.t_max, domain=case.domain,
                                cfl=case.cfl), case.eos1, case.eos2)
    assert hard > 0 and seen["a1"] == hard             # case 2 climbs a1 on no step
    assert seen["orderings"] == {-1, 0, 1}
    assert seen["lam_zero"] > 0 and seen["flat_roots"] > 0


def test_retries_take_few_solves(rng, monkeypatch):
    # a2 climbs to a threshold, not by one factor per round
    per_call = recorded_climbs(rng, monkeypatch)[1]
    assert max(per_call) <= 16


def test_every_round_solves_the_whole_row(rng, monkeypatch):
    # each round of selection solves the whole row, and the first round with
    # no failing interface gives the solution: no subset is solved, and no
    # closing solve follows
    solve, solves = scheme.build_solution, []

    def recording_solve(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(scheme, "build_solution", recording_solve)
    retried = 0
    for wL, wR, eos2 in hard_rows(rng):
        solves.clear()
        sol = select_parameters(interface_pair(wL, wR), IDEAL, eos2)
        assert all(s.a[0].size == s.u2_star.size == wL.alpha1.size for s in solves)
        assert sol is solves[-1]
        retried += len(solves) > 1
    assert retried


@pytest.mark.parametrize("grow", [1])
def test_climb_short_of_its_threshold_is_an_error(rng, monkeypatch, grow):
    # a threshold computed too low leaves the predicate failing after the
    # climb: selection reports the interface instead of solving it
    least = getattr(scheme, f"_a{grow}_least")
    monkeypatch.setattr(scheme, f"_a{grow}_least", lambda *args: 0.5 * least(*args))
    with pytest.raises(SolverError, match=rf"a{grow} climbed past its threshold, yet its "
                                          r"predicate fails at interface \d+;"):
        select_parameters(interface_pair(hard_row(rng, 250), hard_row(rng, 250)), IDEAL, IDEAL)


def slip_pair(u_rel):
    """Three pairs of both phases at rest, with alpha1 = 0.5, rho = 1 and p
    = 1, but for the middle one: its phase 1 moves at ``u_rel`` through phase
    2 on both sides, across a jump of alpha1 from 0.5 to 0.5 + 1e-8."""
    left = np.tile([0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], (3, 1))
    left[1, 2] = u_rel
    right = left.copy()
    right[1, 0] += 1e-8
    return interface_pair(PrimitiveState(*left.T), PrimitiveState(*right.T))


def test_ladder_inflation_cap_is_an_error():
    # phase 1 moves through phase 2 at a relative speed u_rel in the middle
    # pair, across a jump of alpha1 small enough that a1 tau1 must exceed
    # about u_rel.  a1 starts at 1.01 rho1 c1 = 1.195: a relative speed of
    # 1e4 needs an 8.4e3-fold growth, within the 2.1e4-fold growth a climb
    # may make, and 1e5 needs more than that.  Without the jump neither
    # climbs, since the window binds only where alpha1 jumps
    params = select_parameters(slip_pair(1e4), IDEAL, IDEAL).a
    assert 1e4 < params[0, 1] < (1.0 + ETA) ** MAX_INFLATIONS * params[0, 0]
    with pytest.raises(SolverError, match=r"a1 inflation cap exceeded at interface 1;"):
        select_parameters(slip_pair(1e5), IDEAL, IDEAL)
    for u_rel in (1e4, 1e5):
        pair = slip_pair(u_rel)
        pair[1, 0] = pair[0, 0]
        kept = select_parameters(pair, IDEAL, IDEAL).a[0]
        assert kept.tobytes() == params[0, [0, 0, 0]].tobytes()


def test_eos_kernels_equal_the_checked_methods(rng):
    # the relaxation path evaluates the unchecked kernels once on a (2, k)
    # stack of both phases; on admissible states they give, bit for bit, what
    # the checked methods give phase by phase, and so on scalars
    for wL, wR, eos2 in hard_rows(rng):
        gamma, p_inf = phase_columns(IDEAL, eos2)
        for w in (wL, wR):
            rho, p = np.array([w.rho1, w.rho2]), np.array([w.p1, w.p2])
            e = internal_energy_of(rho, p, gamma, p_inf)
            rho_c = lagrangian_sound_speed_of(rho, p, gamma, p_inf)
            for k, eos in enumerate((IDEAL, eos2)):
                assert e[k].tobytes() == eos.internal_energy(rho[k], p[k]).tobytes()
                assert rho_c[k].tobytes() == eos.lagrangian_sound_speed(rho[k], p[k]).tobytes()
                c = np.sqrt(sound_speed_squared_of(rho[k], p[k], eos.gamma, eos.p_inf))
                assert c.tobytes() == eos.sound_speed(rho[k], p[k]).tobytes()
    for eos in (IDEAL, STIFF):
        for kernel, method in ((internal_energy_of, eos.internal_energy),
                               (lagrangian_sound_speed_of, eos.lagrangian_sound_speed)):
            got = kernel(1.3, 2.7, eos.gamma, eos.p_inf)
            assert np.float64(got).tobytes() == np.float64(method(1.3, 2.7)).tobytes()


@pytest.mark.parametrize("field, value", [("rho1", 0.0), ("rho1", -1.0), ("p2", -100.0),
                                          ("p2", -150.0), ("p1", np.nan)])
def test_public_solvers_reject_an_inadmissible_pair(field, value):
    # select_parameters and build_solution evaluate the unchecked EOS
    # kernels, so one check of the pair's densities and p + p_inf comes
    # first: an inadmissible pair raises EosDomainError, not NaN parameters
    good = PrimitiveState(0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    bad = dataclasses.replace(good, **{field: value})
    params = np.array([[3.0], [30.0]])
    for call in (lambda: select_parameters(interface_pair(good, bad), IDEAL, STIFF),
                 lambda: select_parameters(interface_pair(bad, good), IDEAL, STIFF),
                 lambda: build_solution(interface_pair(bad, good), IDEAL, STIFF, params),
                 lambda: build_solution(interface_pair(good, bad), IDEAL, STIFF, params)):
        with pytest.raises(EosDomainError, match=r"non-positive density or p \+ p_inf <= 0"):
            call()


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("entry", ["select_parameters", "build_solution"])
@pytest.mark.parametrize("field, value", [("u1", np.nan), ("u2", np.inf), ("alpha1", np.nan),
                                          ("alpha1", 1.5), ("rho1", np.inf), ("p2", np.inf)])
def test_public_solvers_check_the_whole_domain(field, value, entry, side):
    # the check of the pair covers every entry: a non-finite field or an
    # alpha1 outside (0, 1) raises EosDomainError naming it, before the
    # solver forms NaN predictors from it
    good = PrimitiveState(0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    bad = dataclasses.replace(good, **{field: value})
    pair = interface_pair(*((good, bad) if side else (bad, good)))
    params = np.array([[3.0], [30.0]])
    call = {"select_parameters": lambda: select_parameters(pair, IDEAL, STIFF),
            "build_solution": lambda: build_solution(pair, IDEAL, STIFF, params)}[entry]
    with pytest.raises(EosDomainError, match=rf"{field} of side {('left', 'right')[side]} "
                                             r"at interface 0"):
        call()


@pytest.mark.parametrize("shape", [(7, 3), (2, 7), (1, 7, 3), (2, 6, 3), (2, 7, 3, 1)])
def test_public_solvers_reject_a_pair_of_another_shape(shape):
    # a pair is (side, variable, interface); an admissible state in every
    # entry leaves the shape as the only fault
    pair = np.full(shape, 0.5)
    params = np.array([[3.0], [30.0]])
    for call in (lambda: select_parameters(pair, IDEAL, IDEAL),
                 lambda: build_solution(pair, IDEAL, IDEAL, params)):
        with pytest.raises(ValueError, match=r"shape \(2, 7, k\)"):
            call()


# ------------------------------------------------------------ fluxes

def test_uniform_fluxes_are_physical():
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    fx = assemble_fluxes(select_parameters(interface_pair(w, w), IDEAL, IDEAL))
    expect = flux_vector(w, IDEAL, IDEAL)
    assert np.allclose(np.asarray(fx[0], dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)
    assert np.allclose(np.asarray(fx[1], dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)


def test_flux_conservation_structure(rng):
    w = random_primitive(rng, 40)
    wL, wR = w[slice(0, 20)], w[slice(20, 40)]
    fx = assemble_fluxes(select_parameters(interface_pair(wL, wR), IDEAL, IDEAL))
    fm, fp = fx[0], fx[1]
    assert np.allclose(fm[1], fp[1], rtol=1e-13, atol=1e-14)       # partial masses
    assert np.allclose(fm[2], fp[2], rtol=1e-13, atol=1e-14)
    assert np.allclose(fm[3] + fm[4], fp[3] + fp[4], rtol=1e-12, atol=1e-13)  # mixture momentum
    assert np.allclose(fm[5] + fm[6], fp[5] + fp[6], rtol=1e-12, atol=1e-13)  # mixture energy


def stationary_contact_pair():
    wL = PrimitiveState(0.2, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0)
    wR = PrimitiveState(0.7, 0.5, 0.0, 1.0, 1.5, 0.0, 1.0)
    return wL, wR


def test_stationary_contact_fluxes_balance():
    wL, wR = stationary_contact_pair()
    fx = assemble_fluxes(select_parameters(interface_pair(wL, wR), IDEAL, IDEAL))
    # mass and energy fluxes vanish; momentum fluxes match the one-sided
    # exact fluxes so that neither neighbor cell changes
    for i in (1, 2, 5, 6):
        assert sc(fx[0][i]) == pytest.approx(0.0, abs=1e-14)
        assert sc(fx[1][i]) == pytest.approx(0.0, abs=1e-14)
    assert sc(fx[0][3]) == pytest.approx(sc(flux_vector(wL, IDEAL, IDEAL)[3]), rel=1e-13)
    assert sc(fx[1][3]) == pytest.approx(sc(flux_vector(wR, IDEAL, IDEAL)[3]), rel=1e-13)


def test_equal_fraction_fluxes_decouple(rng):
    # with no fraction jump the fluxes are two independent single-phase fluxes
    wL = PrimitiveState(0.35, 1.0, 0.2, 1.0, 2.0, -0.1, 0.7)
    wR = PrimitiveState(0.35, 0.8, 0.1, 1.2, 1.7, 0.2, 0.9)
    sol = select_parameters(interface_pair(wL, wR), IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    # swapping the OTHER phase's data must not change this phase's fluxes
    wL2 = PrimitiveState(0.35, wL.rho1, wL.u1, wL.p1, 1.1, 0.4, 1.3)
    wR2 = PrimitiveState(0.35, wR.rho1, wR.u1, wR.p1, 2.2, -0.3, 0.6)
    sol2 = select_parameters(interface_pair(wL2, wR2), IDEAL, IDEAL)
    fx2 = assemble_fluxes(sol2)
    for i in (1, 3):
        assert sc(fx[0][i]) == pytest.approx(sc(fx2[0][i]), rel=1e-12)
        assert sc(fx[1][i]) == pytest.approx(sc(fx2[1][i]), rel=1e-12)


def test_moving_coupled_contact_flux_exactness():
    # uniform velocity and pressure with fraction/density jumps: an exact
    # traveling coupling contact; one update must shift it by u0 dt exactly
    u0 = 0.4
    wL = PrimitiveState(0.2, 1.0, u0, 1.0, 2.0, u0, 1.0)
    wR = PrimitiveState(0.7, 0.5, u0, 1.0, 1.5, u0, 1.0)
    fxL = assemble_fluxes(select_parameters(interface_pair(wL, wL), IDEAL, IDEAL))
    fx = assemble_fluxes(select_parameters(interface_pair(wL, wR), IDEAL, IDEAL))
    fxR = assemble_fluxes(select_parameters(interface_pair(wR, wR), IDEAL, IDEAL))
    uL = to_conserved(wL, IDEAL, IDEAL).stack().ravel()
    uR = to_conserved(wR, IDEAL, IDEAL).stack().ravel()
    lam = 0.05
    updated_right = uR - lam * (np.ravel(fxR[0]) - np.ravel(fx[1]))
    exact_right = uR - lam * u0 * (uR - uL)
    assert np.allclose(updated_right, exact_right, rtol=1e-13, atol=1e-14)
    updated_left = uL - lam * (np.ravel(fx[0]) - np.ravel(fxL[1]))
    assert np.allclose(updated_left, uL, rtol=0, atol=1e-14)


def trace_fluxes(sol):
    """(F-, F+) of the sampled 0- and 0+ traces without the coupling terms.

    Components 1-4 of F- take the 0- trace and everything else the 0+ trace,
    as in ``assemble_fluxes``; component 0, the phase-fraction flux, is zero.
    """
    def flux(w):
        al1, al2 = w.alpha1, 1.0 - w.alpha1
        return np.stack([np.zeros_like(al1),
                         al1 * w.u1 / w.tau1, al2 * w.u2 / w.tau2,
                         al1 * (w.u1 * w.u1 / w.tau1 + w.pi1), al2 * (w.u2 * w.u2 / w.tau2 + w.pi2),
                         al1 * (w.E1 / w.tau1 + w.pi1) * w.u1, al2 * (w.E2 / w.tau2 + w.pi2) * w.u2])
    gm, gp = (flux(fields(sample(sol, 0.0, side))) for side in "-+")
    return np.concatenate([gm[:5], gp[5:]]), gp


def test_coupling_terms_zero_without_alpha_jump():
    wL = PrimitiveState(0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)
    wR = PrimitiveState(wL.alpha1, 0.7, 0.0, 1.2, 1.9, 0.1, 0.9)
    sol = select_parameters(interface_pair(wL, wR), IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    assert np.isnan(sc(sol.pi1_star))
    for got, trace in zip((fx[0], fx[1]), trace_fluxes(sol)):
        assert sc(got[0]) == 0.0
        for i in range(1, 7):
            assert sc(got[i]) == pytest.approx(sc(trace[i]), rel=1e-15, abs=1e-15), i


def test_coupling_terms_cancel_in_mixture_momentum_and_energy(rng):
    # the coupling wave moves momentum and energy between the phases, never
    # into or out of the mixture, and never adds to a partial mass
    w = random_primitive(rng, 400)
    sol = select_parameters(interface_pair(w[slice(0, 200)], w[slice(200, 400)]), IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    eps = np.finfo(float).eps
    for got, trace in zip((fx[0], fx[1]), trace_fluxes(sol)):
        coupling = got - trace
        assert np.all(coupling[1:3] == 0.0)
        for i in (3, 5):
            # each difference above rounds within an ulp of its terms
            ulps = 4.0 * eps * (np.abs(got[i]) + np.abs(got[i + 1]) + np.abs(trace[i])
                                + np.abs(trace[i + 1]))
            assert np.all(np.abs(coupling[i] + coupling[i + 1]) <= ulps), i
            assert np.any(np.abs(coupling[i]) > 1e-3), i


def table_sample(sol, xi, side):
    """``sample`` read off the original-frame region tables by the rule the
    whole-table sampler used: a break at ``xi`` counts as passed for the
    right limit (``breaks <= xi``) and not for the left one (``breaks < xi``)."""
    tables = region_tables(sol)
    cols = np.arange(sol.u2_star.size)
    on_left = (xi < sol.u2_star) | ((xi == sol.u2_star) & (side == "-"))
    table = np.empty((4, 2, cols.size))
    for k in (0, 1):
        breaks = tables[f"breaks{k + 1}"]
        idx = (breaks <= xi if side == "+" else breaks < xi).sum(axis=0)
        for i, name in enumerate(("tau", "u", "pi", "E")):
            table[i, k] = tables[f"{name}{k + 1}"][idx, cols]
    return np.where(on_left, sol.alpha1_l, sol.alpha1_r), table


def tie_row(rng, n):
    """Pairs whose waves sit exactly at speed 0, on either side of the
    reflection: ``n`` stationary contacts of both phases between different
    densities (half with an alpha1 jump), ``n`` with one phase at rest and
    the other moving at a random speed (equal fractions, so the contact at
    rest keeps speed 0 bitwise), ``n`` random pairs and ``n`` bitwise-uniform
    pairs."""
    zeros, p = np.zeros(n), rng.uniform(0.2, 3.0, n)
    rest_l, rest_r = (PrimitiveState(
        alpha1=alpha, rho1=rng.uniform(0.2, 3.0, n), u1=zeros, p1=p,
        rho2=rng.uniform(0.2, 3.0, n), u2=zeros, p2=p)
        for alpha in (np.full(n, 0.3), np.where(np.arange(n) % 2 == 0, 0.3, 0.6)))
    moving = random_primitive(rng, 2 * n)
    v, p1, p2 = rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)
    at_rest = np.arange(n) % 2 == 0      # which phase is at rest
    half_l, half_r = (PrimitiveState(
        alpha1=moving.alpha1[:n], rho1=moving.rho1[sl], u1=np.where(at_rest, 0.0, v), p1=p1,
        rho2=moving.rho2[sl], u2=np.where(at_rest, v, 0.0), p2=p2)
        for sl in (slice(0, n), slice(n, 2 * n)))
    general = random_primitive(rng, 2 * n)
    uniform = random_primitive(rng, n)
    parts_l = (rest_l, half_l, general[slice(0, n)], uniform)
    parts_r = (rest_r, half_r, general[slice(n, 2 * n)], uniform)
    return tuple(PrimitiveState(*(np.concatenate([getattr(w, f) for w in parts]) for f in VARIABLES))
                 for parts in (parts_l, parts_r))


def test_flux_traces_keep_the_one_sided_limit_at_ties(rng, monkeypatch):
    # waves at speed 0, of interfaces solved reflected and not: the traces
    # and the fluxes must equal, bitwise, those read off the region tables
    # by the one-sided rule, so a swapped limit or break would show
    wL, wR = tie_row(rng, 500)
    sol = select_parameters(interface_pair(wL, wR), IDEAL, IDEAL)
    tables = region_tables(sol)
    at_zero = (tables["breaks1"] == 0.0).any(axis=0) | (tables["breaks2"] == 0.0).any(axis=0)
    reflected = sol.ordering == WaveOrdering.ORDER_21
    assert np.count_nonzero(at_zero & reflected) > 100
    assert np.count_nonzero(at_zero & ~reflected) > 100
    assert np.count_nonzero(sol.ordering == WaveOrdering.COINCIDENT) > 100
    left, right = fields(table_sample(sol, 0.0, "-")), fields(table_sample(sol, 0.0, "+"))
    # the limits differ at the ties, so a swapped limit would show
    assert np.count_nonzero((left.tau1 != right.tau1) & reflected) > 100
    for side, want in (("-", left), ("+", right)):
        got = fields(sample(sol, 0.0, side))
        for field in SAMPLED:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (side, field)
    fluxes = assemble_fluxes(sol)
    monkeypatch.setattr(scheme, "sample", table_sample)
    reference = assemble_fluxes(sol)
    assert fluxes[0].tobytes() == reference[0].tobytes()
    assert fluxes[1].tobytes() == reference[1].tobytes()


def test_reflection_is_exact_for_whole_tables(rng):
    # the mirrored problem is solved in the other frame wherever the waves do
    # not coincide: its tables are the original's reversed, with speeds and
    # velocities negated, and its samples at -xi with the other limit are the
    # original's at xi, bit for bit, also at the wave speeds themselves
    reflected = 0
    for wL, wR, eos2 in hard_rows(rng):
        sol = select_parameters(interface_pair(wL, wR), IDEAL, eos2)
        mirrored = build_solution(interface_pair(wR.mirrored(), wL.mirrored()), IDEAL, eos2,
                                  sol.a)
        reflected += np.count_nonzero(sol.ordering == WaveOrdering.ORDER_21)
        tables, mirrored_tables = region_tables(sol), region_tables(mirrored)
        for key, table in tables.items():
            sign = -1.0 if key.startswith(("breaks", "u")) else 1.0
            assert (sign * mirrored_tables[key][::-1]).tobytes() == table.tobytes(), key
        speeds = [-3.0, -0.5, 0.0, 0.5, 3.0, *tables["breaks1"], *tables["breaks2"]]
        for xi in speeds:
            for side, other in (("+", "-"), ("-", "+")):
                got, want = fields(sample(mirrored, -xi, other)), fields(sample(sol, xi, side))
                for field in SAMPLED:
                    sign = -1.0 if field.startswith("u") else 1.0
                    assert (sign * getattr(got, field)).tobytes() == \
                        getattr(want, field).tobytes(), (side, field)
    assert reflected > 500


# ------------------------------------------------------------ time step

def rest_cell_solution():
    """Both interfaces of one uniform rest cell with tau = 1, solved with a = 2."""
    w = PrimitiveState(*(np.full(2, v) for v in (0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)))
    params = np.array([[2.0, 2.0], [2.0, 2.0]])
    return build_solution(interface_pair(w, w), IDEAL, IDEAL, params)


def test_cfl_dt_hand_value():
    # a tau = 2.0 on both interfaces
    dt = cfl_dt(rest_cell_solution(), dx=0.01, cfl=0.45)
    assert dt == pytest.approx(0.45 * 0.01 / 2.0, rel=1e-14)


def test_cfl_dt_rejects_bad_courant():
    with pytest.raises(ValueError):
        cfl_dt(rest_cell_solution(), 0.01, 0.5)


def test_cfl_dt_equals_padded_cell_speeds(rng):
    # the outer breaks of the solved row are the speeds u -+ a tau of the
    # edge-padded cells bit for bit, also at reflected and coincident
    # interfaces; a stationary contact in the row is coincident.  The row is
    # also mirrored and its phases swapped, so that the fastest speed comes
    # from each phase and each side
    w = random_primitive(rng, 40)
    cL, cR = stationary_contact_pair()
    row = PrimitiveState(*(np.concatenate([getattr(w, v), [getattr(cL, v), getattr(cR, v)]])
                           for v in VARIABLES))
    mirrored = PrimitiveState(*(v[::-1] for v in (getattr(row.mirrored(), f) for f in VARIABLES)))
    for cells in (row, mirrored):
        for swap in (False, True):
            if swap:
                cells = PrimitiveState(1.0 - cells.alpha1, cells.rho2, cells.u2, cells.p2,
                                       cells.rho1, cells.u1, cells.p1)
            padded = PrimitiveState(*(np.concatenate([v[:1], v, v[-1:]])
                                      for v in (getattr(cells, f) for f in VARIABLES)))
            sol = select_parameters(interface_pair(padded[:-1], padded[1:]), IDEAL, IDEAL)
            params = sol.a
            assert np.any(sol.ordering == WaveOrdering.ORDER_21)
            assert np.any(sol.ordering == WaveOrdering.COINCIDENT)
            speeds = []
            for u, rho, a in ((padded.u1, padded.rho1, params[0]),
                              (padded.u2, padded.rho2, params[1])):
                tau = 1.0 / rho
                speeds += [np.max(np.abs(u[:-1] - a * tau[:-1])),
                           np.max(np.abs(u[1:] + a * tau[1:]))]
            assert cfl_dt(sol, 0.01, 0.45) == 0.45 * 0.01 / max(speeds)


def test_step_satisfies_cfl_inequality():
    case = get_case(1)
    cfg = RunConfig(cells=50, t_final=case.t_max, domain=case.domain, cfl=case.cfl)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    # every recorded dt came from cfl * dx / S with cfl < 1/2, so the strict
    # half bound of the interaction-free condition holds by construction
    dx = (case.domain[1] - case.domain[0]) / cfg.cells
    assert all(r.dt > 0 for r in res.records)
    assert max(r.dt for r in res.records) < 0.5 * dx / 1.0  # speeds exceed 1 in case 1


# ------------------------------------------------------------ stepping

def grid_of(w: PrimitiveState, n):
    return PrimitiveState(*(np.full(n, getattr(w, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))


def test_uniform_field_unchanged():
    # every interface is calm, so the window is interface 0 alone, which
    # keeps the Whitham-like start of the parameters: the field marches
    # bitwise unchanged, and dt comes from that start
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    cells = to_conserved(grid_of(w, 16), IDEAL, IDEAL)
    cfg = RunConfig(cells=16, t_final=1.0, domain=(0.0, 1.0))
    out, info = fresh_step(step, cells, cfg, IDEAL, IDEAL)
    assert out.stack().tobytes() == cells.stack().tobytes()
    assert (info.a, info.fluxes.shape, info.updated) == (0, (2, 7, 1), slice(0, 0))
    # |u_k| + (1 + ETA) rho_k c_k / rho_k, with 1 / rho_k formed first as in
    # the outer breaks u -+ a tau of a solved interface
    speed = max(abs(u) + (1.0 + ETA) * sc(IDEAL.lagrangian_sound_speed(rho, p)) * (1.0 / rho)
                for u, rho, p in ((w.u1, w.rho1, w.p1), (w.u2, w.rho2, w.p2)))
    assert info.dt == cfg.cfl * (1.0 / 16) / speed


def padded_row(w: PrimitiveState):
    """The cells of ``w`` between transmissive ghost cells."""
    return PrimitiveState(*(np.concatenate([v[:1], v, v[-1:]])
                            for v in (getattr(w, f) for f in VARIABLES)))


def test_calm_interfaces_take_the_physical_flux():
    # a mid-run row of case 1: step solves every interface of its window,
    # and the whole rows the window expands to are the fluxes a whole-row
    # solve gives, bit for bit, calm interfaces (bitwise equal states)
    # included.  There the solve gives the physical flux of the state
    case = get_case(1)
    cfg = RunConfig(cells=200, t_final=case.t_max / 2, domain=case.domain, cfl=case.cfl)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    _, info = fresh_step(step, res.cells, cfg, case.eos1, case.eos2)
    padded = padded_row(res.prim)
    full = assemble_fluxes(select_parameters(interface_pair(padded[:-1], padded[1:]), case.eos1,
                                             case.eos2))
    calm = np.flatnonzero((padded.stack()[:, :-1] == padded.stack()[:, 1:]).all(axis=0))
    assert 50 < calm.size < 150
    for got, want in zip(whole_rows(info, 201), full):
        assert got.tobytes() == want.tobytes()
        assert np.all(got[0, calm] == 0.0)
        for j in calm:
            assert np.allclose(got[:, j], flux_vector(padded[j], case.eos1, case.eos2),
                               rtol=1e-14, atol=0.0), j


@pytest.mark.parametrize("eos2", [IDEAL, STIFF], ids=["ideal", "stiffened"])
def test_calm_speed_is_the_outer_break_of_the_start(rng, eos2):
    # a uniform pair solved as a Riemann problem keeps the start that
    # selection takes: it climbs for neither parameter, also where its
    # phases slip faster than (1 + ETA) c1, since alpha1 does not jump.  Its
    # fastest outer break is the largest acoustic speed |u_k| + a_k tau_k of
    # that start, bitwise, with tau_k = 1 / rho_k formed first
    w = random_primitive(rng, 2000)
    sol = select_parameters(interface_pair(w, w), IDEAL, eos2)
    start = [(1.0 + ETA) * eos.lagrangian_sound_speed(rho, p)
             for eos, rho, p in ((IDEAL, w.rho1, w.p1), (eos2, w.rho2, w.p2))]
    assert sol.a[0].tobytes() == start[0].tobytes()
    assert sol.a[1].tobytes() == start[1].tobytes()
    supersonic = np.abs(w.u1 - w.u2) > start[0] * (1.0 / w.rho1)
    assert 200 < np.count_nonzero(supersonic) < 2000
    outer = np.abs(sol.breaks[[0, 0, 1, 1], [0, 3, 0, 2]]).max(axis=0)
    speeds = np.maximum(np.abs(w.u1) + start[0] * (1.0 / w.rho1),
                        np.abs(w.u2) + start[1] * (1.0 / w.rho2))
    assert outer.tobytes() == speeds.tobytes()


def test_calm_pair_beyond_the_subsonic_window_marches_unchanged(monkeypatch):
    # case 2's cold phase 1 (rho1 = 1, p1 = 0.01) moving through phase 2 at
    # |u1 - u2| > (1 + ETA) c1, so u_cap lies outside phase 1's window.
    # alpha1 does not jump, so the pair keeps its start: no climb, and phase
    # 1's outer breaks are the acoustic speeds of that start.  Phase 2 moves
    # right of phase 1's fan, so phase 1's copy of the coupling break lies
    # at its right acoustic wave, after its contact.  A uniform row of
    # it solves its window, interface 0, likewise: no step climbs, each takes
    # the start's dt, and the field stays bitwise unchanged
    case = get_case(2)
    w = PrimitiveState(0.8, 1.0, -19.59741, 0.01, 1.6087, -6.3085, 466.72591)
    assert abs(w.u1 - w.u2) > (1.0 + ETA) * case.eos1.sound_speed(w.rho1, w.p1)
    grows = []
    climb = scheme._climb_ladder
    monkeypatch.setattr(scheme, "_climb_ladder", lambda *args: grows.append(args[3]) or climb(*args))
    sol = select_parameters(interface_pair(w, w), case.eos1, case.eos2)
    a1_start = (1.0 + ETA) * sc(case.eos1.lagrangian_sound_speed(w.rho1, w.p1))
    assert grows == [] and sol.a[0][0] == a1_start
    outer = w.u1 + np.array([-1.0, 1.0]) * (a1_start * (1.0 / w.rho1))
    assert sol.breaks[0, [0, 3], 0].tobytes() == outer.tobytes()
    assert sol.ordering[0] == -1 and sol.u2_star[0] > sol.breaks[0, 3, 0]
    assert sol.breaks[0, 2, 0] == sol.breaks[0, 3, 0]
    cells = to_conserved(grid_of(w, 16), case.eos1, case.eos2)
    cfg = RunConfig(cells=16, t_final=1.0, domain=(0.0, 1.0), cfl=case.cfl)
    kept = cfl_dt(sol, 1.0 / 16, case.cfl)
    # the march's primitives, to_primitive's of its cells, and their start
    prim = to_primitive(cells, case.eos1, case.eos2)
    start = (1.0 + ETA) * case.eos1.lagrangian_sound_speed(prim.rho1[0], prim.p1[0])
    out = cells
    for _ in range(3):
        out, info = fresh_step(step, out, cfg, case.eos1, case.eos2)
        assert info.dt == kept
        assert info.sol.a[0].tobytes() == np.array([start]).tobytes()
    assert out.stack().tobytes() == cells.stack().tobytes()
    assert grows == []


def test_step_error_names_the_mesh_interface():
    # the middle cell's phase 1 moves at 1e5 into the next cell's phase 1 at
    # rest: there its left tau predictor needs a1 of about 5e4, beyond the
    # growth cap of a1 (see test_ladder_inflation_cap_is_an_error).  Only
    # interfaces 1 to 4 of the mesh are solved; the error names the mesh's
    # interface 3, not its position 2 among the solved ones
    cells = np.tile([0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], (5, 1))
    cells[2, 2] = 1e5
    u = to_conserved(PrimitiveState(*cells.T), IDEAL, IDEAL)
    with pytest.raises(SolverError, match=r"a1 inflation cap exceeded at interface 3; "
                                          r"left=\{alpha1=0.5, rho1=1, u1=100000, "):
        fresh_step(step, u, RunConfig(cells=5, t_final=1.0), IDEAL, IDEAL)


def assert_frozen_message(caught, site, what, pair, j):
    """Assert that ``caught`` holds an ``InterfaceError`` raised in the
    function ``site`` at interface ``j`` of ``pair``, whose message is the
    frozen one of ``PrimitiveState`` views of the pair's two sides."""
    err = caught.value
    wL, wR = PrimitiveState(*pair[0]), PrimitiveState(*pair[1])
    assert caught.traceback[-1].name == site
    assert str(err) == frozen_predictors.interface_error_message(what, wL, wR, j)
    assert (err.what, err.interface) == (what, j)


def test_interface_error_messages_keep_their_bytes(rng, monkeypatch):
    # every raise site of selection, and step's re-raise at the mesh
    # interface, gives the message the view-based error gave.  The climb's
    # growth cap: the middle pair of test_ladder_inflation_cap_is_an_error,
    # whose alpha1 jumps
    pair = slip_pair(1e5)
    cap = "non-subsonic or infeasible interface: a1 inflation cap exceeded"
    with pytest.raises(scheme.InterfaceError) as caught:
        select_parameters(pair, IDEAL, IDEAL)
    assert_frozen_message(caught, "_climb_ladder", cap, pair, 1)
    # step's re-raise names the mesh interface of its padded primitive row:
    # the rows of test_step_error_names_the_mesh_interface
    cells = np.tile([0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], (5, 1))
    cells[2, 2] = 1e5
    u = to_conserved(PrimitiveState(*cells.T), IDEAL, IDEAL)
    w = MarchRows(u, IDEAL, IDEAL).w
    with pytest.raises(scheme.InterfaceError) as caught:
        fresh_step(step, u, RunConfig(cells=5, t_final=1.0), IDEAL, IDEAL)
    assert_frozen_message(caught, "step", cap, np.array([w[:, :-1], w[:, 1:]]), 3)
    # an a1 threshold computed too low (test_climb_short_of_its_threshold_is_an_error)
    least = scheme._a1_least
    with monkeypatch.context() as patch:
        patch.setattr(scheme, "_a1_least", lambda *args: 0.5 * least(*args))
        pair = interface_pair(hard_row(rng, 250), hard_row(rng, 250))
        with pytest.raises(scheme.InterfaceError) as caught:
            select_parameters(pair, IDEAL, IDEAL)
    assert_frozen_message(caught, "select_parameters",
                          "a1 climbed past its threshold, yet its predicate fails", pair,
                          caught.value.interface)
    # the rounds run out: every solve has a NaN volume at interface 0, which
    # takes an a2 climb per round, each within the cap
    solve = scheme.build_solution

    def corrupt(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.regions[0, 2, 0] = np.nan
        return sol

    case = get_case(1)
    pair = interface_pair(*(PrimitiveState(*(np.array([getattr(a, v), getattr(b, v)], float)
                                             for v in VARIABLES))
                            for a, b in ((case.left, case.left), (case.right, case.left))))
    monkeypatch.setattr(scheme, "build_solution", corrupt)
    monkeypatch.setattr(scheme, "MAX_INFLATIONS", 3)
    with pytest.raises(scheme.InterfaceError) as caught:
        select_parameters(pair, case.eos1, case.eos2)
    assert_frozen_message(caught, "select_parameters",
                          "non-subsonic or infeasible interface: a2 inflation cap exceeded", pair, 0)


def full_row_step(cells, prim, cfl, eos1, eos2, dx):
    """(updated cells, (f_minus, f_plus), dt) by the whole-row formula:
    every interface solved and every cell updated."""
    padded = padded_row(prim)
    sol = select_parameters(interface_pair(padded[:-1], padded[1:]), eos1, eos2)
    fm, fp = assemble_fluxes(sol)
    dt = cfl_dt(sol, dx, cfl)
    return cells.stack() - dt / dx * (fm[:, 1:] - fp[:, :-1]), (fm, fp), dt


def wave_interfaces(prim):
    """The mesh interfaces of the cells ``prim`` whose two states differ in
    some field, transmissive ghost cells at both ends."""
    w = padded_row(prim).stack()
    return np.flatnonzero((w[:, :-1] != w[:, 1:]).any(axis=0))


def mid_run(cid, cells, t_frac):
    """(config, conserved cells, primitive cells) of case ``cid`` at ``t_frac`` t_max."""
    case = get_case(cid)
    cfg = RunConfig(cells=cells, t_final=case.t_max * t_frac, domain=case.domain, cfl=case.cfl)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    return cfg, res.cells, res.prim


def window_rows():
    """Three rows as (config, cells, primitives, eos1, eos2), the primitives
    ``to_primitive``'s of the cells, as in the rows of a march: a case-1 row
    whose window lies inside the mesh, a late case-2 row whose window
    reaches the left end and holds calm interfaces, and four cells of four
    states."""
    for cid, t_frac in ((1, 0.5), (2, 0.75)):
        case = get_case(cid)
        yield (*mid_run(cid, 200, t_frac), case.eos1, case.eos2)
    cells = to_conserved(random_primitive(np.random.default_rng(4), 4), IDEAL, IDEAL)
    yield RunConfig(cells=4, t_final=1.0), cells, to_primitive(cells, IDEAL, IDEAL), IDEAL, IDEAL


def assert_step_is_the_whole_row_step(cfg, cells, prim, eos1, eos2):
    """Assert that a step on ``cells`` (primitives ``prim``) gives the dt,
    the cells and both flux rows of ``full_row_step`` bit for bit, and that
    the cells outside its window keep their bits; return its StepInfo."""
    out, info = fresh_step(step, cells, cfg, eos1, eos2)
    want, (fm, fp), dt = full_row_step(cells, prim, cfg.cfl, eos1, eos2, cfg.dx)
    assert info.dt == dt
    assert out.stack().tobytes() == want.tobytes()
    f_minus, f_plus = whole_rows(info, cfg.cells + 1)
    assert (f_minus.tobytes(), f_plus.tobytes()) == (fm.tobytes(), fp.tobytes())
    a, b = info.updated.start, info.updated.stop
    u, new = cells.stack(), out.stack()
    for part in (slice(0, a), slice(b, None)):
        assert new[:, part].tobytes() == u[:, part].tobytes()
    return info


def test_step_updates_the_wave_window_only():
    windows = []
    for cfg, cells, prim, eos1, eos2 in window_rows():
        info = assert_step_is_the_whole_row_step(cfg, cells, prim, eos1, eos2)
        a, b = info.updated.start, info.updated.stop
        waves = wave_interfaces(prim)
        assert (a, b) == (waves[0] - 1, waves[-1] + 1)
        calm_inside = np.setdiff1d(np.arange(a + 1, b), waves).size
        windows.append((a, b, cfg.cells, calm_inside))
    (a1, b1, n1, _), (a2, b2, n2, calm2), (a3, b3, n3, _) = windows
    assert 0 < a1 and b1 < n1                       # strictly inside the mesh
    assert (a2 == 0 or b2 == n2) and calm2 > 0      # reaches an end, calm inside
    assert (a3, b3) == (0, n3)                      # the whole row


def plateau_row(rng, n, states=4):
    """The primitive stack of ``n`` cells made of runs of 1-5 cells of a few
    random ideal-gas states, so that a step's window holds calm plateaus.
    Every other state moves a cold phase 1 (p1 = 0.01, c1 about 0.1 at
    rho1 up to 2) through phase 2 at a slip of 1-2: faster than (1 + ETA)
    c1, so a pair of two such cells has ``u_cap`` outside phase 1's
    window."""
    alpha1, rho1, rho2 = rng.uniform([[0.1], [0.5], [0.5]], [[0.9], [2.0], [2.0]], (3, states))
    u1, u2, p1, p2 = rng.uniform([[-1.0], [-1.0], [0.5], [0.5]], [[1.0], [1.0], [2.0], [2.0]],
                                 (4, states))
    slip = np.arange(states) % 2 == 1
    p1[slip] = 0.01
    u1[slip] = u2[slip] + rng.choice([-1.0, 1.0], slip.sum()) * rng.uniform(1.0, 2.0, slip.sum())
    table = np.array([alpha1, rho1, u1, p1, rho2, u2, p2])
    runs = rng.integers(0, states, n), rng.integers(1, 6, n)
    return table[:, np.repeat(*runs)[:n]]


def test_step_on_calm_plateaus_equals_the_whole_row_solve(rng):
    # rows of runs of a few states, some of whose pairs slip supersonically
    # in phase 1: the step, which solves its window only, gives the cells,
    # both flux rows and the dt of the solve of every interface of the row,
    # bit for bit, and the cells outside its window keep their bits.  No
    # calm pair of the window climbs a1, the supersonic ones included, since
    # alpha1 does not jump there
    cfg = RunConfig(cells=24, t_final=1.0, domain=(0.0, 1.0))
    supersonic_calm = 0
    for _ in range(12):
        cells = to_conserved(PrimitiveState(*plateau_row(rng, cfg.cells)), IDEAL, IDEAL)
        # the primitives of a march's rows: to_primitive's of its cells
        prim = to_primitive(cells, IDEAL, IDEAL)
        info = assert_step_is_the_whole_row_step(cfg, cells, prim, IDEAL, IDEAL)
        a, b = info.updated.start, info.updated.stop
        w = padded_row(prim).stack()[:, a:b + 2]
        calm = (w[:, :-1] == w[:, 1:]).all(axis=0)
        start = (1.0 + ETA) * IDEAL.lagrangian_sound_speed(w[1, :-1], w[3, :-1])
        assert info.sol.a[0][calm].tobytes() == start[calm].tobytes()
        supersonic_calm += np.count_nonzero(calm & (np.abs(w[2, :-1] - w[5, :-1])
                                                    > start * (1.0 / w[1, :-1])))
    assert supersonic_calm > 10


@pytest.mark.parametrize("mirrored", [False, True], ids=["phase1-ahead", "phase1-behind"])
def test_march_at_uniform_fraction_with_supersonic_slip(monkeypatch, mirrored):
    # alpha1 = 0.5 everywhere, phase 1 slipping through phase 2 at 2.1 and
    # 2.4 times its sound speed on the two sides, with a jump of phase 1's
    # density, velocity and pressure: every interface is beyond phase 1's
    # subsonic window, and none needs it.  At cfl 0.45 the march keeps
    # positivity, conservation and both phases' entropy inequality, and
    # never climbs a1
    left = PrimitiveState(0.5, 1.0, 0.5, 1.0, 1.0, -2.0, 1.0)
    right = PrimitiveState(0.5, 0.5, 0.2, 0.4, 0.8, -2.3, 0.9)
    if mirrored:
        left, right = right.mirrored(), left.mirrored()
    for w in (left, right):
        assert abs(w.u1 - w.u2) > 2.0 * IDEAL.sound_speed(w.rho1, w.p1)
    grows = []
    climb = scheme._climb_ladder
    monkeypatch.setattr(scheme, "_climb_ladder", lambda *args: grows.append(args[3]) or climb(*args))
    cfg = RunConfig(cells=100, t_final=0.2, cfl=0.45, entropy_audit=True)
    res = run(InitialData(0.0, left, right), cfg, IDEAL, IDEAL)
    assert res.t == cfg.t_final and res.steps > 100
    assert grows.count(1) == 0
    assert max(res.conservation_error.values()) <= 1e-12
    assert res.entropy_slack <= 1e-12
    lows = np.array([[r.min_alpha1, r.min_alpha2, r.min_rho1, r.min_rho2, r.min_e1, r.min_e2]
                     for r in res.records])
    assert np.all(lows > 0.0)


def test_public_step_mutates_nothing():
    # a step of either scheme on rows formed from its cells leaves the bytes
    # of those cells and their primitives as they were, and the rows, which
    # copy the stack they are formed from, never write it, not even when
    # the step is spliced in.  The whole flux rows the window expands to
    # read the same twice, and the record's end columns, which the
    # conservation audit reads, are theirs.  Rusanov's scheme has no
    # positivity guarantee, so it does not step the random four-cell row
    for cfg, cells, prim, eos1, eos2 in window_rows():
        before = cells.stack().tobytes(), prim.stack().tobytes()
        for advance in (step, rusanov_step) if cfg.cells > 4 else (step,):
            given = cells.stack()
            rows = MarchRows(given, eos1, eos2)
            info = advance(rows, cfg)
            assert (cells.stack().tobytes(), prim.stack().tobytes()) == before
            rows.splice(info.updated, info.new)
            assert given.tobytes() == before[0] and not np.shares_memory(rows.u, given)
            fm, fp = whole_rows(info, cfg.cells + 1)
            f_minus, f_plus = whole_rows(info, cfg.cells + 1)
            assert f_minus.tobytes() == fm.tobytes()
            assert f_plus.tobytes() == fp.tobytes()
            right, left = info.ends().T
            assert (right.tobytes(), left.tobytes()) == (fm[:, -1].tobytes(),
                                                         fp[:, 0].tobytes())


def test_step_record_states_its_window_once():
    # the record derives updated = [a, b) from its window: the cells beside
    # a wave for a relaxation step, none on a fully calm row, every cell for
    # a Rusanov step.  Its end columns, which the conservation audit reads,
    # are those of the whole rows the window expands to.  Rusanov's scheme
    # does not step the random four-cell row
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    calm = (RunConfig(cells=16, t_final=1.0, domain=(0.0, 1.0)),
            to_conserved(grid_of(w, 16), IDEAL, IDEAL), IDEAL, IDEAL)
    for cfg, cells, eos1, eos2 in [calm] + [(c, u, e1, e2) for c, u, _, e1, e2 in window_rows()]:
        n = cfg.cells
        info = fresh_step(step, cells, cfg, eos1, eos2)[1]
        waves = wave_interfaces(to_primitive(cells, eos1, eos2))
        assert (waves.size == 0) == (cells is calm[1])
        records = [(info, slice(waves[0] - 1, waves[-1] + 1) if waves.size else slice(0, 0))]
        if n > 4:
            records.append((fresh_step(rusanov_step, cells, cfg, eos1, eos2)[1], slice(0, n)))
        for info, updated in records:
            assert info.updated == updated
            fm, fp = whole_rows(info, n + 1)
            assert info.ends().tobytes() == np.array([fm[:, -1], fp[:, 0]]).T.tobytes()


@pytest.mark.parametrize("name, cid", [("relaxation", 2), ("relaxation", 3), ("rusanov", 1)],
                         ids=["relaxation-2", "relaxation-3", "rusanov-1"])
def test_run_splices_the_primitive_window_bitwise(monkeypatch, name, cid):
    # the rows run hands each step equal, bit for bit, those formed afresh
    # from the whole state: the padded primitive row, the conserved stack,
    # the families and the energies; and the window equals the one formed
    # afresh from the whole row.  splice takes a whole new row as the
    # conserved stack: on every Rusanov step, and on the relaxation steps of
    # case 3 whose window spans the row; every other window is copied in
    seen = []
    module, attr = (scheme, "step") if name == "relaxation" else (rusanov, "rusanov_step")
    original = getattr(module, attr)

    def checking(rows, *args, **kwargs):
        fresh = MarchRows(rows.u, case.eos1, case.eos2)
        seen.append(all(getattr(rows, k).tobytes() == getattr(fresh, k).tobytes()
                        for k in ("w", "u", "families", "energies"))
                    and rows.window == fresh.window)
        return original(rows, *args, **kwargs)

    monkeypatch.setattr(module, attr, checking)
    case = get_case(cid)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain, cfl=case.cfl, scheme=name)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert len(seen) == res.steps > 0 and all(seen)


def family_sums(u: ConservedState):
    """The four audited families of a conserved row, each summed with ``np.sum``."""
    return np.array([np.sum(v) for v in (u.m1, u.m2, u.q1 + u.q2, u.eta1 + u.eta2)])


def public_march(case, cfg, advance):
    """(final cells, step records, conservation errors) of ``run``'s march
    made of public ``advance`` calls (``step`` or ``rusanov_step``): each
    step converts every cell afresh and forms the totals, the families'
    fluxes through the ends and the minima on whole rows."""
    dx = (cfg.domain[1] - cfg.domain[0]) / cfg.cells
    cells = ConservedState(*scheme._project_initial(case.initial, cfg, case.eos1, case.eos2))
    totals, drift, records, t = family_sums(cells), np.zeros(4), [], 0.0
    while t < cfg.t_final:
        cells, info = fresh_step(advance, cells, cfg, case.eos1, case.eos2, cfg.t_final - t)
        prim = to_primitive(cells, case.eos1, case.eos2)
        before, totals = totals, family_sums(cells)
        fm, fp = whole_rows(info, cfg.cells + 1)
        through = family_sums(ConservedState(*fm[:, -1:])) - family_sums(ConservedState(*fp[:, :1]))
        drift = np.maximum(drift, np.abs(totals - before + info.dt / dx * through)
                           / np.maximum(1.0, np.abs(before)))
        t += info.dt
        e1 = case.eos1.internal_energy(prim.rho1, prim.p1)
        e2 = case.eos2.internal_energy(prim.rho2, prim.p2)
        records.append(StepRecord(len(records) + 1, t, info.dt, *totals.tolist(),
                                  float(cells.alpha1.min()), float((1.0 - cells.alpha1).min()),
                                  float(prim.rho1.min()), float(prim.rho2.min()),
                                  float(e1.min()), float(e2.min())))
    return cells, records, dict(zip(scheme.FAMILIES, drift.tolist()))


@pytest.mark.parametrize("name, cid", [("relaxation", 2), ("relaxation", 4), ("rusanov", 1),
                                       ("rusanov", 2)],
                         ids=["2", "4", "rusanov-1", "rusanov-2"])
def test_run_equals_the_public_full_row_march(name, cid):
    # run's owned rows, updated on the window by a relaxation step and
    # handed a new stack by a Rusanov step, give the march of public steps
    # bit for bit: final cells, every record and every audited conservation
    # error (Rusanov's scheme audits its two masses only).  Some relaxation
    # windows of both cases reach a domain end
    case = get_case(cid)
    cfg = RunConfig(cells=200, t_final=case.t_max, domain=case.domain, cfl=case.cfl, scheme=name)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    cells, records, errors = public_march(case, cfg, step if name == "relaxation" else rusanov_step)
    audited = scheme.FAMILIES if name == "relaxation" else ("mass1", "mass2")

    def hexed(record):
        return tuple(float(v).hex() for v in dataclasses.astuple(record))

    assert res.cells.stack().tobytes() == cells.stack().tobytes()
    assert len(res.records) == len(records) == res.steps
    assert [hexed(r) for r in res.records] == [hexed(r) for r in records]
    assert {k: res.conservation_error[k].hex() for k in audited} == \
        {k: errors[k].hex() for k in audited}


def test_post_step_error_names_the_mesh_cell(monkeypatch):
    # the window of a mid-run case-1 row starts well inside the mesh; an m1
    # flux that empties the cell left of an interface of the window is
    # reported at that cell's mesh index, not at its position in the window
    case = get_case(1)
    cfg, cells, _ = mid_run(1, 200, 0.5)
    info = fresh_step(step, cells, cfg, case.eos1, case.eos2)[1]
    assert info.a > 20
    k = info.fluxes.shape[-1] // 2
    interface = info.a + k
    solve = scheme.assemble_fluxes

    def emptying(sol):
        fluxes = solve(sol)
        fluxes[0, 1, k] = 1e6
        return fluxes

    monkeypatch.setattr(scheme, "assemble_fluxes", emptying)
    with pytest.raises(AdmissibilityError, match=rf"partial mass m1 at index {interface - 1} ") as err:
        fresh_step(step, cells, cfg, case.eos1, case.eos2)
    assert err.value.index == interface - 1


def row_bytes(rows):
    """The bytes of the rows of a march, ``MarchRows``, and its window."""
    return [getattr(rows, k).tobytes() for k in ("u", "w", "families", "energies")] + [rows.window]


def rows_before_each_step(monkeypatch, module, attr):
    """A list that fills, as ``run`` marches, with the rows of the march
    and their ``row_bytes`` before each call of the step ``module.attr``."""
    seen = []
    original = getattr(module, attr)

    def recording(rows, *args, **kwargs):
        seen.append((rows, row_bytes(rows)))
        return original(rows, *args, **kwargs)

    monkeypatch.setattr(module, attr, recording)
    return seen


def test_failed_relaxation_step_leaves_the_rows_as_they_were(monkeypatch):
    # 40 steps into case 1, an m1 flux that empties the cell left of the
    # middle interface of the window fails the post-state check: the step
    # raises at that cell's mesh index and writes none of the rows, which
    # are still those of the 40th step
    case = get_case(1)
    cfg = RunConfig(cells=200, t_final=case.t_max, domain=case.domain, cfl=case.cfl)
    seen = rows_before_each_step(monkeypatch, scheme, "step")
    solve = scheme.assemble_fluxes

    def emptying(sol):
        fluxes = solve(sol)
        if len(seen) == 41:
            fluxes[0, 1, fluxes.shape[-1] // 2] = 1e6
        return fluxes

    monkeypatch.setattr(scheme, "assemble_fluxes", emptying)
    with pytest.raises(AdmissibilityError, match=r"partial mass m1 at index \d+ \[post-step") as err:
        run(case.initial, cfg, case.eos1, case.eos2)
    rows, before = seen[-1]
    a, b = rows.window
    assert len(seen) == 41 and a > 20 and err.value.index == a + (b - a + 1) // 2 - 1
    assert row_bytes(rows) == before
    assert row_bytes(MarchRows(rows.u, case.eos1, case.eos2)) == before


def test_failed_rusanov_step_leaves_its_last_accepted_step(monkeypatch):
    # Rusanov's scheme has no positivity guarantee, and a step of case 5 at
    # 50 cells leaves the admissible region: the march raises, and its rows
    # still hold the step before, as splice left them
    case = get_case(5)
    cfg = RunConfig(cells=50, t_final=case.t_max, domain=case.domain, cfl=case.cfl,
                    scheme="rusanov")
    seen = rows_before_each_step(monkeypatch, rusanov, "rusanov_step")
    with pytest.raises(AdmissibilityError, match="rusanov post-step"):
        run(case.initial, cfg, case.eos1, case.eos2)
    rows, before = seen[-1]
    assert len(seen) > 1 and row_bytes(rows) == before
    assert row_bytes(MarchRows(rows.u, case.eos1, case.eos2)) == before


def test_stationary_contact_field_unchanged():
    wL, wR = stationary_contact_pair()
    n = 20
    grid = PrimitiveState(*(np.where(np.arange(n) < n // 2, getattr(wL, f), getattr(wR, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))
    cells = to_conserved(grid, IDEAL, IDEAL)
    cfg = RunConfig(cells=n, t_final=1.0, domain=(0.0, 1.0))
    out = cells
    for _ in range(3):
        out, _ = fresh_step(step, out, cfg, IDEAL, IDEAL)
    assert np.max(np.abs(out.stack() - cells.stack())) < 1e-12


def test_single_step_case1_admissible():
    case = get_case(1)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain)
    x = np.linspace(-0.5 + 0.005, 0.5 - 0.005, 100)
    grid = PrimitiveState(*(np.where(x < case.x0, getattr(case.left, f), getattr(case.right, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))
    cells = to_conserved(grid, case.eos1, case.eos2)
    out, info = fresh_step(step, cells, cfg, case.eos1, case.eos2)
    prim = to_primitive(out, case.eos1, case.eos2)   # raises if inadmissible
    assert np.all(prim.rho1 > 0) and np.all(prim.rho2 > 0)


# ------------------------------------------------------------ runs

def test_run_zero_time_returns_projection():
    case = get_case(1)
    cfg = RunConfig(cells=40, t_final=0.0, domain=case.domain)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert res.steps == 0
    left_cells = res.x < case.x0
    assert np.allclose(res.prim.rho1[left_cells], case.left.rho1, rtol=1e-13)
    assert np.allclose(res.prim.rho1[~left_cells], case.right.rho1, rtol=1e-13)


@pytest.mark.parametrize("t_final", [math.inf, math.nan, -1.0])
def test_run_config_rejects_a_final_time_never_reached(t_final):
    # an infinite final time would march forever, a NaN one takes no step
    with pytest.raises(ValueError, match="t_final must be finite and >= 0"):
        RunConfig(cells=10, t_final=t_final)


@pytest.mark.parametrize("cells, domain", [
    (20, (0.5, -0.5)), (20, (0.0, 0.0)), (20, (0.0, math.nan)), (20, (0.0, math.inf)),
    (20, (-math.inf, 0.0)), (20, (0.0,)), (20.5, (-0.5, 0.5)), (True, (-0.5, 0.5)),
    (1, (-0.5, 0.5))])
def test_run_config_rejects_a_mesh_that_cannot_be_marched(cells, domain):
    # a reversed domain makes dx and dt negative, so run would never end; an
    # empty or non-finite one, or a fractional number of cells, is no mesh
    with pytest.raises(ValueError, match="cells|domain"):
        RunConfig(cells=cells, t_final=0.01, domain=domain)


def test_run_config_rejects_an_entropy_audit_of_the_rusanov_scheme():
    # the entropy balance needs the relaxation solution's contact speeds
    with pytest.raises(ValueError, match="entropy audit"):
        RunConfig(cells=10, t_final=0.01, scheme="rusanov", entropy_audit=True)


#: the two-state problems of the ROADMAP item "A march that never ends", on
#: 16 cells of (-0.5, 0.5) to t = 0.01: (eos1, eos2, left, right)
RUNAWAYS = {
    "A": (IDEAL, EosParams(1.67),
          (0.8283198941288046, 4.943331074391871, 2.83282659053695, 76.67997338626543,
           3.164012929276797, -5.866454776855649, 15.101908566538354),
          (4.719829651254759e-12, 0.8965554869502238, 0.9908126867943494, 6858.546229134959,
           1.055354188591357, 0.5583851174865497, 3.0433930546392114)),
    "B": (STIFF, EosParams(1.67),
          (0.9999999999985439, 0.20276464566519176, 5.256447461973021, 2.9775732011818974,
           0.7983555292968901, -3.262021439286256, 4.927393434056054),
          (5.581643246631934e-10, 0.4105599143334839, -3.354484009610464, 2345.2273461226296,
           4.404494232609589, 3.9265446250362555, 0.5099785921005755)),
}


def collapsed_step(name):
    """The step at which ``run`` stops the runaway ``name`` with its
    collapsed-time-step SolverError."""
    eos1, eos2, left, right = RUNAWAYS[name]
    cfg = RunConfig(cells=16, t_final=0.01, domain=(-0.5, 0.5), cfl=0.45)
    with pytest.raises(SolverError) as err:
        run(InitialData(0.0, PrimitiveState(*left), PrimitiveState(*right)), cfg, eos1, eos2)
    message = re.fullmatch(r"time step collapsed: step (\d+) at t = \S+ took dt = \S+ "
                           r"<= eps \* t_final = 2\.220446e-18", str(err.value))
    assert message, str(err.value)
    return int(message[1])


def test_runaway_a_raises_instead_of_marching_forever():
    # phase 1 runs away where alpha1 is 1e-8 to 5e-12 and dt falls below
    # roundoff of t_final: run raises instead of marching on
    assert collapsed_step("A") <= 2500


def test_runaway_b_raises_instead_of_marching_forever():
    # the same runaway with a stiffened phase 1 and a vanishing phase 2 on the left
    assert collapsed_step("B") <= 2500


def test_run_config_takes_numpy_and_list_input():
    cfg = RunConfig(cells=np.int64(20), t_final=0.01, domain=[np.float64(0.0), 1])
    assert cfg.cells == 20


def test_run_conservation_audit():
    case = get_case(1)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert max(res.conservation_error.values()) < 1e-11


def test_run_entropy_audit_case1():
    case = get_case(1)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain, entropy_audit=True)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert res.entropy_slack <= 1e-10


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14, 1e-15, 5e-16, 3e-16])
def test_vanishing_phases_down_to_roundoff(eps):
    # case 5 with each absent phase clamped at eps instead of 1e-9: the
    # march keeps the entropy inequality and conservation down to a few ulps
    # of alpha2 = 1 on the left (at eps = 2e-16 and below it still fails)
    case = get_case(5)
    init = InitialData(x0=case.x0, left=dataclasses.replace(case.left, alpha1=1.0 - eps),
                       right=dataclasses.replace(case.right, alpha1=eps))
    cfg = RunConfig(cells=200, t_final=case.t_max, domain=case.domain, entropy_audit=True)
    res = run(init, cfg, case.eos1, case.eos2)
    assert res.t == cfg.t_final
    assert res.entropy_slack <= 1e-12
    assert max(res.conservation_error.values()) <= 1e-12


def test_audited_run_converts_to_primitive_once_per_step(monkeypatch):
    # once before marching, once after each step for both the entropy audit
    # and the step record, and once for the result
    calls = []
    original = scheme.to_primitive

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scheme, "to_primitive", counting)
    case = get_case(1)
    cfg = RunConfig(cells=50, t_final=case.t_max, domain=case.domain, entropy_audit=True)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert res.steps > 0 and res.entropy_slack > -np.inf
    assert len(calls) == res.steps + 2


def test_run_initial_projection_straddling_cell():
    # odd cell count puts the discontinuity mid-cell: the projection is the
    # exact cell average
    case = get_case(1)
    cfg = RunConfig(cells=25, t_final=0.0, domain=case.domain)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    uL = to_conserved(case.left, case.eos1, case.eos2)
    uR = to_conserved(case.right, case.eos1, case.eos2)
    mid = 12  # cell [-0.02, 0.02) straddles x0 = 0 half and half
    assert res.cells.m1[mid] == pytest.approx(0.5 * (sc(uL.m1) + sc(uR.m1)), rel=1e-13)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_rejected(x0):
    # a NaN x0 used to reach the projection and be reported as alpha1
    # outside (0,1) in the initial data
    case = get_case(1)
    with pytest.raises(ValueError, match="x0 must be finite") as caught:
        run(InitialData(x0, case.left, case.right), RunConfig(cells=8, t_final=0.01),
            case.eos1, case.eos2)
    assert type(caught.value) is ValueError


def adversarial_problems(rng, **config):
    """100 two-state problems, as (index, initial data, config, eos2), with
    sides drawn like the pairs of hard_row (ideal and stiffened phase 2 in
    turn), at 16 cells to t = 0.02; ``config`` adds RunConfig fields."""
    for r in range(100):
        w = hard_row(rng, 2)
        left, right = (PrimitiveState(*(float(getattr(w, v)[j]) for v in VARIABLES))
                       for j in (0, 1))
        cfg = RunConfig(cells=16, t_final=0.02, domain=(-0.5, 0.5), cfl=0.45, **config)
        yield r, InitialData(0.0, left, right), cfg, (IDEAL, STIFF)[r % 2]


def test_whole_steps_on_adversarial_riemann_problems(rng, monkeypatch):
    # two-state problems with sides drawn like the pairs of hard_row (ideal
    # and stiffened phase 2 in turn) march to the end with conservation at
    # roundoff, some of them through climbs of a2.  entropy_slack is not
    # asserted: it exceeds roundoff on some of these runs (ROADMAP, "The
    # entropy inequality on near-vacuum rows")
    grows = []
    climb = scheme._climb_ladder
    monkeypatch.setattr(scheme, "_climb_ladder", lambda *args: grows.append(args[3]) or climb(*args))
    climbing_a2 = 0
    for r, initial, cfg, eos2 in adversarial_problems(rng):
        grows.clear()
        res = run(initial, cfg, IDEAL, eos2)
        assert max(res.conservation_error.values()) <= 1e-12, r
        climbing_a2 += 2 in grows
    assert climbing_a2 > 0


def frozen_audited_steps(monkeypatch):
    """Install a check of every entropy audit of the runs that follow
    against ``frozen_audit``'s whole-row audit, and return the list it
    appends each step's outcome to: (window slack, whole-row slack, whether
    every balance outside the window [a, b) is 0.0, whether cells lie
    outside it, the whole-row audit's largest ratio inside it)."""
    steps, before = [], {}
    advance, slack = scheme.step, scheme.EntropyAudit.slack

    def snapshot(rows, *args, **kwargs):
        before["m"] = rows.u[1:3].copy()
        before["s"] = frozen_audit.phase_entropies(PrimitiveState(*rows.w[:, 1:-1]), *rows.eos)
        return advance(rows, *args, **kwargs)

    def checking(audit, info, lam):
        got = slack(audit, info, lam)
        rows = audit.rows
        new = frozen_audit.phase_entropies(PrimitiveState(*rows.w[:, 1:-1]), *rows.eos)
        balance, scale = frozen_audit.entropy_balance(info, before["m"], before["s"], rows.u[1:3],
                                                      new, lam)
        a, b = info.updated.start, info.updated.stop
        ratio = balance / scale
        steps.append((got, float(np.max(ratio)), not balance[:, :a].any() and not balance[:, b:].any(),
                      b - a < rows.u.shape[1], float(np.max(ratio[:, a:b], initial=-np.inf))))
        return got

    monkeypatch.setattr(scheme, "step", snapshot)
    monkeypatch.setattr(scheme.EntropyAudit, "slack", checking)
    return steps


def test_window_entropy_audit_matches_the_whole_row_audit(request, monkeypatch):
    # every audited step of cases 1-5 at 200 cells and of the problems of
    # test_whole_steps_on_adversarial_riemann_problems (its draws) gives the
    # slack of the frozen whole-row audit, bit for bit, and a balance of
    # exactly 0.0 outside its window.  Windows that leave cells out, some
    # with only negative balances inside, cover the default of the max
    steps = frozen_audited_steps(monkeypatch)
    for cid in range(1, 6):
        case = get_case(cid)
        cfg = RunConfig(cells=200, t_final=case.t_max, domain=case.domain, cfl=case.cfl,
                        entropy_audit=True)
        run(case.initial, cfg, case.eos1, case.eos2)
    cases = len(steps)
    drawn = request.node.nodeid.replace(request.node.name,
                                        "test_whole_steps_on_adversarial_riemann_problems")
    for _, initial, cfg, eos2 in adversarial_problems(rng_of(drawn), entropy_audit=True):
        run(initial, cfg, IDEAL, eos2)
    assert cases > 500 and len(steps) > cases
    assert all(got.hex() == want.hex() for got, want, *_ in steps)
    assert all(zero_outside for _, _, zero_outside, *_ in steps)
    inside = [largest for *_, some_outside, largest in steps if some_outside]
    assert len(inside) > 100 and sum(largest < 0.0 for largest in inside) > 10


def test_whole_steps_on_rows_of_many_states(rng):
    # rows of 4-16 cells, each cell an independent hard_row state, so that
    # every interface is a wave (ideal and stiffened phase 2 in turn).  Each
    # step is admissible and conserves every audited family to roundoff
    # against the fluxes through the row's ends.  entropy_slack is not
    # asserted (ROADMAP, "The entropy inequality on near-vacuum rows")
    for r in range(300):
        n = int(rng.integers(4, 17))
        eos2 = (IDEAL, STIFF)[r % 2]
        cells = to_conserved(hard_row(rng, n), IDEAL, eos2)
        cfg = RunConfig(cells=n, t_final=1.0, domain=(-0.5, 0.5), cfl=0.45)
        dx = 1.0 / n
        for k in range(5):
            before = family_sums(cells)
            try:
                cells, info = fresh_step(step, cells, cfg, IDEAL, eos2)
            except (SolverError, AdmissibilityError, EosDomainError) as exc:
                pytest.fail(f"row {r}, step {k}: {exc!r}")
            fm, fp = whole_rows(info, n + 1)
            through = (family_sums(ConservedState(*fm[:, -1]))
                       - family_sums(ConservedState(*fp[:, 0])))
            drift = np.abs(family_sums(cells) - before + info.dt / dx * through)
            assert np.all(drift <= 1e-12 * np.maximum(1.0, np.abs(before))), (r, k, drift)


def test_run_well_balanced_100_steps():
    wL, wR = stationary_contact_pair()
    init = InitialData(x0=0.5, left=wL, right=wR)
    cfg = RunConfig(cells=50, t_final=1e9, domain=(0.0, 1.0))
    # cap by steps, not time: march manually
    cells = to_conserved(PrimitiveState(*(np.where(np.arange(50) < 25, getattr(wL, f),
                                                   getattr(wR, f))
                                          for f in ("alpha1", "rho1", "u1", "p1",
                                                    "rho2", "u2", "p2"))), IDEAL, IDEAL)
    ref = cells.stack().copy()
    state = cells
    for _ in range(100):
        state, _ = fresh_step(step, state, cfg, IDEAL, IDEAL)
    assert np.max(np.abs(state.stack() - ref)) < 1e-12

import numpy as np
import pytest

from bn_relax import (EosParams, InitialData, PrimitiveState, RunConfig, SolverError,
                      WaveOrdering, assemble_fluxes, build_solution, cfl_dt, get_case,
                      region_tables, run, sample, scheme, select_parameters, sharp_quantities,
                      step, to_conserved, to_primitive)
from bn_relax.riemann import RelaxParams, SampledState, classify_ordering
from bn_relax.scheme import ETA, MAX_INFLATIONS
from bn_relax.state import VARIABLES
from conftest import random_primitive

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
    params = select_parameters(case.left, case.right, case.eos1, case.eos2).params
    # this interface is feasible straight from the (1 + eta) Whitham bound
    assert sc(params.a1) == pytest.approx(1.1516, abs=2e-4)
    rc_max = max(sc(case.eos2.lagrangian_sound_speed(case.left.rho2, case.left.p2)),
                 sc(case.eos2.lagrangian_sound_speed(case.right.rho2, case.right.p2)))
    assert sc(params.a2) == pytest.approx(1.01 * rc_max, rel=1e-12)


def test_uniform_data_zero_inflations():
    w = PrimitiveState(0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)
    params = select_parameters(w, w, IDEAL, IDEAL).params
    assert sc(params.a1) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(1.0, 1.0)),
                                          rel=1e-13)
    assert sc(params.a2) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(2.0, 0.8)),
                                          rel=1e-13)


def test_near_vacuum_interface_terminates():
    # case-3 star region sits near vacuum; the loop must still settle
    case = get_case(3)
    star = PrimitiveState(0.2, 0.0219, 0.0, 0.0019, 0.0219, 0.0, 0.0019)
    sol = select_parameters(case.left, star, case.eos1, case.eos2)
    params = sol.params
    assert np.all(np.isfinite(np.atleast_1d(params.a2)))
    assert np.all(region_tables(sol)["tau2"][1:3] > 0.0)


def test_whitham_bound_always_respected(rng):
    w = random_primitive(rng, 60)
    wL, wR = w[slice(0, 30)], w[slice(30, 60)]
    params = select_parameters(wL, wR, IDEAL, IDEAL).params
    floor1 = np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                        IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))
    floor2 = np.maximum(IDEAL.lagrangian_sound_speed(wL.rho2, wL.p2),
                        IDEAL.lagrangian_sound_speed(wR.rho2, wR.p2))
    assert np.all(params.a1 > floor1)
    assert np.all(params.a2 > floor2)


def test_selection_is_row_independent(rng):
    # every interface climbs on its own: solving the whole row gives each
    # interface the bits it gets alone, on the a1 and a2 ladders and retries
    w = random_primitive(rng, 800)
    wL, wR = w[slice(0, 400)], w[slice(400, 800)]
    sol = select_parameters(wL, wR, IDEAL, IDEAL)
    params = sol.params
    tau1 = region_tables(sol)["tau1"]
    for j in range(400):
        sj = select_parameters(wL[j], wR[j], IDEAL, IDEAL)
        pj = sj.params
        in_row = (params.a1[j], params.a2[j], tau1[:, j], sol.u2_star[j])
        alone = (pj.a1, pj.a2, region_tables(sj)["tau1"][:, 0], sj.u2_star)
        for got, want in zip(in_row, alone):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
    start1 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                                      IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))
    start2 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho2, wL.p2),
                                      IDEAL.lagrangian_sound_speed(wR.rho2, wR.p2))
    assert np.any(params.a1 > start1) and np.any(params.a2 > start2)


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
    plain = select_parameters(wL, wR, case.eos1, case.eos2)
    solve = scheme.build_solution
    for bad_u2_star in (False, True):
        calls = []

        def corrupt_first(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if not calls:
                sol.phase1.tau[2, 0] = bad_tau
                if bad_u2_star:
                    sol.u2_star[0] = np.nan
            calls.append(sol)
            return sol

        monkeypatch.setattr(scheme, "build_solution", corrupt_first)
        sol = select_parameters(wL, wR, case.eos1, case.eos2)
        assert len(calls) > 1
        want = plain.params.a2.copy()
        want[0] *= 1.0 + ETA
        assert sol.params.a2.tobytes() == want.tobytes()
        assert sol.params.a1.tobytes() == plain.params.a1.tobytes()
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
        select_parameters(wL, wR, IDEAL, eos2)
        per_call.append(len(solves))
    monkeypatch.undo()
    return climbs, per_call


def holds_at(args, value):
    """The existence condition of a recorded climb of a1, with a1 set to
    ``value`` at the climbing interfaces."""
    wL, wR, params, idx, _, _ = args
    cand = RelaxParams(value, params.a2[idx])
    return classify_ordering(sharp_quantities(wL[idx], wR[idx], cand), cand)[1]


def climbed(args, out):
    """The values a climb chose for its interfaces."""
    _, _, _, idx, grow, _ = args
    return (out.a1 if grow == 1 else out.a2)[idx]


def whitham_a1(wL, wR):
    return (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                                    IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))


def rebuilt_a2_least(solve):
    """The a2 threshold of the interfaces failing a recorded solve: the
    largest root in a2 of its two phase-2 volumes beside the coupling wave
    times a2^2, with ``k``, the coupling wave's shift of u2* beyond
    ``lambda du/2`` times a2, held fixed."""
    (wl, wr, _, _, sub), kwargs, sol = solve
    s = kwargs["precomputed"]
    tau = np.concatenate([sol.phase1.tau[1:4], sol.phase2.tau[1:3]])
    bad = ~((tau > 0.0) & np.isfinite(tau)).all(axis=0)
    du, dp, lam = wr.u2 - wl.u2, wr.p2 - wl.p2, s.lambda_alpha
    k = (sol.u2_star - s.u_sharp2 - lam * du / 2.0) * sub.a2
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
    assert {args[4] for args, _, _ in climbs} == {1, 2}
    assert sum(args[3].size for args, _, _ in climbs if args[4] == 1) > 200
    exact = 0
    for args, out, solve in climbs:
        wL, wR, params, idx, grow, least = args
        base = (params.a1 if grow == 1 else params.a2)[idx]
        value = climbed(args, out)
        assert value.tobytes() == ((1.0 + ETA) * np.maximum(base, least)).tobytes()
        rest = np.ones(params.a1.size, bool)
        rest[idx] = False
        if grow == 1:
            assert not np.any(holds_at(args, base))  # the start fails: that is why it climbs
            # the threshold is exact: the predicate holds above it and fails just below
            assert np.all(holds_at(args, value))
            assert not np.any(holds_at(args, (1.0 - 1e-6) * least))
            assert out.a2.tobytes() == params.a2.tobytes()
        else:
            # the threshold comes from the solve that failed, and a1 restarts
            assert least.tobytes() == rebuilt_a2_least(solve).tobytes()
            assert out.a1[idx].tobytes() == whitham_a1(wL, wR)[idx].tobytes()
            assert np.array_equal(out.a1[rest], params.a1[rest])
            # without a jump of alpha1 the threshold is exact
            flat = wL.alpha1[idx] == wR.alpha1[idx]
            wl, wr = wL[idx[flat]], wR[idx[flat]]
            assert np.all(np.min(tau_sharp2(wl, wr, value[flat]), axis=0) > 0.0)
            assert np.all(np.min(tau_sharp2(wl, wr, (1.0 - 1e-6) * least[flat]), axis=0) <= 0.0)
            exact += np.count_nonzero(flat)
        # the other interfaces keep the climbing parameter
        name = f"a{grow}"
        assert np.array_equal(getattr(out, name)[rest], getattr(params, name)[rest])
    assert exact > 20


def test_a1_climbs_from_its_start_at_the_returned_a2(rng):
    # a retry takes a1 from its Whitham start again, so the returned a1 is
    # one climb from that start at the returned a2, whatever the retries were
    for wL, wR, eos2 in hard_rows(rng):
        params = select_parameters(wL, wR, IDEAL, eos2).params
        start = whitham_a1(wL, wR)
        cand = RelaxParams(start, params.a2)
        s = sharp_quantities(wL, wR, cand)
        ok = classify_ordering(s, cand)[1]
        want = np.where(ok, start, (1.0 + ETA) * np.maximum(start, scheme._a1_least(wL, wR, s, cand)))
        assert params.a1.tobytes() == want.tobytes()


def test_retries_take_few_solves(rng, monkeypatch):
    # a2 climbs to a threshold, not by one factor per round
    per_call = recorded_climbs(rng, monkeypatch)[1]
    assert max(per_call) <= 16


@pytest.mark.parametrize("grow", [1])
def test_climb_short_of_its_threshold_is_an_error(rng, monkeypatch, grow):
    # a threshold computed too low leaves the predicate failing after the
    # climb: selection reports the interface instead of solving it
    least = getattr(scheme, f"_a{grow}_least")
    monkeypatch.setattr(scheme, f"_a{grow}_least", lambda *args: 0.5 * least(*args))
    with pytest.raises(SolverError, match=rf"a{grow} climbed past its threshold, yet its "
                                          r"predicate fails at interface \d+;"):
        select_parameters(hard_row(rng, 250), hard_row(rng, 250), IDEAL, IDEAL)


def test_ladder_inflation_cap_is_an_error():
    # phase 1 moves through phase 2 at a relative speed u_rel in the middle
    # pair, so a1 tau1 must exceed u_rel.  a1 starts at 1.01 rho1 c1 = 1.195:
    # a relative speed of 1e4 needs an 8.4e3-fold growth, within the
    # 2.1e4-fold growth a climb may make, and 1e5 needs more than that
    def row(u_rel):
        cells = np.tile([0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], (3, 1))
        cells[1, 2] = u_rel                 # u1 of the middle pair
        w = PrimitiveState(*cells.T)
        return select_parameters(w, w, IDEAL, IDEAL)

    params = row(1e4).params
    assert 1e4 < params.a1[1] < (1.0 + ETA) ** MAX_INFLATIONS * params.a1[0]
    with pytest.raises(SolverError, match=r"a1 inflation cap exceeded at interface 1;"):
        row(1e5)


# ------------------------------------------------------------ fluxes

def test_uniform_fluxes_are_physical():
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    fx = assemble_fluxes(select_parameters(w, w, IDEAL, IDEAL))
    expect = flux_vector(w, IDEAL, IDEAL)
    assert np.allclose(np.asarray(fx.f_minus, dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)
    assert np.allclose(np.asarray(fx.f_plus, dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)


def test_flux_conservation_structure(rng):
    w = random_primitive(rng, 40)
    wL, wR = w[slice(0, 20)], w[slice(20, 40)]
    fx = assemble_fluxes(select_parameters(wL, wR, IDEAL, IDEAL))
    fm, fp = fx.f_minus, fx.f_plus
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
    fx = assemble_fluxes(select_parameters(wL, wR, IDEAL, IDEAL))
    # mass and energy fluxes vanish; momentum fluxes match the one-sided
    # exact fluxes so that neither neighbor cell changes
    for i in (1, 2, 5, 6):
        assert sc(fx.f_minus[i]) == pytest.approx(0.0, abs=1e-14)
        assert sc(fx.f_plus[i]) == pytest.approx(0.0, abs=1e-14)
    assert sc(fx.f_minus[3]) == pytest.approx(sc(flux_vector(wL, IDEAL, IDEAL)[3]), rel=1e-13)
    assert sc(fx.f_plus[3]) == pytest.approx(sc(flux_vector(wR, IDEAL, IDEAL)[3]), rel=1e-13)


def test_equal_fraction_fluxes_decouple(rng):
    # with no fraction jump the fluxes are two independent single-phase fluxes
    wL = PrimitiveState(0.35, 1.0, 0.2, 1.0, 2.0, -0.1, 0.7)
    wR = PrimitiveState(0.35, 0.8, 0.1, 1.2, 1.7, 0.2, 0.9)
    sol = select_parameters(wL, wR, IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    # swapping the OTHER phase's data must not change this phase's fluxes
    wL2 = PrimitiveState(0.35, wL.rho1, wL.u1, wL.p1, 1.1, 0.4, 1.3)
    wR2 = PrimitiveState(0.35, wR.rho1, wR.u1, wR.p1, 2.2, -0.3, 0.6)
    sol2 = select_parameters(wL2, wR2, IDEAL, IDEAL)
    fx2 = assemble_fluxes(sol2)
    for i in (1, 3):
        assert sc(fx.f_minus[i]) == pytest.approx(sc(fx2.f_minus[i]), rel=1e-12)
        assert sc(fx.f_plus[i]) == pytest.approx(sc(fx2.f_plus[i]), rel=1e-12)


def test_moving_coupled_contact_flux_exactness():
    # uniform velocity and pressure with fraction/density jumps: an exact
    # traveling coupling contact; one update must shift it by u0 dt exactly
    u0 = 0.4
    wL = PrimitiveState(0.2, 1.0, u0, 1.0, 2.0, u0, 1.0)
    wR = PrimitiveState(0.7, 0.5, u0, 1.0, 1.5, u0, 1.0)
    fxL = assemble_fluxes(select_parameters(wL, wL, IDEAL, IDEAL))
    fx = assemble_fluxes(select_parameters(wL, wR, IDEAL, IDEAL))
    fxR = assemble_fluxes(select_parameters(wR, wR, IDEAL, IDEAL))
    uL = to_conserved(wL, IDEAL, IDEAL).stack().ravel()
    uR = to_conserved(wR, IDEAL, IDEAL).stack().ravel()
    lam = 0.05
    updated_right = uR - lam * (np.ravel(fxR.f_minus) - np.ravel(fx.f_plus))
    exact_right = uR - lam * u0 * (uR - uL)
    assert np.allclose(updated_right, exact_right, rtol=1e-13, atol=1e-14)
    updated_left = uL - lam * (np.ravel(fx.f_minus) - np.ravel(fxL.f_plus))
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
    gm, gp = flux(sample(sol, 0.0, side="-")), flux(sample(sol, 0.0, side="+"))
    return np.concatenate([gm[:5], gp[5:]]), gp


def test_coupling_terms_zero_without_alpha_jump():
    wL = PrimitiveState(0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)
    wR = PrimitiveState(wL.alpha1, 0.7, 0.0, 1.2, 1.9, 0.1, 0.9)
    sol = select_parameters(wL, wR, IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    assert np.isnan(sc(sol.pi1_star))
    for got, trace in zip((fx.f_minus, fx.f_plus), trace_fluxes(sol)):
        assert sc(got[0]) == 0.0
        for i in range(1, 7):
            assert sc(got[i]) == pytest.approx(sc(trace[i]), rel=1e-15, abs=1e-15), i


def test_coupling_terms_cancel_in_mixture_momentum_and_energy(rng):
    # the coupling wave moves momentum and energy between the phases, never
    # into or out of the mixture, and never adds to a partial mass
    w = random_primitive(rng, 400)
    sol = select_parameters(w[slice(0, 200)], w[slice(200, 400)], IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    eps = np.finfo(float).eps
    for got, trace in zip((fx.f_minus, fx.f_plus), trace_fluxes(sol)):
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
    out = [np.where(on_left, sol.alpha1_l, sol.alpha1_r)]
    for k in ("1", "2"):
        breaks = tables["breaks" + k]
        idx = (breaks <= xi if side == "+" else breaks < xi).sum(axis=0)
        out += [tables[name + k][idx, cols] for name in ("tau", "u", "pi", "E")]
    return SampledState(*out)


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
    # a reflected interface is sampled at -xi in its oriented frame, where
    # 0- of the original frame is 0+; the traces and the fluxes must equal,
    # bitwise, those read off the original-frame tables
    wL, wR = tie_row(rng, 500)
    sol = select_parameters(wL, wR, IDEAL, IDEAL)
    tables = region_tables(sol)
    at_zero = (tables["breaks1"] == 0.0).any(axis=0) | (tables["breaks2"] == 0.0).any(axis=0)
    assert np.count_nonzero(at_zero & sol.flip) > 100
    assert np.count_nonzero(at_zero & ~sol.flip) > 100
    assert np.count_nonzero(sol.ordering == WaveOrdering.COINCIDENT) > 100
    left, right = table_sample(sol, 0.0, "-"), table_sample(sol, 0.0, "+")
    # the limits differ at the ties, so a swapped limit would show
    assert np.count_nonzero((left.tau1 != right.tau1) & sol.flip) > 100
    for side, want in (("-", left), ("+", right)):
        got = sample(sol, 0.0, side)
        for field in ("alpha1", "tau1", "u1", "pi1", "E1", "tau2", "u2", "pi2", "E2"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (side, field)
    fluxes = assemble_fluxes(sol)
    monkeypatch.setattr(scheme, "sample", table_sample)
    reference = assemble_fluxes(sol)
    assert fluxes.f_minus.tobytes() == reference.f_minus.tobytes()
    assert fluxes.f_plus.tobytes() == reference.f_plus.tobytes()


# ------------------------------------------------------------ time step

def rest_cell_solution():
    """Both interfaces of one uniform rest cell with tau = 1, solved with a = 2."""
    w = PrimitiveState(*(np.full(2, v) for v in (0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)))
    params = RelaxParams(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
    return build_solution(w, w, IDEAL, IDEAL, params)


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
            sol = select_parameters(padded[:-1], padded[1:], IDEAL, IDEAL)
            params = sol.params
            assert np.any(sol.ordering == WaveOrdering.ORDER_21)
            assert np.any(sol.ordering == WaveOrdering.COINCIDENT)
            speeds = []
            for u, rho, a in ((padded.u1, padded.rho1, params.a1),
                              (padded.u2, padded.rho2, params.a2)):
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
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    cells = to_conserved(grid_of(w, 16), IDEAL, IDEAL)
    cfg = RunConfig(cells=16, t_final=1.0, domain=(0.0, 1.0))
    out, info = step(cells, cfg, IDEAL, IDEAL, dx=1.0 / 16)
    assert np.allclose(out.stack(), cells.stack(), rtol=1e-13, atol=1e-14)


def test_stationary_contact_field_unchanged():
    wL, wR = stationary_contact_pair()
    n = 20
    grid = PrimitiveState(*(np.where(np.arange(n) < n // 2, getattr(wL, f), getattr(wR, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))
    cells = to_conserved(grid, IDEAL, IDEAL)
    cfg = RunConfig(cells=n, t_final=1.0, domain=(0.0, 1.0))
    out = cells
    for _ in range(3):
        out, _ = step(out, cfg, IDEAL, IDEAL, dx=1.0 / n)
    assert np.max(np.abs(out.stack() - cells.stack())) < 1e-12


def test_single_step_case1_admissible():
    case = get_case(1)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain)
    x = np.linspace(-0.5 + 0.005, 0.5 - 0.005, 100)
    grid = PrimitiveState(*(np.where(x < case.x0, getattr(case.left, f), getattr(case.right, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))
    cells = to_conserved(grid, case.eos1, case.eos2)
    out, info = step(cells, cfg, case.eos1, case.eos2, dx=0.01)
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


def test_whole_steps_on_adversarial_riemann_problems(rng, monkeypatch):
    # two-state problems with sides drawn like the pairs of hard_row (ideal
    # and stiffened phase 2 in turn) march to the end with conservation at
    # roundoff, some of them through climbs of a2.  entropy_slack is not
    # asserted: it exceeds roundoff on some of these runs (ROADMAP item 5)
    grows = []
    climb = scheme._climb_ladder
    monkeypatch.setattr(scheme, "_climb_ladder", lambda *args: grows.append(args[4]) or climb(*args))
    climbing_a2 = 0
    for r in range(100):
        w = hard_row(rng, 2)
        left, right = (PrimitiveState(*(float(getattr(w, v)[j]) for v in VARIABLES))
                       for j in (0, 1))
        cfg = RunConfig(cells=16, t_final=0.02, domain=(-0.5, 0.5), cfl=0.45)
        grows.clear()
        res = run(InitialData(0.0, left, right), cfg, IDEAL, (IDEAL, STIFF)[r % 2])
        assert max(res.conservation_error.values()) <= 1e-12, r
        climbing_a2 += 2 in grows
    assert climbing_a2 > 0


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
        state, _ = step(state, cfg, IDEAL, IDEAL, dx=0.02)
    assert np.max(np.abs(state.stack() - ref)) < 1e-12

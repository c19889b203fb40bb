import numpy as np
import pytest

from bn_relax import (EosParams, InitialData, PrimitiveState, RunConfig, assemble_fluxes,
                      cfl_dt, get_case, interface_fluxes, run,
                      select_parameters, step, to_conserved, to_primitive)
from bn_relax.riemann import RelaxParams
from bn_relax.scheme import ETA
from conftest import random_primitive

IDEAL = EosParams(1.4)


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
    params, _ = select_parameters(case.left, case.right, case.eos1, case.eos2)
    # this interface is feasible straight from the (1 + eta) Whitham bound
    assert sc(params.a1) == pytest.approx(1.1516, abs=2e-4)
    rc_max = max(sc(case.eos2.lagrangian_sound_speed(case.left.rho2, case.left.p2)),
                 sc(case.eos2.lagrangian_sound_speed(case.right.rho2, case.right.p2)))
    assert sc(params.a2) == pytest.approx(1.01 * rc_max, rel=1e-12)


def test_uniform_data_zero_inflations():
    w = PrimitiveState(0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)
    params, _ = select_parameters(w, w, IDEAL, IDEAL)
    assert sc(params.a1) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(1.0, 1.0)),
                                          rel=1e-13)
    assert sc(params.a2) == pytest.approx(1.01 * sc(IDEAL.lagrangian_sound_speed(2.0, 0.8)),
                                          rel=1e-13)


def test_near_vacuum_interface_terminates():
    # case-3 star region sits near vacuum; the loop must still settle
    case = get_case(3)
    star = PrimitiveState(0.2, 0.0219, 0.0, 0.0019, 0.0219, 0.0, 0.0019)
    params, sol = select_parameters(case.left, star, case.eos1, case.eos2)
    assert np.all(np.isfinite(np.atleast_1d(params.a2)))
    assert np.all(sol.tau2[1:3] > 0.0)


def test_whitham_bound_always_respected(rng):
    w = random_primitive(rng, 60)
    wL, wR = w[slice(0, 30)], w[slice(30, 60)]
    params, _ = select_parameters(wL, wR, IDEAL, IDEAL)
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
    params, sol = select_parameters(wL, wR, IDEAL, IDEAL)
    for j in range(400):
        pj, sj = select_parameters(wL[j], wR[j], IDEAL, IDEAL)
        in_row = (params.a1[j], params.a2[j], sol.tau1[:, j], sol.u2_star[j])
        alone = (pj.a1, pj.a2, sj.tau1[:, 0], sj.u2_star)
        for got, want in zip(in_row, alone):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
    start1 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho1, wL.p1),
                                      IDEAL.lagrangian_sound_speed(wR.rho1, wR.p1))
    start2 = (1.0 + ETA) * np.maximum(IDEAL.lagrangian_sound_speed(wL.rho2, wL.p2),
                                      IDEAL.lagrangian_sound_speed(wR.rho2, wR.p2))
    assert np.any(params.a1 > start1) and np.any(params.a2 > start2)


# ------------------------------------------------------------ fluxes

def test_uniform_fluxes_are_physical():
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    fx = interface_fluxes(w, w, IDEAL, IDEAL)
    expect = flux_vector(w, IDEAL, IDEAL)
    assert np.allclose(np.asarray(fx.f_minus, dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)
    assert np.allclose(np.asarray(fx.f_plus, dtype=float).ravel(), expect, rtol=1e-12, atol=1e-13)


def test_flux_conservation_structure(rng):
    w = random_primitive(rng, 40)
    wL, wR = w[slice(0, 20)], w[slice(20, 40)]
    fx = interface_fluxes(wL, wR, IDEAL, IDEAL)
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
    fx = interface_fluxes(wL, wR, IDEAL, IDEAL)
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
    params, sol = select_parameters(wL, wR, IDEAL, IDEAL)
    fx = assemble_fluxes(sol)
    # swapping the OTHER phase's data must not change this phase's fluxes
    wL2 = PrimitiveState(0.35, wL.rho1, wL.u1, wL.p1, 1.1, 0.4, 1.3)
    wR2 = PrimitiveState(0.35, wR.rho1, wR.u1, wR.p1, 2.2, -0.3, 0.6)
    params2, sol2 = select_parameters(wL2, wR2, IDEAL, IDEAL)
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
    fxL = interface_fluxes(wL, wL, IDEAL, IDEAL)
    fx = interface_fluxes(wL, wR, IDEAL, IDEAL)
    fxR = interface_fluxes(wR, wR, IDEAL, IDEAL)
    uL = to_conserved(wL, IDEAL, IDEAL).stack().ravel()
    uR = to_conserved(wR, IDEAL, IDEAL).stack().ravel()
    lam = 0.05
    updated_right = uR - lam * (np.ravel(fxR.f_minus) - np.ravel(fx.f_plus))
    exact_right = uR - lam * u0 * (uR - uL)
    assert np.allclose(updated_right, exact_right, rtol=1e-13, atol=1e-14)
    updated_left = uL - lam * (np.ravel(fx.f_minus) - np.ravel(fxL.f_plus))
    assert np.allclose(updated_left, uL, rtol=0, atol=1e-14)


# ------------------------------------------------------------ time step

def test_cfl_dt_hand_value():
    # one uniform rest cell with a tau = 2.0 on both interfaces
    cells = PrimitiveState(*(np.array([v]) for v in (0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)))
    params = RelaxParams(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
    dt = cfl_dt(cells, params, dx=0.01, cfl=0.45)
    assert dt == pytest.approx(0.45 * 0.01 / 2.0, rel=1e-14)


def test_cfl_dt_rejects_bad_courant():
    cells = PrimitiveState(*(np.array([v]) for v in (0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)))
    params = RelaxParams(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        cfl_dt(cells, params, 0.01, 0.5)


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

"""Kernel-level checks of the interface Riemann solver.

The heavy oracle here is a jump-condition audit: across every wave of a built
solution, mass / momentum / energy balances must hold exactly (the coupling
wave carries the pi1* product and a non-negative energy dissipation).  The
solver never sees this audit; it is assembled from the sampled regions alone.
"""
import dataclasses

import numpy as np
import pytest

from bn_relax import (EosParams, PrimitiveState, RelaxParams, SolverError, WaveOrdering,
                      build_solution, classify_ordering, fixed_point_context,
                      interface_jump, sample, select_parameters, sharp_quantities, solve_star)
from conftest import random_primitive

IDEAL = EosParams(1.4)


def sc(x):
    """Scalar value of a 0-d or length-1 array."""
    return np.asarray(x).reshape(-1)[0].item()


def params_for(wL, wR, eos1, eos2):
    return select_parameters(wL, wR, eos1, eos2)


def uniform_state(alpha=0.4, rho1=1.0, u1=0.1, p1=1.0, rho2=2.0, u2=-0.3, p2=0.8):
    return PrimitiveState(alpha, rho1, u1, p1, rho2, u2, p2)


# ------------------------------------------------------------ sharp quantities

def test_sharp_quantities_uniform():
    w = uniform_state()
    s = sharp_quantities(w, w, RelaxParams(2.0, 3.0))
    assert s.u_sharp1 == w.u1 and s.u_sharp2 == w.u2
    assert s.pi_sharp1 == w.p1 and s.pi_sharp2 == w.p2
    assert s.tau_sharp1_l == pytest.approx(1.0 / w.rho1, rel=1e-15)
    assert s.lambda_alpha == 0.0
    assert s.u_cap == pytest.approx(w.u1 - w.u2, rel=1e-14)


def test_sharp_quantities_hand_example():
    # single phase with a = 2, u = 0 -> 1, p = 2 -> 1, tau = 1 both sides;
    # phase 2 mirrors phase 1 at rest so the contrast numbers stay simple
    wL = PrimitiveState(0.2, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0)
    wR = PrimitiveState(0.7, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    s = sharp_quantities(wL, wR, RelaxParams(2.0, 2.0))
    assert s.u_sharp1 == pytest.approx(0.75)
    assert s.pi_sharp1 == pytest.approx(0.5)
    assert s.tau_sharp1_l == pytest.approx(1.375)
    assert s.tau_sharp1_r == pytest.approx(1.125)
    assert s.lambda_alpha == pytest.approx((0.3 - 0.8) / 1.1)


# ------------------------------------------------------------ ordering

def test_classify_symmetric_is_coincident():
    w = uniform_state(u1=0.2, u2=0.2)
    s = sharp_quantities(w, w, RelaxParams(2.0, 3.0))
    ordering, feasible = classify_ordering(s, RelaxParams(2.0, 3.0))
    assert feasible and ordering == WaveOrdering.COINCIDENT


def test_classify_order12_hand_example():
    wL = PrimitiveState(0.2, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0)
    wR = PrimitiveState(0.2, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    params = RelaxParams(2.0, 2.0)
    s = sharp_quantities(wL, wR, params)
    assert s.u_cap == pytest.approx(0.75)      # equal fractions: u_cap = du of sharp speeds
    ordering, feasible = classify_ordering(s, params)
    assert feasible and ordering == WaveOrdering.ORDER_12
    assert s.u_cap < params.a1 * s.tau_sharp1_l


def test_classify_infeasible_when_window_violated():
    wL = PrimitiveState(0.2, 1.0, 5.0, 2.0, 1.0, 0.0, 1.0)
    wR = PrimitiveState(0.2, 1.0, 5.5, 1.0, 1.0, 0.0, 1.0)
    params = RelaxParams(0.5, 2.0)   # far below the relative speed
    s = sharp_quantities(wL, wR, params)
    _, feasible = classify_ordering(s, params)
    assert not feasible


# ------------------------------------------------------------ fixed point

def test_mach_conservative_spot_value():
    wL = PrimitiveState(2 / 3, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    wR = PrimitiveState(1 / 3, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    params = RelaxParams(1.0, 1.0)
    ctx = fixed_point_context(wL, wR, sharp_quantities(wL, wR, params), params)
    assert ctx.nu == pytest.approx(2.0)
    # at m = 1 the spot value is (1/2)(1.5 - 0.5) for nu = 2
    assert ctx.mach_conservative(1.0) == pytest.approx(0.5, rel=1e-13)


def test_solve_star_uniform_data_recovers_velocities():
    w = uniform_state(u1=0.25, u2=0.1)
    params = RelaxParams(3.0, 3.0)
    s = sharp_quantities(w, w, params)
    ctx = fixed_point_context(w, w, s, params)
    m, u2s, u1s = solve_star(ctx, s, params)
    assert abs(ctx.psi(m) - ctx.rhs) <= 1e-12
    assert m == pytest.approx(ctx.m_sharp, abs=1e-13)
    assert u2s == pytest.approx(0.1, abs=1e-12)
    assert u1s == pytest.approx(0.25, abs=1e-12)


def test_solve_star_zero_contrast_limit():
    w = uniform_state(u1=0.1, u2=0.1)
    params = RelaxParams(3.0, 3.0)
    s = sharp_quantities(w, w, params)
    ctx = fixed_point_context(w, w, s, params)
    m, u2s, _ = solve_star(ctx, s, params)
    assert m == pytest.approx(0.0, abs=1e-12)
    assert u2s == pytest.approx(s.u_sharp1, abs=1e-12)


def test_solve_star_bracket_failure_is_error():
    w = uniform_state(u1=0.25, u2=0.1)
    params = RelaxParams(3.0, 3.0)
    s = sharp_quantities(w, w, params)
    ctx = fixed_point_context(w, w, s, params)
    bad = dataclasses.replace(ctx, rhs=np.asarray(5.0))
    with pytest.raises(SolverError, match="bracket"):
        solve_star(bad, s, params)


# ------------------------------------------------------------ full solutions

def feasible_pair(rng):
    while True:
        w = random_primitive(rng, 2)
        wL, wR = w[np.array([0])], w[np.array([1])]
        try:
            params, sol = params_for(wL, wR, IDEAL, IDEAL)
            return wL, wR, params, sol
        except SolverError:
            continue


def test_uniform_data_solution_constant():
    w = uniform_state()
    params, sol = params_for(w, w, IDEAL, IDEAL)
    for xi in (-10.0, -0.5, 0.0, 0.3, 10.0):
        out = sample(sol, xi)
        assert out.tau1 == pytest.approx(1.0 / w.rho1, rel=1e-12)
        assert out.u1 == pytest.approx(w.u1, abs=1e-13)
        assert out.pi1 == pytest.approx(w.p1, rel=1e-12)
        assert out.tau2 == pytest.approx(1.0 / w.rho2, rel=1e-12)
        assert out.pi2 == pytest.approx(w.p2, rel=1e-12)
    assert sol.u2_star == pytest.approx(w.u2, abs=1e-12)


def test_sample_beyond_fan_returns_inputs(rng):
    wL, wR, params, sol = feasible_pair(rng)
    lo = float(np.min(sol.breaks1[0])) - 1.0
    hi = float(np.max(sol.breaks2[2])) + 1.0
    far_left = sample(sol, min(lo, float(np.min(sol.breaks2[0])) - 1.0))
    far_right = sample(sol, max(hi, float(np.max(sol.breaks1[3])) + 1.0))
    assert far_left.tau1 == pytest.approx(1.0 / wL.rho1[0], rel=1e-14)
    assert far_left.u2 == pytest.approx(wL.u2[0], abs=1e-14)
    assert far_right.tau2 == pytest.approx(1.0 / wR.rho2[0], rel=1e-14)
    assert far_right.pi1 == pytest.approx(wR.p1[0], rel=1e-14)


def test_sample_right_limit_convention(rng):
    wL, wR, params, sol = feasible_pair(rng)
    at_wave = sample(sol, sc(sol.u2_star))
    just_right = sample(sol, sc(sol.u2_star) + 1e-11)
    assert at_wave.alpha1 == pytest.approx(just_right.alpha1, rel=1e-13)
    assert at_wave.tau1 == pytest.approx(just_right.tau1, rel=1e-9)
    left_limit = sample(sol, sc(sol.u2_star), side="-")
    assert left_limit.alpha1 == wL.alpha1[0]


def test_interface_jump_zero_without_alpha_jump():
    w = uniform_state()
    wR = PrimitiveState(w.alpha1, 0.7, 0.0, 1.2, 1.9, 0.1, 0.9)
    params, sol = params_for(w, wR, IDEAL, IDEAL)
    u2s, pi1s, dstar = interface_jump(sol)
    assert np.isnan(pi1s)
    assert np.all(dstar == 0.0)


def test_interface_jump_momentum_cancellation(rng):
    for _ in range(20):
        wL, wR, params, sol = feasible_pair(rng)
        _, _, dstar = interface_jump(sol)
        assert dstar[3] + dstar[4] == pytest.approx(0.0, abs=1e-15)
        assert dstar[1] == 0.0 and dstar[2] == 0.0


# ------------------------------------------------------------ jump-condition audit

def _audit_solution(wL, wR, sol, eos1, eos2):
    """Residuals of all mass/momentum/energy jump conditions, plus coupling Q."""
    a1 = float(np.atleast_1d(sol.params.a1)[0])
    a2 = float(np.atleast_1d(sol.params.a2)[0])
    eps = 1e-9 * max(a1, a2, 1.0)

    def tup(xi, side="+"):
        out = sample(sol, xi, side)
        return out

    res = {}
    speeds1 = [float(x) for x in np.atleast_1d(sol.breaks1).ravel()]

    def phase1(w):
        return (sc(w.alpha1), 1.0 / sc(w.tau1), sc(w.u1), sc(w.pi1), sc(w.E1))

    def phase2(w):
        return (1.0 - sc(w.alpha1), 1.0 / sc(w.tau2), sc(w.u2), sc(w.pi2), sc(w.E2))

    q_coupling = None
    for phase, breaks in ((phase1, sol.breaks1), (phase2, sol.breaks2)):
        for sigma in np.atleast_1d(breaks).ravel():
            sigma = float(sigma)
            L = phase(tup(sigma - eps))
            R = phase(tup(sigma + eps))
            alf_l, rho_l, u_l, pi_l, E_l = L
            alf_r, rho_r, u_r, pi_r, E_r = R
            is_coupling = abs(sigma - sc(sol.u2_star)) <= 1e-13 * max(1.0, abs(sigma))
            pi_star = sc(sol.pi1_star) if not np.any(np.isnan(sol.pi1_star)) else 0.0
            dal = (alf_r - alf_l)
            res_m = alf_r * rho_r * (u_r - sigma) - alf_l * rho_l * (u_l - sigma)
            res_q = (alf_r * (rho_r * u_r * (u_r - sigma) + pi_r)
                     - alf_l * (rho_l * u_l * (u_l - sigma) + pi_l))
            res_e = (alf_r * (rho_r * E_r * (u_r - sigma) + pi_r * u_r)
                     - alf_l * (rho_l * E_l * (u_l - sigma) + pi_l * u_l))
            if is_coupling:
                res_q -= pi_star * dal
                res_e -= sigma * pi_star * dal
                if phase is phase1:
                    q_coupling = -res_e
                    res_e = min(res_e, 0.0)   # dissipation allowed on phase 1
            res.setdefault("mass", []).append(abs(res_m))
            res.setdefault("momentum", []).append(abs(res_q))
            res.setdefault("energy", []).append(abs(res_e) if not is_coupling else max(res_e, 0.0))
    return res, q_coupling


def _assert_jump_conditions(wL, wR, sol):
    """Audit one solution and return its coupling dissipation Q.

    Every balance, and the sign of Q, must hold to roundoff of the phase-1
    flux terms whose differences the audit forms.
    """
    res, q = _audit_solution(wL, wR, sol, IDEAL, IDEAL)
    scale = max(1.0, float(np.max(np.abs(sol.pi1))), float(np.max(np.abs(sol.E1))))
    for kind, vals in res.items():
        assert max(vals) < 5e-11 * scale, (kind, max(vals))
    assert q >= -5e-11 * scale, (q, scale)   # coupling-wave dissipation never negative
    return q


def test_jump_conditions_random_interfaces(rng):
    q_signs = []
    for _ in range(300):
        wL, wR, params, sol = feasible_pair(rng)
        q_signs.append(_assert_jump_conditions(wL, wR, sol))
    assert np.any(np.array(q_signs) > 1e-12)      # and genuinely active on some draws


def test_near_window_pair_coupling_dissipation():
    # parameter selection accepts this ideal-gas pair with u_cap at 0.99996 of
    # the subsonic window; the phase-1 region between the left acoustic wave
    # and the coupling wave then has tau ~ 5e3 and E ~ 5e8, and the coupling
    # dissipation Q = -2e-7 is a fraction of an ulp of the energy fluxes
    wL = PrimitiveState(*(np.array([v]) for v in
                          (0.43750, 2.63861, 0.60710, 2.63948, 0.33567, -0.58167, 1.59403)))
    wR = PrimitiveState(*(np.array([v]) for v in
                          (0.59469, 1.34446, -0.61696, 2.65631, 0.63076, -0.86140, 2.90413)))
    params, sol = params_for(wL, wR, IDEAL, IDEAL)
    assert np.all(sol.tau1[1:4] > 0.0) and np.all(sol.tau2[1:3] > 0.0)
    s = sharp_quantities(wL, wR, params)
    assert sc(-params.a1 * s.tau_sharp1_r) < sc(s.u_cap) < sc(params.a1 * s.tau_sharp1_l)
    _assert_jump_conditions(wL, wR, sol)


def test_subsonic_ordering_and_phase2_window(rng):
    for _ in range(200):
        wL, wR, params, sol = feasible_pair(rng)
        a1 = params.a1
        a2 = params.a2
        u2s = sol.u2_star
        assert np.all(wL.u1 - a1 / wL.rho1 < u2s)
        assert np.all(u2s < wR.u1 + a1 / wR.rho1)
        assert np.all(wL.u2 - a2 / wL.rho2 < u2s)
        assert np.all(u2s < wR.u2 + a2 / wR.rho2)
        assert np.all(sol.tau1[1:4] > 0.0) and np.all(sol.tau2[1:3] > 0.0)


def test_psi_residual_at_solution(rng):
    for _ in range(100):
        wL, wR, params, sol = feasible_pair(rng)
        s = sharp_quantities(wL, wR, params)
        flip = int(np.atleast_1d(sol.ordering)[0]) == WaveOrdering.ORDER_21
        if flip:
            wL, wR = wR.mirrored(), wL.mirrored()
            s = sharp_quantities(wL, wR, params)
        if int(np.atleast_1d(sol.ordering)[0]) == WaveOrdering.COINCIDENT:
            continue
        ctx = fixed_point_context(wL, wR, s, params)
        m, u2s, u1s = solve_star(ctx, s, params)
        assert abs(sc(ctx.psi(m) - ctx.rhs)) <= 1e-12
        expect = -u2s if flip else u2s
        assert sc(np.abs(expect - sol.u2_star)) <= 1e-12 * max(1.0, abs(sc(u2s)))


# ------------------------------------------------------------ symmetry and decoupling

def test_mirror_symmetry(rng):
    xs = np.linspace(-3.0, 3.0, 41)
    for _ in range(100):
        wL, wR, params, sol = feasible_pair(rng)
        mirrored_sol = build_solution(wR.mirrored(), wL.mirrored(), IDEAL, IDEAL, params)
        for xi in xs:
            a = sample(sol, xi)
            b = sample(mirrored_sol, -xi, side="-")
            for field, sign in (("alpha1", 1), ("tau1", 1), ("u1", -1), ("pi1", 1), ("E1", 1),
                                ("tau2", 1), ("u2", -1), ("pi2", 1), ("E2", 1)):
                va = float(np.atleast_1d(getattr(a, field))[0])
                vb = sign * float(np.atleast_1d(getattr(b, field))[0])
                assert abs(va - vb) <= 1e-13 * max(1.0, abs(va)), (field, xi, va, vb)


def suliciu_star(uL, uR, pL, pR, tauL, tauR, a):
    """Single-phase relaxation star state: the independent decoupling oracle."""
    u = 0.5 * (uL + uR) - (pR - pL) / (2 * a)
    pi = 0.5 * (pL + pR) - 0.5 * a * (uR - uL)
    return u, pi, tauL + (u - uL) / a, tauR - (u - uR) / a


def test_equal_fraction_decoupling(rng):
    # deviations are measured against each quantity's natural scale: pi and u
    # can themselves vanish, in which case a ratio to the value means nothing
    for _ in range(100):
        w = random_primitive(rng, 2)
        wL, wR = w[np.array([0])], w[np.array([1])]
        wR = PrimitiveState(wL.alpha1.copy(), wR.rho1, wR.u1, wR.p1, wR.rho2, wR.u2, wR.p2)
        try:
            params, sol = params_for(wL, wR, IDEAL, IDEAL)
        except SolverError:
            continue
        for k, (uL, uR, pL, pR, tL, tR, a) in enumerate((
                (wL.u1, wR.u1, wL.p1, wR.p1, 1 / wL.rho1, 1 / wR.rho1, params.a1),
                (wL.u2, wR.u2, wL.p2, wR.p2, 1 / wL.rho2, 1 / wR.rho2, params.a2)), start=1):
            u, pi, tauls, taurs = suliciu_star(sc(uL), sc(uR), sc(pL), sc(pR),
                                               sc(tL), sc(tR), sc(a))
            u_scale = abs(sc(uL)) + abs(sc(uR)) + abs(sc(pR) - sc(pL)) / sc(a)
            pi_scale = 0.5 * (sc(pL) + sc(pR)) + 0.5 * sc(a) * abs(sc(uR) - sc(uL))
            eps = 1e-9
            mid_l = sample(sol, u - eps)
            mid_r = sample(sol, u + eps)
            got = ((mid_l.tau1, mid_r.tau1, mid_l.pi1, mid_r.pi1, mid_l.u1) if k == 1
                   else (mid_l.tau2, mid_r.tau2, mid_l.pi2, mid_r.pi2, mid_l.u2))
            assert abs(sc(got[0]) - tauls) <= 1e-13 * tauls, k
            assert abs(sc(got[1]) - taurs) <= 1e-13 * taurs, k
            assert abs(sc(got[2]) - pi) <= 1e-13 * pi_scale, k
            assert abs(sc(got[3]) - pi) <= 1e-13 * pi_scale, k
            assert abs(sc(got[4]) - u) <= 1e-13 * u_scale, k


# ------------------------------------------------------------ advection consistency

def test_sampled_energy_consistent_with_advected_data(rng):
    # E = u^2/2 + e + (pi^2 - p^2) / (2 a^2) in every region, with e and p of
    # the end state on the same side of the phase's contact u_k*
    for _ in range(50):
        wL, wR, params, sol = feasible_pair(rng)
        a1 = sc(params.a1)
        a2 = sc(params.a2)
        e1 = [sc(IDEAL.internal_energy(w.rho1, w.p1)) for w in (wL, wR)]
        e2 = [sc(IDEAL.internal_energy(w.rho2, w.p2)) for w in (wL, wR)]
        p1 = [sc(wL.p1), sc(wR.p1)]
        p2 = [sc(wL.p2), sc(wR.p2)]
        for xi in np.linspace(-3, 3, 25):
            w = sample(sol, xi)
            k1 = int(xi >= sc(sol.u1_star))
            k2 = int(xi >= sc(sol.u2_star))
            E1 = 0.5 * sc(w.u1) ** 2 + e1[k1] + (sc(w.pi1) ** 2 - p1[k1] ** 2) / (2 * a1 ** 2)
            E2 = 0.5 * sc(w.u2) ** 2 + e2[k2] + (sc(w.pi2) ** 2 - p2[k2] ** 2) / (2 * a2 ** 2)
            assert sc(w.E1) == pytest.approx(E1, rel=1e-11, abs=1e-12)
            assert sc(w.E2) == pytest.approx(E2, rel=1e-11, abs=1e-12)

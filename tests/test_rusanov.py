import numpy as np
import pytest

from bn_relax import (EosParams, PrimitiveState, RunConfig, get_case, max_abs_eigenvalue,
                      run, rusanov_fluxes, rusanov_step, to_conserved)
from conftest import fresh_step

IDEAL = EosParams(1.4)


def sc(x):
    return np.asarray(x).reshape(-1)[0].item()


def test_uniform_flux_is_physical():
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    u = to_conserved(w, IDEAL, IDEAL)
    flux, r = rusanov_fluxes(u, u, IDEAL, IDEAL)
    e1 = IDEAL.internal_energy(1.0, 1.0)
    expect = np.array([0.0, 0.4 * 1.0 * 0.3, 0.6 * 2.0 * -0.2,
                       0.4 * (1.0 * 0.09 + 1.0), 0.6 * (2.0 * 0.04 + 0.8),
                       0.4 * (1.0 * (e1 + 0.045) + 1.0) * 0.3,
                       0.6 * (2.0 * (IDEAL.internal_energy(2.0, 0.8) + 0.02) + 0.8) * -0.2])
    assert np.allclose(flux.ravel(), expect, rtol=1e-13, atol=1e-14)


def test_diffusion_speed_is_eigenvalue_bound():
    case = get_case(1)
    uL = to_conserved(case.left, case.eos1, case.eos2)
    uR = to_conserved(case.right, case.eos1, case.eos2)
    _, r = rusanov_fluxes(uL, uR, case.eos1, case.eos2)
    expect = max(sc(max_abs_eigenvalue(case.left, case.eos1, case.eos2)),
                 sc(max_abs_eigenvalue(case.right, case.eos1, case.eos2)))
    assert sc(r) == pytest.approx(expect, rel=1e-13)


def test_uniform_field_unchanged():
    w = PrimitiveState(0.4, 1.0, 0.3, 1.0, 2.0, -0.2, 0.8)
    n = 12
    cells = to_conserved(PrimitiveState(*(np.full(n, getattr(w, f)) for f in
                                          ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2"))),
                         IDEAL, IDEAL)
    cfg = RunConfig(cells=n, t_final=1.0, domain=(0.0, 1.0), scheme="rusanov")
    out, _ = fresh_step(rusanov_step, cells, cfg, IDEAL, IDEAL)
    assert np.allclose(out.stack(), cells.stack(), rtol=1e-13, atol=1e-14)


def test_stationary_contact_visibly_diffused():
    wL = PrimitiveState(0.2, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0)
    wR = PrimitiveState(0.7, 0.5, 0.0, 1.0, 1.5, 0.0, 1.0)
    n = 20
    grid = PrimitiveState(*(np.where(np.arange(n) < n // 2, getattr(wL, f), getattr(wR, f))
                            for f in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2")))
    cells = to_conserved(grid, IDEAL, IDEAL)
    cfg = RunConfig(cells=n, t_final=1.0, domain=(0.0, 1.0), scheme="rusanov")
    out, _ = fresh_step(rusanov_step, cells, cfg, IDEAL, IDEAL)
    assert np.max(np.abs(out.stack() - cells.stack())) > 1e-6


def test_mass_families_conserve():
    case = get_case(1)
    cfg = RunConfig(cells=100, t_final=case.t_max, domain=case.domain, scheme="rusanov",
                    cfl=case.cfl)
    res = run(case.initial, cfg, case.eos1, case.eos2)
    assert res.conservation_error["mass1"] < 1e-11
    assert res.conservation_error["mass2"] < 1e-11

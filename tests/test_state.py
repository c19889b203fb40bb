import numpy as np
import pytest

from bn_relax import (AdmissibilityError, ConservedState, EosParams, PrimitiveState,
                      max_abs_eigenvalue, to_conserved, to_primitive)
from conftest import random_primitive

IDEAL = EosParams(1.4)

# left end state of benchmark case 1
CASE1_LEFT = PrimitiveState(0.2, 0.21430, -0.02609, 0.3, 1.00003, 0.00007, 1.0)


def test_forward_conversion_case1_left():
    u = to_conserved(CASE1_LEFT, IDEAL, IDEAL)
    assert u.m1 == pytest.approx(0.042860, abs=1e-9)
    assert u.q1 == pytest.approx(-0.00111822, abs=1e-8)
    assert u.eta1 == pytest.approx(0.15001461, abs=1e-6)


def test_inverse_conversion_case1_left():
    u = to_conserved(CASE1_LEFT, IDEAL, IDEAL)
    w = to_primitive(u, IDEAL, IDEAL)
    assert w.rho1 == pytest.approx(0.21430, abs=1e-6)
    assert w.u1 == pytest.approx(-0.02609, abs=1e-6)
    assert w.p1 == pytest.approx(0.3, abs=1e-6)


def test_rest_state_momenta_vanish():
    w = PrimitiveState(0.4, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0)
    u = to_conserved(w, IDEAL, IDEAL)
    assert u.q1 == 0.0 and u.q2 == 0.0


def test_round_trip_random_states(rng):
    w = random_primitive(rng, 10_000)
    u = to_conserved(w, IDEAL, IDEAL)
    back = to_primitive(u, IDEAL, IDEAL)
    for name in ("alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2"):
        a = getattr(w, name)
        b = getattr(back, name)
        assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-30)) < 1e-13


def test_round_trip_stiffened(rng):
    stiff = EosParams(3.0, p_inf=100.0)
    w = random_primitive(rng, 1000, p_range=(50.0, 2000.0))
    u = to_conserved(w, IDEAL, stiff)
    back = to_primitive(u, IDEAL, stiff)
    assert np.max(np.abs(back.p2 - w.p2) / np.abs(w.p2)) < 1e-12


@pytest.mark.parametrize("alpha1", [0.0, 1.0, -0.1, 1.5])
def test_alpha_bounds_rejected(alpha1):
    u = ConservedState(alpha1, 0.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="alpha1"):
        to_primitive(u, IDEAL, IDEAL)


def test_nonpositive_mass_rejected():
    u = ConservedState(0.5, -0.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="partial mass m1"):
        to_primitive(u, IDEAL, IDEAL)


def test_nonpositive_internal_energy_rejected():
    # kinetic energy q^2 / 2m exceeds eta
    u = ConservedState(0.5, 1.0, 1.0, 3.0, 0.0, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="internal energy, phase 1"):
        to_primitive(u, IDEAL, IDEAL)


def test_stiffened_sound_speed_loss_distinct():
    stiff = EosParams(3.0, p_inf=100.0)
    # positive internal energy but rho2 e2 < p_inf: distinct failure mode
    w = PrimitiveState(0.5, 1.0, 0.0, 1.0, 1.0, 0.0, 150.0)
    u = to_conserved(w, IDEAL, stiff)
    # rho2 e2 drops from 225 to 90, below p_inf = 100 but still positive
    bad = ConservedState(u.alpha1, u.m1, u.m2, u.q1, u.q2, u.eta1, u.eta2 * 0.4)
    with pytest.raises(AdmissibilityError, match="sound speed loss"):
        to_primitive(bad, IDEAL, stiff)


#: what the check a NaN in each field fails names, by field
PRIMITIVE_CHECKS = {"alpha1": "alpha1", "rho1": "rho1", "u1": "u1", "p1": "phase 1",
                    "rho2": "rho2", "u2": "u2", "p2": "phase 2"}
CONSERVED_CHECKS = {"alpha1": "alpha1", "m1": "m1", "m2": "m2", "q1": "phase 1",
                    "q2": "phase 2", "eta1": "phase 1", "eta2": "phase 2"}


@pytest.mark.parametrize("field", list(PRIMITIVE_CHECKS))
def test_nan_primitive_field_rejected(field):
    # NaN compares false with every bound, so each check must require the
    # admissible side rather than reject the other one
    w = PrimitiveState(*(np.full(4, v) for v in (0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)))
    getattr(w, field)[2] = np.nan
    with pytest.raises(AdmissibilityError, match=rf"{PRIMITIVE_CHECKS[field]}.*index 2"):
        to_conserved(w, IDEAL, IDEAL)


@pytest.mark.parametrize("field", list(CONSERVED_CHECKS))
def test_nan_conserved_field_rejected(field):
    w = PrimitiveState(*(np.full(4, v) for v in (0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)))
    u = to_conserved(w, IDEAL, IDEAL)
    getattr(u, field)[2] = np.nan
    with pytest.raises(AdmissibilityError, match=rf"{CONSERVED_CHECKS[field]}.*index 2"):
        to_primitive(u, IDEAL, IDEAL)


def test_max_abs_eigenvalue_case1_left():
    lam = max_abs_eigenvalue(CASE1_LEFT, IDEAL, IDEAL)
    assert lam == pytest.approx(1.42604, abs=2e-5)


def test_max_abs_eigenvalue_rest_state():
    w = PrimitiveState(0.5, 1.0, 0.0, 1.0, 2.0, 0.0, 3.0)
    lam = max_abs_eigenvalue(w, IDEAL, IDEAL)
    c1 = IDEAL.sound_speed(1.0, 1.0)
    c2 = IDEAL.sound_speed(2.0, 3.0)
    assert lam == pytest.approx(max(c1, c2), rel=1e-14)


def test_max_abs_eigenvalue_symmetric_phases():
    w = PrimitiveState(0.3, 1.2, 0.4, 0.9, 1.2, 0.4, 0.9)
    c = IDEAL.sound_speed(1.2, 0.9)
    assert max_abs_eigenvalue(w, IDEAL, IDEAL) == pytest.approx(0.4 + c, rel=1e-14)

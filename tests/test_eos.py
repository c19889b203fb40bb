import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bn_relax import EosDomainError, EosParams


def test_pressure_hand_values():
    assert EosParams(1.4).pressure(1.0, 2.5) == pytest.approx(1.0, rel=1e-14)
    assert EosParams(3.0, p_inf=100.0).pressure(1.0, 650.0) == pytest.approx(1000.0, rel=1e-14)
    assert EosParams(2.2).pressure(3.7, 0.0) == 0.0


def test_internal_energy_hand_values():
    assert EosParams(3.0, p_inf=100.0).internal_energy(1.0, 1000.0) == pytest.approx(650.0)
    assert EosParams(1.4).internal_energy(1.0, 1.0) == pytest.approx(2.5)
    assert EosParams(1.4).internal_energy(2.0, 0.0) == 0.0


def test_sound_speed_hand_values():
    assert EosParams(1.4).sound_speed(1.0, 1.0) == pytest.approx(math.sqrt(1.4), abs=1e-6)
    assert EosParams(3.0, p_inf=100.0).sound_speed(1.0, 1000.0) == pytest.approx(
        math.sqrt(3300.0), abs=1e-4)


def test_sound_speed_vacuum_is_error():
    with pytest.raises(EosDomainError, match="complex sound speed"):
        EosParams(1.4).sound_speed(4.0, 0.0)


def test_negative_density_rejected():
    eos = EosParams(1.4)
    for fn in (lambda: eos.pressure(-1.0, 1.0), lambda: eos.internal_energy(0.0, 1.0),
               lambda: eos.sound_speed(-2.0, 1.0), lambda: eos.entropy(0.0, 1.0),
               lambda: eos.temperature(-1.0, 1.0)):
        with pytest.raises(EosDomainError):
            fn()


@pytest.mark.parametrize("method", ["pressure", "internal_energy", "sound_speed",
                                    "lagrangian_sound_speed", "entropy", "temperature"])
@pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan),
                                  (np.ones(3), np.array([1.0, math.nan, 1.0]))],
                         ids=["nan-first", "nan-second", "nan-entry"])
def test_nan_is_outside_the_domain(method, args):
    # NaN compares false, so each check must fail on it, not pass it through
    with pytest.raises(EosDomainError):
        getattr(EosParams(1.4), method)(*args)


@pytest.mark.parametrize("gamma, p_inf", [(1.4, math.nan), (math.inf, 0.0), (1.4, math.inf),
                                          (math.nan, 0.0)])
def test_eos_parameters_must_be_finite(gamma, p_inf):
    with pytest.raises(ValueError, match="must be finite"):
        EosParams(gamma, p_inf)


def test_entropy_hand_values():
    eos = EosParams(1.4)
    assert eos.entropy(1.0, 2.5) == pytest.approx(-math.log(2.5), rel=1e-12)
    # rho e - p_inf = 1 at unit density gives zero entropy
    assert EosParams(3.0, p_inf=100.0).entropy(1.0, 101.0) == pytest.approx(0.0, abs=1e-13)


def test_entropy_constant_on_isentrope():
    eos = EosParams(1.4)
    s_ref = eos.entropy(1.0, 2.5)
    # pick e at rho=2 so that (rho e - p_inf)/rho**gamma matches the rho=1 value
    e2 = 2.5 * 2.0 ** eos.gamma / 2.0
    assert eos.entropy(2.0, e2) == pytest.approx(s_ref, rel=1e-13)


def test_entropy_outside_hyperbolic_region():
    with pytest.raises(EosDomainError, match="p_inf"):
        EosParams(3.0, p_inf=100.0).entropy(1.0, 50.0)


def test_temperature_hand_values():
    assert EosParams(1.4).temperature(1.0, 2.5) == pytest.approx(2.5)
    assert EosParams(2.0, p_inf=0.5).temperature(1.0, 1.5) == pytest.approx(1.0)


def test_temperature_matches_entropy_derivative():
    eos = EosParams(1.4)
    h = 1e-6
    for rho, e in ((1.0, 2.5), (0.3, 7.0), (4.0, 0.9)):
        ds_de = (eos.entropy(rho, e + h) - eos.entropy(rho, e - h)) / (2 * h)
        assert ds_de == pytest.approx(-1.0 / eos.temperature(rho, e), rel=1e-6)


def test_params_validation():
    with pytest.raises(ValueError):
        EosParams(1.0)
    with pytest.raises(ValueError):
        EosParams(1.4, p_inf=-1.0)


@given(gamma=st.floats(1.01, 5.0), p_inf=st.floats(0.0, 1e3),
       rho=st.floats(1e-6, 1e3), p=st.floats(1e-6, 1e4))
@settings(max_examples=200, deadline=None)
def test_pressure_energy_round_trip(gamma, p_inf, rho, p):
    eos = EosParams(gamma, p_inf=p_inf)
    back = eos.pressure(rho, eos.internal_energy(rho, p))
    assert abs(back - p) <= 1e-12 * max(1.0, abs(p))


@given(gamma=st.floats(1.01, 5.0), p_inf=st.floats(0.0, 1e3),
       rho=st.floats(1e-6, 1e3), p=st.floats(1e-6, 1e4))
@settings(max_examples=200, deadline=None)
def test_sound_speed_identity(gamma, p_inf, rho, p):
    # rho c^2 equals gamma (gamma - 1) (rho e - p_inf)
    eos = EosParams(gamma, p_inf=p_inf)
    e = eos.internal_energy(rho, p)
    lhs = rho * eos.sound_speed(rho, p) ** 2
    rhs = gamma * (gamma - 1.0) * (rho * e - p_inf)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_entropy_strictly_decreasing_in_e(rng):
    eos = EosParams(1.4)
    rho = rng.uniform(0.1, 10.0, 50)
    e = rng.uniform(0.5, 5.0, 50)
    s0 = eos.entropy(rho, e)
    s1 = eos.entropy(rho, e * 1.01)
    assert np.all(s1 < s0)

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from bn_relax import (AdmissibilityError, ConservedState, EosParams, PrimitiveState,
                      max_abs_eigenvalue, to_conserved, to_primitive, validate_conserved,
                      validate_primitive)
from bn_relax.state import VARIABLES
from conftest import random_primitive
import frozen_primitive

IDEAL = EosParams(1.4)
STIFF = EosParams(3.0, 100.0)

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


def reported_not_warned(u, eos1, eos2):
    """The AdmissibilityError ``validate_conserved`` raises on ``u``, with
    every RuntimeWarning an error, so that a warning raised on the way
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AdmissibilityError) as caught:
            validate_conserved(u, eos1, eos2)
    return str(caught.value), caught.value.index


def test_alpha1_of_one_beside_a_stiffened_phase_2_is_reported_not_warned():
    # rho2 e2 = (alpha2 rho2 e2) / alpha2 divided by zero at alpha2 = 0
    u = ConservedState(np.array([0.5, 1.0]), 1.0, 1.0, 0.0, 0.0, 500.0, 500.0)
    assert reported_not_warned(u, IDEAL, EosParams(3.0, 100.0)) == (
        "alpha1 outside (0,1) at index 1", 1)


def test_zero_partial_mass_of_ideal_phases_is_reported_not_warned():
    # the kinetic energy q^2 / 2m was 0 / 0 at m = 0
    u = ConservedState(0.5, np.array([1.0, 0.0]), 1.0, 0.0, 0.0, 5.0, 5.0)
    assert reported_not_warned(u, IDEAL, IDEAL) == (
        "non-positive partial mass m1 at index 1", 1)


def test_zero_partial_mass_beside_a_stiffened_phase_is_reported_not_warned():
    u = ConservedState(0.5, 1.0, np.array([1.0, 0.0]), 0.0, 0.0, 500.0, 500.0)
    assert reported_not_warned(u, IDEAL, EosParams(3.0, 100.0)) == (
        "non-positive partial mass m2 at index 1", 1)


@pytest.mark.parametrize("eos2", [IDEAL, EosParams(3.0, 100.0)], ids=["ideal", "stiffened"])
def test_overflowing_momentum_is_reported_not_warned(eos2):
    # q^2 of a finite q1 = 1e200 overflowed to inf in the kinetic energy
    u = ConservedState(np.array([0.5, 0.5]), 1.0, 1.0, np.array([0.0, 1e200]), 0.0,
                       5.0, 500.0)
    assert reported_not_warned(u, IDEAL, eos2) == (
        "non-positive internal energy, phase 1 at index 1", 1)


@pytest.mark.parametrize("eos2", [IDEAL, EosParams(3.0, 100.0)], ids=["ideal", "stiffened"])
def test_infinite_momentum_beside_infinite_energy_is_reported_not_warned(eos2):
    # the internal energy eta1 - q1^2 / 2m1 was inf - inf
    u = ConservedState(np.array([0.5, 0.5]), 1.0, 1.0, np.array([0.0, np.inf]), 0.0,
                       np.array([5.0, np.inf]), 500.0)
    assert reported_not_warned(u, IDEAL, eos2) == (
        "non-positive internal energy, phase 1 at index 1", 1)


def test_overflowing_rho_e_beside_a_stiffened_phase_1_is_reported_not_warned():
    # rho1 e1 = (alpha1 rho1 e1) / alpha1 overflowed to inf at alpha1 = 1e-10,
    # and the division's warning was let out
    u = ConservedState(np.array([0.5, 1e-10]), 1, 1, 0, 0, np.array([500, 1e300]), 500)
    assert reported_not_warned(u, EosParams(3.0, 100.0), IDEAL) == (
        "non-finite rho e, phase 1 at index 1", 1)


def test_overflowing_rho_e_of_an_ideal_phase_1_is_reported_not_warned():
    # the state passed, and to_primitive gave p1 = inf
    u = ConservedState(np.array([0.5, 1e-10]), 1, 1, 0, 0, np.array([500, 1e300]), 500)
    assert reported_not_warned(u, IDEAL, IDEAL) == ("non-finite rho e, phase 1 at index 1", 1)


def test_nonpositive_internal_energy_rejected():
    # kinetic energy q^2 / 2m exceeds eta
    u = ConservedState(0.5, 1.0, 1.0, 3.0, 0.0, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="internal energy, phase 1"):
        to_primitive(u, IDEAL, IDEAL)


def test_state_at_the_edge_of_positive_energy_is_rejected_by_check_and_conversion():
    # eta1 - q1^2 / 2m1 is positive, while the conversion's eta1 / m1 - u1^2 / 2
    # is not: the check once took the first and passed, and to_primitive
    # returned p1 = -2.1e-20
    u = ConservedState(0.5, 2.3277050598469975e-07, 1.0, -7.665152097871138e-06, 0.0,
                       0.00012620704765611566, 2.5)
    for convert in (validate_conserved, to_primitive):
        with pytest.raises(AdmissibilityError) as caught:
            convert(u, IDEAL, IDEAL)
        assert str(caught.value) == "non-positive internal energy, phase 1 at index 0"


@pytest.mark.parametrize("size", [None, 2], ids=["scalar", "array"])
@pytest.mark.parametrize("edge", [1, 2], ids=["phase1", "phase2"])
def test_accepted_state_at_the_energy_edge_converts_into_the_primitive_domain(rng, edge, size):
    # the phase ``edge``, an ideal gas, holds eta = KE (1 + delta) with
    # |delta| <= 4e-16, where the two ways of forming its internal energy
    # disagree in sign; the other phase, a stiffened gas, lies well inside
    # its domain.  Whatever the check accepts converts into the domain.
    eos1, eos2 = (IDEAL, STIFF) if edge == 1 else (STIFF, IDEAL)
    accepted = 0
    for _ in range(400):
        w = PrimitiveState(rng.uniform(0.01, 0.99, size), *(
            rng.uniform(lo, hi, size) for _ in range(2)
            for lo, hi in ((0.5, 2.0), (-10.0, 10.0), (150.0, 300.0))))
        m = 10.0 ** rng.uniform(-12.0, 3.0, size)
        q = m * rng.uniform(-10.0, 10.0, size)
        eta = 0.5 * q * q / m * (1.0 + rng.uniform(-4e-16, 4e-16, size))
        u = dataclasses.replace(to_conserved(w, eos1, eos2),
                                **{f"m{edge}": m, f"q{edge}": q, f"eta{edge}": eta})
        try:
            validate_conserved(u, eos1, eos2)
        except AdmissibilityError:
            continue
        validate_primitive(to_primitive(u, eos1, eos2), eos1, eos2)
        accepted += 1
    assert accepted >= 20


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


@pytest.mark.parametrize("field", ["rho1", "p1", "rho2", "p2"])
def test_infinite_primitive_field_rejected(field):
    # an infinite density or pressure passes the positivity checks, so the
    # finiteness check after them names it
    w = PrimitiveState(*(np.full(4, v) for v in (0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)))
    getattr(w, field)[2] = np.inf
    with pytest.raises(AdmissibilityError, match=rf"non-finite {field} at index 2"):
        to_conserved(w, IDEAL, IDEAL)


@pytest.mark.parametrize("field", ["m1", "m2", "eta1", "eta2"])
def test_infinite_conserved_field_rejected(field):
    # an infinite partial mass or energy passes the positivity checks, so
    # the finiteness checks after them name it
    w = PrimitiveState(*(np.full(4, v) for v in (0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)))
    u = to_conserved(w, IDEAL, IDEAL)
    getattr(u, field)[2] = np.inf
    with pytest.raises(AdmissibilityError, match=rf"non-finite {field} at index 2"):
        to_primitive(u, IDEAL, IDEAL)


def ordered_checks(u, eos1, eos2, where):
    """The conserved-state checks one by one, as ``validate_conserved`` ran
    them before they were first formed in one pass, followed by the
    finiteness checks of the partial masses and energies and of each
    phase's ``rho e``: the oracle of the error it reports."""
    def first(mask):
        return int(np.argmax(np.atleast_1d(mask)))

    a = np.asarray(u.alpha1, dtype=float)
    rho_es = []
    ok = (a > 0.0) & (a < 1.0)
    if not np.all(ok):
        raise AdmissibilityError("alpha1 outside (0,1)", first(~ok), where)
    for name, m in (("m1", u.m1), ("m2", u.m2)):
        mv = np.asarray(m, dtype=float)
        if not np.all(mv > 0.0):
            raise AdmissibilityError(f"non-positive partial mass {name}", first(~(mv > 0)), where)
    for k, (m, q, eta, alpha, eos) in enumerate(
            ((u.m1, u.q1, u.eta1, a, eos1), (u.m2, u.q2, u.eta2, 1.0 - a, eos2)), start=1):
        eint = np.asarray(eta, dtype=float) - 0.5 * np.asarray(q) * q / np.asarray(m)
        if not np.all(eint > 0.0):
            raise AdmissibilityError(f"non-positive internal energy, phase {k}",
                                     first(~(eint > 0)), where)
        rho_es.append(eint / alpha)
        if eos.p_inf > 0.0:
            rho_e = rho_es[-1]
            if not np.all(rho_e > eos.p_inf):
                raise AdmissibilityError(f"rho e <= p_inf (sound speed loss), phase {k}",
                                         first(~(rho_e > eos.p_inf)), where)
    for name in ("m1", "m2", "eta1", "eta2"):
        finite = np.isfinite(getattr(u, name))
        if not np.all(finite):
            raise AdmissibilityError(f"non-finite {name}", first(~finite), where)
    for k, rho_e in enumerate(rho_es, start=1):
        finite = np.isfinite(rho_e)
        if not np.all(finite):
            raise AdmissibilityError(f"non-finite rho e, phase {k}", first(~finite), where)


def with_fault(u, kind, j, eos1, eos2):
    """``u`` with the fault ``kind`` put into entry ``j`` (in place)."""
    if kind == "alpha1":
        u.alpha1[j] = 1.5
    elif kind in ("m1", "m2"):
        getattr(u, kind)[j] *= -1.0 if kind == "m1" else 0.0
    elif kind.startswith("energy"):
        k = kind[-1]
        getattr(u, f"q{k}")[j] = 3.0 * np.sqrt(getattr(u, f"m{k}")[j] * getattr(u, f"eta{k}")[j])
    elif kind.startswith("sound"):
        # a positive internal energy below alpha_k p_inf_k
        k, eos = kind[-1], (eos1, eos2)[int(kind[-1]) - 1]
        alpha = u.alpha1[j] if k == "1" else 1.0 - u.alpha1[j]
        m, q = getattr(u, f"m{k}")[j], getattr(u, f"q{k}")[j]
        getattr(u, f"eta{k}")[j] = 0.5 * q * q / m + 0.5 * alpha * eos.p_inf
    else:
        value, field = kind.split()
        getattr(u, field)[j] = float(value)
    return u


FAULTS = ["alpha1", "m1", "m2", "energy1", "energy2", "inf m1", "inf m2", "inf eta1", "inf eta2",
          "nan q1", "nan eta2", "-inf eta1", "1.5e308 eta1", "1.5e308 eta2"]


@pytest.mark.parametrize("eos1, eos2", [(IDEAL, IDEAL), (EosParams(3.0, 100.0), IDEAL),
                                        (EosParams(3.0, 100.0), EosParams(2.5, 50.0))])
def test_one_pass_check_reports_what_the_ordered_checks_report(eos1, eos2):
    # every pair of faults at two different indices, in either order: the
    # error names the check and the index that the ordered checks name
    w = PrimitiveState(*(np.full(5, v) for v in (0.4, 1.0, 0.1, 150.0, 2.0, -0.3, 120.0)))
    faults = FAULTS + [f"sound{k}" for k, eos in ((1, eos1), (2, eos2)) if eos.p_inf > 0.0]
    checked = 0
    for first_kind in faults:
        for second_kind in faults:
            for i, j in ((3, 1), (1, 3)):
                u = ConservedState(*to_conserved(w, eos1, eos2).stack())
                with_fault(with_fault(u, first_kind, i, eos1, eos2), second_kind, j, eos1, eos2)
                with pytest.raises(AdmissibilityError) as want, np.errstate(all="ignore"):
                    ordered_checks(u, eos1, eos2, "here")
                with pytest.raises(AdmissibilityError) as got, np.errstate(all="ignore"):
                    validate_conserved(u, eos1, eos2, where="here")
                assert (str(got.value), got.value.index) == (str(want.value), want.value.index), \
                    (first_kind, i, second_kind, j)
                checked += 1
    assert checked == 2 * len(faults) ** 2


def with_primitive_fault(w, kind, j, eos1, eos2):
    """``w`` with the fault ``kind``, a field and the value it takes, put
    into entry ``j`` of that field, or into the field itself where it is a
    scalar."""
    field, value = kind
    if callable(value):
        value = value(eos1, eos2)
    fields = {name: np.array(getattr(w, name), dtype=float) for name in VARIABLES}
    if fields[field].ndim:
        fields[field][j] = value
    else:
        fields[field] = np.float64(value)
    return PrimitiveState(**fields)


PRIMITIVE_FAULTS = [("alpha1", 1.5), ("alpha1", 0.0), ("rho1", -1.0), ("rho2", 0.0),
                    ("p1", lambda eos1, eos2: -eos1.p_inf),
                    ("p2", lambda eos1, eos2: -eos2.p_inf - 1.0),
                    *((name, value) for name in VARIABLES for value in (np.nan, np.inf, -np.inf))]


@pytest.mark.parametrize("eos1, eos2, scalars", [
    (IDEAL, IDEAL, ()), (EosParams(3.0, 100.0), IDEAL, ()),
    (EosParams(3.0, 100.0), EosParams(2.5, 50.0), ()),
    (IDEAL, EosParams(3.0, 100.0), ("u1", "p2"))])
def test_primitive_check_reports_what_the_ordered_checks_report(eos1, eos2, scalars):
    # every pair of faults at two different indices, in either order: the
    # error names the check and the index that the frozen one-by-one checks
    # name, also where some fields are scalars and the others arrays
    w = PrimitiveState(*(v if name in scalars else np.full(5, v) for name, v in
                         zip(VARIABLES, (0.4, 1.0, 0.1, 150.0, 2.0, -0.3, 120.0))))
    validate_primitive(w, eos1, eos2)
    checked = 0
    for first_kind in PRIMITIVE_FAULTS:
        for second_kind in PRIMITIVE_FAULTS:
            for i, j in ((3, 1), (1, 3)):
                bad = with_primitive_fault(with_primitive_fault(w, first_kind, i, eos1, eos2),
                                           second_kind, j, eos1, eos2)
                with pytest.raises(AdmissibilityError) as want:
                    frozen_primitive.validate_primitive(bad, eos1, eos2, "here")
                with pytest.raises(AdmissibilityError) as got:
                    validate_primitive(bad, eos1, eos2, where="here")
                assert (str(got.value), got.value.index) == (str(want.value), want.value.index), \
                    (first_kind, i, second_kind, j)
                checked += 1
    assert checked == 2 * len(PRIMITIVE_FAULTS) ** 2


def test_admissibility_error_round_trips_through_pickle():
    err = pickle.loads(pickle.dumps(AdmissibilityError("non-positive rho1", 3, "initial data")))
    assert (err.what, err.index, err.where) == ("non-positive rho1", 3, "initial data")
    assert str(err) == "non-positive rho1 at index 3 [initial data]"


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


@pytest.mark.parametrize("state", [
    ConservedState(np.array([0.5, 0.6]), 1.0, 1.0, 0.0, 0.0, 2.5, 2.5),
    PrimitiveState(np.array([0.5, 0.6]), 1.0, 0.0, 1.0, np.array([1.0, 2.0]), 0.0, 1.0)],
    ids=["conserved", "primitive"])
def test_stack_broadcasts_scalar_and_array_fields(state):
    # a state whose fields mix scalars and arrays, which the checks and the
    # conversions accept, stacks as its fields broadcast to one shape.  A
    # ConservedState reads as that stack, a new array, which no view can be
    if isinstance(state, ConservedState):
        to_primitive(state, IDEAL, IDEAL)
        assert np.asarray(state).tobytes() == state.stack().tobytes()
        with pytest.raises(ValueError):
            np.asarray(state, copy=False)
    else:
        validate_primitive(state, IDEAL, IDEAL)
    s = state.stack()
    assert s.shape == (7, 2) and s.dtype == float
    for row, v in zip(s, state.astuple()):
        assert row.tobytes() == np.broadcast_to(np.asarray(v, dtype=float), (2,)).tobytes()


def conversion_of(convert, u):
    """What ``convert`` (``validate_conserved`` or ``to_primitive``) gives
    for ``u``: the bytes and shapes of what it returns, or the message and
    index of the AdmissibilityError it raises."""
    try:
        out = convert(u, IDEAL, STIFF)
    except AdmissibilityError as err:
        return str(err), err.index
    fields = out.astuple() if isinstance(out, PrimitiveState) else out
    return [(np.shape(v), np.asarray(v).tobytes()) for v in fields]


def test_a_state_and_its_stack_convert_alike():
    # every fault of the one-pass test, a state of scalars and a state that
    # mixes scalars and arrays: the checks and the conversion of a
    # ConservedState and of its conserved stack give the same bits, the
    # same messages and the same indices
    w = PrimitiveState(*(np.full(5, v) for v in (0.4, 1.0, 0.1, 150.0, 2.0, -0.3, 120.0)))
    states = [to_conserved(w[0], IDEAL, STIFF),
              ConservedState(np.array([0.5, 0.6]), 1.0, 1.0, 0.0, 0.0, 2.5, 500.0),
              ConservedState(0.5, np.array([1.0, -1.0]), 1.0, 0.0, 0.0, 2.5, 500.0)]
    for kind in FAULTS + ["sound2"]:
        u = ConservedState(*to_conserved(w, IDEAL, STIFF).stack())
        states.append(with_fault(u, kind, 3, IDEAL, STIFF))
    for u in states:
        for convert in (validate_conserved, to_primitive):
            with np.errstate(all="ignore"):
                assert conversion_of(convert, u) == conversion_of(convert, u.stack())


def test_conversions_read_the_stack_without_copying_it():
    # to_primitive's alpha1 is a view of the (7, k) float stack it is
    # given; validate_conserved, stopping at its first reduction (an alpha1
    # outside (0, 1)), allocates less than the stack holds, which a copy of
    # the stack alone would take
    w = PrimitiveState(*(np.full(20_000, v) for v in (0.4, 1.0, 0.1, 1.0, 2.0, -0.3, 0.8)))
    s = to_conserved(w, IDEAL, IDEAL).stack()
    assert np.shares_memory(to_primitive(s, IDEAL, IDEAL).alpha1, s)
    s[0, -1] = 1.5
    tracemalloc.start()
    try:
        with pytest.raises(AdmissibilityError, match="alpha1 outside"):
            validate_conserved(s, IDEAL, IDEAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.nbytes

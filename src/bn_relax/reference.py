"""Registry of the five benchmark Riemann problems and their exact solutions.

Each case stores the tabulated left/right/intermediate states of the exact
solution.  Acoustic waves of one phase live where the phase fraction is
constant, so each phase's variables follow single-phase gas dynamics between
the tabulated regions: shock speeds come from the mass jump condition,
rarefaction fans from the standard stiffened-gas isentrope, and the phase
fraction jumps only at the coupling contact.

Cases 4 and 5 have a phase absent on one side; the absent phase is filled
with the values it takes just on the other side of the coupling contact and
the phase fraction is clamped into (0, 1), matching how such data must be
fed to any scheme that divides by alpha_k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eos import EosParams
from .scheme import InitialData
from .state import PrimitiveState, validate_primitive

#: relative error bound the 4-5 significant digits of the tabulated states support
TABLE_RTOL = 5e-3


@dataclass(frozen=True)
class Wave:
    """One wave of a single phase's sub-fan.

    kind: 'shock' | 'contact' | 'coupling' | 'raref'
    family: -1 for a left-facing (u - c) fan, +1 for right-facing; 0 otherwise.
    """

    kind: str
    family: int = 0


@dataclass(frozen=True)
class PhaseFan:
    """Tabulated (rho, u, p) regions of one phase with the waves between them."""

    regions: tuple          # tuple of (rho, u, p)
    waves: tuple            # tuple of Wave, len(regions) - 1

    def __post_init__(self):
        assert len(self.waves) == len(self.regions) - 1


@dataclass(frozen=True)
class ExactWaveFan:
    alpha1_left: float
    alpha1_right: float
    u2_star: float
    phase1: PhaseFan
    phase2: PhaseFan


@dataclass(frozen=True)
class TestCase:
    id: int
    eos1: EosParams
    eos2: EosParams
    x0: float
    t_max: float
    cfl: float
    domain: tuple
    left: PrimitiveState
    right: PrimitiveState
    fan: ExactWaveFan | None = None

    @property
    def initial(self) -> InitialData:
        return InitialData(x0=self.x0, left=self.left, right=self.right)


def shock_speed(left, right):
    """Mass-conservation shock speed from the adjacent tabulated states."""
    rho_l, u_l, _ = left
    rho_r, u_r, _ = right
    return (rho_r * u_r - rho_l * u_l) / (rho_r - rho_l)


def wave_speeds(wave: Wave, left, right, eos: EosParams, u2_star: float):
    """(left edge, right edge) speeds of a wave between two tabulated regions."""
    if wave.kind == "shock":
        s = shock_speed(left, right)
        return s, s
    if wave.kind == "contact":
        return right[1], right[1]
    if wave.kind == "coupling":
        return u2_star, u2_star
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    if wave.family < 0:
        return (u_l - eos.sound_speed(rho_l, p_l), u_r - eos.sound_speed(rho_r, p_r))
    return (u_l + eos.sound_speed(rho_l, p_l), u_r + eos.sound_speed(rho_r, p_r))


def _fan_interior(wave: Wave, anchor, eos: EosParams, xi):
    """State inside a rarefaction: isentrope + acoustic Riemann invariant."""
    rho_a, u_a, p_a = anchor
    g = eos.gamma
    c_a = float(eos.sound_speed(rho_a, p_a))
    if wave.family < 0:
        c = (2.0 * c_a + (g - 1.0) * (u_a - xi)) / (g + 1.0)
        u = xi + c
    else:
        c = (2.0 * c_a + (g - 1.0) * (xi - u_a)) / (g + 1.0)
        u = xi - c
    ptot = (p_a + eos.p_inf) * (c / c_a) ** (2.0 * g / (g - 1.0))
    rho = g * ptot / (c * c)
    return rho, u, ptot - eos.p_inf


def _phase_values(fan: ExactWaveFan, phase: PhaseFan, eos: EosParams, xi):
    """(rho, u, p) arrays for one phase at self-similar speeds ``xi``."""
    xi = np.asarray(xi, dtype=float)
    rho = np.full(xi.shape, phase.regions[0][0])
    u = np.full(xi.shape, phase.regions[0][1])
    p = np.full(xi.shape, phase.regions[0][2])
    for i, wave in enumerate(phase.waves):
        left, right = phase.regions[i], phase.regions[i + 1]
        head, tail = wave_speeds(wave, left, right, eos, fan.u2_star)
        if wave.kind == "raref":
            inside = (xi >= head) & (xi < tail)
            if np.any(inside):
                anchor = left if wave.family < 0 else right
                fr, fu, fp = _fan_interior(wave, anchor, eos, xi[inside])
                rho[inside], u[inside], p[inside] = fr, fu, fp
        past = xi >= tail
        rho[past], u[past], p[past] = right
    return rho, u, p


def exact_sample(fan: ExactWaveFan, xi, eos1: EosParams, eos2: EosParams) -> PrimitiveState:
    """Exact solution at speeds ``xi = (x - x0)/t``; right limit on a wave."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    r1, u1, p1 = _phase_values(fan, fan.phase1, eos1, xi)
    r2, u2, p2 = _phase_values(fan, fan.phase2, eos2, xi)
    alpha1 = np.where(xi >= fan.u2_star, fan.alpha1_right, fan.alpha1_left)
    w = PrimitiveState(alpha1, r1, u1, p1, r2, u2, p2)
    return w[0] if scalar else w


def exact_profile(case: TestCase, cells: int, t: float) -> tuple:
    """(x, exact PrimitiveState) sampled at the cell centers at time t > 0."""
    if t <= 0.0:
        raise ValueError("exact profile needs t > 0")
    if cells < 1:
        raise ValueError(f"exact profile needs at least one cell, got {cells}")
    x_left, x_right = case.domain
    dx = (x_right - x_left) / cells
    x = x_left + dx * (np.arange(cells) + 0.5)
    return x, exact_sample(case.fan, (x - case.x0) / t, case.eos1, case.eos2)


def _case1() -> TestCase:
    eos1 = EosParams(gamma=1.4)
    eos2 = EosParams(gamma=1.4)
    p1 = PhaseFan(
        regions=((0.21430, -0.02609, 0.3),
                 (0.35, -0.7683, 0.6045),
                 (0.698, -0.7683, 0.6045),
                 (0.90583, -0.11581, 0.87069),
                 (0.96964, -0.03629, 0.95776)),
        waves=(Wave("shock"), Wave("contact"), Wave("coupling"), Wave("raref", +1)),
    )
    p2 = PhaseFan(
        regions=((1.00003, 0.00007, 1.0),
                 (0.9436, 0.0684, 0.9219),
                 (1.0591, 0.0684, 1.08383),
                 (0.99993, -0.00004, 1.0)),
        waves=(Wave("raref", -1), Wave("coupling"), Wave("shock")),
    )
    fan = ExactWaveFan(0.2, 0.7, u2_star=0.0684, phase1=p1, phase2=p2)
    left = PrimitiveState(0.2, *p1.regions[0], *p2.regions[0])
    right = PrimitiveState(0.7, *p1.regions[-1], *p2.regions[-1])
    return TestCase(1, eos1, eos2, x0=0.0, t_max=0.15, cfl=0.45, domain=(-0.5, 0.5),
                    left=left, right=right, fan=fan)


def _case2() -> TestCase:
    eos1 = EosParams(gamma=1.4)
    eos2 = EosParams(gamma=3.0, p_inf=100.0)
    p1 = PhaseFan(
        regions=((1.0, -19.59741, 1000.0),
                 (0.4684, 6.7332, 345.8279),
                 (0.50297, -1.75405, 382.08567),
                 (5.9991, -1.75405, 382.08567),
                 (1.0, -19.59741, 0.01)),
        waves=(Wave("raref", -1), Wave("coupling"), Wave("contact"), Wave("shock")),
    )
    p2 = PhaseFan(
        regions=((1.0, -19.59716, 1000.0),
                 (0.7687, -6.3085, 399.5878),
                 (1.6087, -6.3085, 466.72591),
                 (1.0, -19.59741, 0.01)),
        waves=(Wave("raref", -1), Wave("coupling"), Wave("shock")),
    )
    fan = ExactWaveFan(0.3, 0.8, u2_star=-6.3085, phase1=p1, phase2=p2)
    left = PrimitiveState(0.3, *p1.regions[0], *p2.regions[0])
    right = PrimitiveState(0.8, *p1.regions[-1], *p2.regions[-1])
    return TestCase(2, eos1, eos2, x0=0.8, t_max=0.007, cfl=0.45, domain=(0.0, 1.0),
                    left=left, right=right, fan=fan)


def _case3() -> TestCase:
    eos1 = EosParams(gamma=1.4)
    eos2 = EosParams(gamma=1.4)
    regions = ((0.99988, -1.99931, 0.4),
               (0.0219, 0.0, 0.0019),
               (0.0219, 0.0, 0.0019),
               (0.99988, 1.99931, 0.4))
    waves = (Wave("raref", -1), Wave("coupling"), Wave("raref", +1))
    fan = ExactWaveFan(0.2, 0.5, u2_star=0.0,
                       phase1=PhaseFan(regions, waves), phase2=PhaseFan(regions, waves))
    left = PrimitiveState(0.2, *regions[0], *regions[0])
    right = PrimitiveState(0.5, *regions[-1], *regions[-1])
    return TestCase(3, eos1, eos2, x0=0.5, t_max=0.15, cfl=0.45, domain=(0.0, 1.0),
                    left=left, right=right, fan=fan)


def _case4() -> TestCase:
    # phase 1 fills the left side; alpha1 is clamped below 1 and the absent
    # phase 2 copies its values from just right of the coupling contact
    eos1 = EosParams(gamma=3.0)
    eos2 = EosParams(gamma=1.4)
    clamp = 1.0 - 1e-4
    p1 = PhaseFan(
        regions=((1.6, 0.80311, 1.3),
                 (2.0, 0.4, 2.6),
                 (1.84850, 0.91147, 2.05277),
                 (2.03335, 0.91147, 2.05277),
                 (1.62668, 0.55623, 1.02638)),
        waves=(Wave("shock"), Wave("coupling"), Wave("contact"), Wave("shock")),
    )
    fill2 = (4.0, 0.1, 2.45335)
    p2 = PhaseFan(
        regions=(fill2,
                 (4.0, 0.1, 2.45335),
                 (7.69667, 0.74797, 6.13338)),
        waves=(Wave("coupling"), Wave("raref", +1)),
    )
    fan = ExactWaveFan(clamp, 0.4, u2_star=0.1, phase1=p1, phase2=p2)
    left = PrimitiveState(clamp, *p1.regions[0], *fill2)
    right = PrimitiveState(0.4, *p1.regions[-1], *p2.regions[-1])
    return TestCase(4, eos1, eos2, x0=0.0, t_max=0.15, cfl=0.45, domain=(-0.5, 0.5),
                    left=left, right=right, fan=fan)


def _case5() -> TestCase:
    # two pure phases coupled across the contact; both sides clamped at 1e-9
    # and each absent phase filled from across the coupling wave
    eos1 = EosParams(gamma=3.0)
    eos2 = EosParams(gamma=1.4)
    eps = 1e-9
    fill1 = (2.0, 1.0, 10.0)   # phase-1 values left of the contact
    fill2 = (2.0, 1.0, 10.0)   # phase-2 values right of the contact
    p1 = PhaseFan(
        regions=((1.6, 1.79057, 5.0),
                 (2.0, 1.0, 10.0),
                 fill1),
        waves=(Wave("shock"), Wave("coupling")),
    )
    p2 = PhaseFan(
        regions=(fill2,
                 (2.0, 1.0, 10.0),
                 (2.67183, 1.78888, 15.0)),
        waves=(Wave("coupling"), Wave("raref", +1)),
    )
    fan = ExactWaveFan(1.0 - eps, eps, u2_star=1.0, phase1=p1, phase2=p2)
    left = PrimitiveState(1.0 - eps, *p1.regions[0], *fill2)
    right = PrimitiveState(eps, *fill1, *p2.regions[-1])
    return TestCase(5, eos1, eos2, x0=0.0, t_max=0.05, cfl=0.45, domain=(-0.5, 0.5),
                    left=left, right=right, fan=fan)


_BUILDERS = {1: _case1, 2: _case2, 3: _case3, 4: _case4, 5: _case5}


def get_case(case_id: int) -> TestCase:
    """Benchmark case 1-5 with tabulated exact solution."""
    if case_id not in _BUILDERS:
        raise ValueError(f"unknown case id {case_id}; valid ids are 1..5")
    case = _BUILDERS[case_id]()
    validate_primitive(case.left, case.eos1, case.eos2, where=f"case {case_id} left")
    validate_primitive(case.right, case.eos1, case.eos2, where=f"case {case_id} right")
    return case

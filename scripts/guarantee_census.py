#!/usr/bin/env python3
"""A census of the scheme's guarantees on whole runs of random two-state problems.

Each draw is a Riemann problem on 16 cells of (-0.5, 0.5), x0 = 0, marched to
``t_final = 0.01`` at cfl 0.45 with the entropy audit on.  Each phase's EOS
is one of ideal 1.4, ideal 1.67, stiffened (3, 100) and stiffened (4.4,
6000).  On each side ``alpha1`` is log-uniform from ``amin`` to 0.5, taken
from either end, ``rho_k`` uniform in 0.05-5, ``u_k`` in +-6 and ``p_k``
log-uniform from 0.2 to ``pmax``.  Every other draw makes one side's phase
slip near-sonic: ``u1 - u2`` is +-(0.8 to 1.2) times that side's phase-1
sound speed.  The tiers (``TIERS``) fix the seed, the number of draws,
``amin``, ``pmax`` and whether every draw slips: a slipping draw takes the
left side's ``alpha1`` on both sides, and on each side ``u1 - u2`` is 1 to
3 times that side's phase-1 sound speed, with one sign for both sides.  Its
extra draws follow the draws of the common problem, so a tier that does not
slip draws what it drew before slipping draws existed.

A run may take at most ``STEP_BUDGET`` steps: the budget is enforced by
wrapping ``scheme.step``, so a march that would not end is an outcome
instead of a hang.  Each draw falls in exactly one class, the first that
applies: budget hit, ``AdmissibilityError``, ``EosDomainError``,
``SolverError``, conservation error above ``TOL``, entropy slack above
``TOL``, clean.  The report gives the count of each class and the first draw
of each class as a reproducer ready to paste, and one line of digests, one
per tier, of every draw's class, step count and entropy slack in hex: a
change that keeps every draw's outcome prints the same line.  It exits 0
whatever the counts.  Usage:

    PYTHONPATH=src python scripts/guarantee_census.py
"""
import hashlib
import time

import numpy as np

from bn_relax import AdmissibilityError, EosDomainError, EosParams, PrimitiveState, SolverError
from bn_relax import scheme
from bn_relax.scheme import InitialData, RunConfig

#: the phases' equations of state
EOS = (EosParams(1.4), EosParams(1.67), EosParams(3.0, 100.0), EosParams(4.4, 6000.0))
#: (seed, draws, amin, pmax, slipping) of each tier
TIERS = ((1, 150, 1e-9, 200.0, False), (2, 60, 1e-14, 2e4, False), (3, 60, 1e-9, 200.0, True))
#: steps a run may take before it counts as a budget hit: the longest run of
#: the tiers that reaches t_final takes 2597 steps (seed 1, draw 57)
STEP_BUDGET = 3000
#: the bound on conservation error and entropy slack of a clean run
TOL = 1e-12
#: the errors a run may raise, each a class of its own
ERRORS = (AdmissibilityError, EosDomainError, SolverError)
CLASSES = ("budget hit", *(e.__name__ for e in ERRORS), "conservation", "slack", "clean")


class _BudgetHit(Exception):
    """Raised by the wrapped step past ``STEP_BUDGET`` steps of one run."""


def draw(rng, amin, pmax, near_sonic, slipping=False):
    """(eos1, eos2, left, right) of one problem."""
    eos1, eos2 = (EOS[i] for i in rng.integers(0, len(EOS), 2))
    sides = []
    for _ in range(2):
        x = float(np.exp(rng.uniform(np.log(amin), np.log(0.5))))
        alpha1 = x if rng.random() < 0.5 else 1.0 - x
        rho1, rho2 = rng.uniform(0.05, 5.0, 2)
        u1, u2 = rng.uniform(-6.0, 6.0, 2)
        p1, p2 = np.exp(rng.uniform(np.log(0.2), np.log(pmax), 2))
        sides.append([alpha1, rho1, u1, p1, rho2, u2, p2])
    if near_sonic:
        side = sides[rng.integers(0, 2)]
        slip = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2)
        side[2] = side[5] + slip * float(eos1.sound_speed(side[1], side[3]))
    if slipping:
        sides[1][0] = sides[0][0]
        sign = rng.choice([-1.0, 1.0])
        for side in sides:
            side[2] = side[5] + sign * rng.uniform(1.0, 3.0) * float(
                eos1.sound_speed(side[1], side[3]))
    left, right = (PrimitiveState(*map(float, s)) for s in sides)
    return eos1, eos2, left, right


def outcome(eos1, eos2, left, right):
    """(class, detail, entropy slack) of the run of one problem; the slack is
    NaN where the run raised."""
    cfg = RunConfig(cells=16, t_final=0.01, domain=(-0.5, 0.5), cfl=0.45, entropy_audit=True)
    try:
        res = scheme.run(InitialData(0.0, left, right), cfg, eos1, eos2)
    except _BudgetHit:
        return "budget hit", f"{STEP_BUDGET} steps", np.nan
    except ERRORS as err:
        return next(e for e in ERRORS if isinstance(err, e)).__name__, str(err), np.nan
    drift = max(res.conservation_error.values())
    if drift > TOL:
        return "conservation", f"conservation error {drift:.3g}", res.entropy_slack
    if res.entropy_slack > TOL:
        return "slack", f"entropy slack {res.entropy_slack:.3g}", res.entropy_slack
    return "clean", f"{res.steps} steps", res.entropy_slack


def census():
    """{class: count} over every tier, {class: first reproducer}, and one
    digest per tier of every draw's (class, steps taken, slack in hex)."""
    counts, first, digests = dict.fromkeys(CLASSES, 0), {}, []
    original = scheme.step
    taken = 0

    def budgeted(rows, cfg, dt_cap=np.inf):
        nonlocal taken
        taken += 1
        if taken > STEP_BUDGET:
            raise _BudgetHit
        return original(rows, cfg, dt_cap)

    scheme.step = budgeted
    try:
        for seed, draws, amin, pmax, slipping in TIERS:
            rng = np.random.default_rng(seed)
            digest = hashlib.sha256()
            for k in range(draws):
                eos1, eos2, left, right = draw(rng, amin, pmax, k % 2 == 1 and not slipping,
                                               slipping)
                taken = 0
                name, detail, slack = outcome(eos1, eos2, left, right)
                counts[name] += 1
                first.setdefault(name, (f"seed {seed} draw {k}: {detail}",
                                        f"eos1, eos2 = {eos1!r}, {eos2!r}",
                                        f"left = {left!r}", f"right = {right!r}"))
                digest.update(f"{name} {taken} {float(slack).hex()}\n".encode())
            digests.append(digest.hexdigest()[:16])
    finally:
        scheme.step = original
    return counts, first, digests


def main():
    tic = time.perf_counter()
    counts, first, digests = census()
    print(f"{sum(counts.values())} draws in {time.perf_counter() - tic:.1f} s, "
          f"tiers (seed, draws, amin, pmax, slipping) {TIERS}, budget {STEP_BUDGET} steps")
    for name in CLASSES:
        print(f"  {name:18s} {counts[name]}")
    print("draw digests (class, steps, slack) by tier: "
          + " ".join(f"seed {tier[0]} {d}" for tier, d in zip(TIERS, digests)))
    for name in CLASSES:
        if name in first:
            print(f"\n# {name}, " + "\n".join(first[name]))


if __name__ == "__main__":
    main()

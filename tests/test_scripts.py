"""The scripts under ``scripts/`` call the package API: each one loads, and
the parts of the gate and the dispatch count that tier-1 can afford run.

No value is pinned: the gate's digests are compared across commits by
running the script, and the dispatch count depends on what the process ran
before it."""
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

from bn_relax.state import VARIABLES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    """The script ``scripts/<name>.py`` as a module, loaded by path; the
    ``sys.path`` entries its import adds are taken out again."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_gate_digests_selection_runs():
    selection, solved = load("gate_digests")._selection_digests()
    for digest in (selection, solved):
        assert re.fullmatch(r"[0-9a-f]{16}", digest)


def test_dispatch_count_runs():
    calls = load("dispatch_count").calls_per_step(1)
    assert calls > 0 and calls == int(calls)


def test_equal_cost_loads():
    equal_cost = load("equal_cost")
    assert callable(equal_cost.main) and callable(equal_cost.scaled_run)


def test_equal_cost_extends_the_ladder_past_the_reference(monkeypatch):
    # Rusanov's reference run costs more than every relaxation level (of 100
    # and 200 cells), and relaxation is the more accurate scheme: one more
    # level, of 400 cells, brings the reference inside the ladder, and the
    # check passes rather than reporting NaN ratios
    equal_cost = load("equal_cost")
    calls = []

    def timed(timer, case, scheme, cells):
        calls.append((scheme, cells))
        if scheme == "rusanov":
            return 0.3, dict.fromkeys(VARIABLES, 1.0)
        return cells / 1000.0, dict.fromkeys(VARIABLES, 1.0 / cells)

    monkeypatch.setattr(equal_cost, "timed", timed)
    monkeypatch.setattr(sys, "argv", ["equal_cost.py", "--levels", "2"])
    equal_cost.main()
    per_case = [("relaxation", 100), ("relaxation", 200), ("rusanov", 1600), ("relaxation", 400)]
    assert calls == per_case * len(equal_cost.CASES)


def test_guarantee_census_runs(monkeypatch):
    census = load("guarantee_census")
    monkeypatch.setattr(census, "TIERS", ((1, 4, 1e-9, 200.0, False), (3, 2, 1e-9, 200.0, True)))
    step = census.scheme.step
    counts, first, digests = census.census()
    assert sum(counts.values()) == 6 and set(first) <= set(counts)
    assert len(digests) == 2 and all(re.fullmatch(r"[0-9a-f]{16}", d) for d in digests)
    assert census.scheme.step is step


def test_guarantee_census_slipping_draws():
    # a slipping draw has one alpha1 on both sides, and on each side phase 1
    # slips through phase 2 at 1-3 times its sound speed, one way on both
    census = load("guarantee_census")
    rng = np.random.default_rng(3)
    signs = set()
    for _ in range(20):
        eos1, _, left, right = census.draw(rng, 1e-9, 200.0, False, slipping=True)
        assert left.alpha1 == right.alpha1
        slips = [(w.u1 - w.u2) / float(eos1.sound_speed(w.rho1, w.p1)) for w in (left, right)]
        assert all(1.0 - 1e-12 <= abs(x) <= 3.0 + 1e-12 for x in slips)
        assert slips[0] * slips[1] > 0.0
        signs.add(slips[0] > 0.0)
    assert signs == {False, True}

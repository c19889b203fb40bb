"""The scripts under ``scripts/`` call the package API: each one loads, and
the parts of the gate and the dispatch count that tier-1 can afford run.

No value is pinned: the gate's digests are compared across commits by
running the script, and the dispatch count depends on what the process ran
before it."""
import importlib.util
import re
import sys
from pathlib import Path

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


def test_guarantee_census_runs(monkeypatch):
    census = load("guarantee_census")
    monkeypatch.setattr(census, "TIERS", ((1, 4, 1e-9, 200.0),))
    step = census.scheme.step
    counts, first = census.census()
    assert sum(counts.values()) == 4 and set(first) <= set(counts)
    assert census.scheme.step is step

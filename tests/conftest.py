import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from bn_relax import ConservedState, EosParams, MarchRows, PrimitiveState


def rng_of(nodeid):
    """The generator of the ``rng`` fixture of the test ``nodeid``."""
    return np.random.default_rng([20260810, zlib.crc32(nodeid.encode())])


@pytest.fixture
def rng(request):
    """Generator private to each test, so its draws do not depend on which
    tests ran before it.  The seed mixes a fixed base with a stable hash of
    the test's node id (``hash`` of a str changes between processes)."""
    return rng_of(request.node.nodeid)


def random_primitive(rng, n, alpha_range=(0.05, 0.95), rho_range=(0.2, 3.0),
                     u_range=(-1.0, 1.0), p_range=(0.2, 3.0)):
    """Admissible random states for ideal-gas phases."""
    return PrimitiveState(
        alpha1=rng.uniform(*alpha_range, n),
        rho1=rng.uniform(*rho_range, n), u1=rng.uniform(*u_range, n),
        p1=rng.uniform(*p_range, n),
        rho2=rng.uniform(*rho_range, n), u2=rng.uniform(*u_range, n),
        p2=rng.uniform(*p_range, n),
    )


def fresh_step(advance, cells, cfg, eos1, eos2, dt_cap=np.inf):
    """(new cells, StepInfo) of one step ``advance`` (``scheme.step`` or
    ``rusanov.rusanov_step``) on rows formed afresh from ``cells``, which
    it leaves untouched; the step's new cells are spliced into the rows,
    and the new cells returned view the rows' conserved stack."""
    rows = MarchRows(cells, eos1, eos2)
    info = advance(rows, cfg, dt_cap)
    rows.splice(info.updated, info.new)
    return ConservedState(*rows.u), info


#: the nine rows of a sampled state, by the names ``fields`` gives them
SAMPLED = ("alpha1", "tau1", "u1", "pi1", "E1", "tau2", "u2", "pi2", "E2")


def fields(sampled):
    """``sample``'s result ``(alpha1, table)`` with its nine rows named
    (``SAMPLED``): ``alpha1``, then tau, u, pi and E of phase 1 and of
    phase 2, each a view of the table."""
    alpha1, table = sampled
    return SimpleNamespace(alpha1=alpha1, **{f"{name}{k + 1}": table[i, k] for k in range(2)
                                             for i, name in enumerate(("tau", "u", "pi", "E"))})


def psi(ctx, m):
    """The left-hand side psi(m) of the star solve's scalar equation."""
    return ctx.psi_mach(m)[0]


@pytest.fixture(scope="session")
def ideal():
    return EosParams(gamma=1.4)


@pytest.fixture(scope="session")
def stiff():
    return EosParams(gamma=3.0, p_inf=100.0)

"""A frozen copy of the primitive-state check as it stood when it ran its
checks one by one, each with its own comparison, before it read the bounds
that ``riemann.check_pair`` reads.  It is the oracle of
``state.validate_primitive``: the same state must give the same message at
the same index.  Not a test module; ``test_state`` imports it.
"""
import numpy as np

from bn_relax.state import VARIABLES, AdmissibilityError


def _first_bad(mask):
    return int(np.argmax(np.atleast_1d(mask)))


def _check_alpha1(alpha1, where):
    a = np.asarray(alpha1, dtype=float)
    ok = (a > 0.0) & (a < 1.0)
    if not np.all(ok):
        raise AdmissibilityError("alpha1 outside (0,1)", _first_bad(~ok), where)
    return a


def validate_primitive(w, eos1, eos2, where=""):
    """Checks, in order: alpha1 in (0,1), positive densities, positive ``p +
    p_inf``, and then finite densities, velocities and pressures."""
    _check_alpha1(w.alpha1, where)
    for name, rho in (("rho1", w.rho1), ("rho2", w.rho2)):
        r = np.asarray(rho, dtype=float)
        if not np.all(r > 0.0):
            raise AdmissibilityError(f"non-positive {name}", _first_bad(~(r > 0)), where)
    for name, rho, p, eos in (("phase 1", w.rho1, w.p1, eos1), ("phase 2", w.rho2, w.p2, eos2)):
        hyp = np.asarray(p, dtype=float) + eos.p_inf
        if not np.all(hyp > 0.0):
            raise AdmissibilityError(f"{name}: p + p_inf <= 0 (complex sound speed)",
                                     _first_bad(~(hyp > 0)), where)
    for name in VARIABLES[1:]:
        finite = np.isfinite(getattr(w, name))
        if not np.all(finite):
            raise AdmissibilityError(f"non-finite {name}", _first_bad(~finite), where)

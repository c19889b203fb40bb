"""A frozen copy of the predictor algebra and the selection error message as
they stood when both read the two sides of an interface pair as
``PrimitiveState``s: ``sharp_quantities(wL, wR, params)``,
``fixed_point_context(wL, wR, s, params)`` and the message of
``scheme.InterfaceError(what, wL, wR, j)``.  It is the bitwise oracle of the
pair-based functions: the same states must give the same bytes in every
field, and the same message.  Not a test module; ``test_riemann`` and
``test_scheme`` import it.
"""
import numpy as np

from bn_relax.riemann import (FixedPointContext, SharpQuantities, _acoustic_taus, _classify,
                              _context, _star_predictors)
from bn_relax.state import VARIABLES


def sharp_quantities(wL, wR, params) -> SharpQuantities:
    a1, a2 = params.a1, params.a2
    u1, pi1 = _star_predictors(wL.u1, wR.u1, wL.p1, wR.p1, a1)
    t1l, t1r = _acoustic_taus(1.0 / np.asarray(wL.rho1, dtype=float),
                              1.0 / np.asarray(wR.rho1, dtype=float), wL.u1, wR.u1, u1, a1)
    u2, pi2 = _star_predictors(wL.u2, wR.u2, wL.p2, wR.p2, a2)
    a2L = 1.0 - np.asarray(wL.alpha1, dtype=float)
    a2R = 1.0 - np.asarray(wR.alpha1, dtype=float)
    lam = (a2R - a2L) / (a2R + a2L)
    ratio = a1 / a2
    u_cap = (u1 - u2 - lam * (pi1 - pi2) / a2) / (1.0 + ratio * np.abs(lam))
    return SharpQuantities(u1, pi1, t1l, t1r, u2, pi2, lam, u_cap, *_classify(u_cap, t1l, t1r, a1))


def fixed_point_context(wL, wR, s, params) -> FixedPointContext:
    return _context(np.asarray(wL.alpha1, dtype=float), np.asarray(wR.alpha1, dtype=float),
                    s.u_sharp1 - s.u_sharp2, s.pi_sharp1 - s.pi_sharp2, s.tau_sharp1_l,
                    s.tau_sharp1_r, s.lambda_alpha, params.a1, params.a2)


def _dump(w, j):
    vals = {k: float(getattr(w, k)[j]) for k in VARIABLES}
    return "{" + ", ".join(f"{k}={v:.6g}" for k, v in vals.items()) + "}"


def interface_error_message(what, wL, wR, j):
    """The message of an ``InterfaceError`` at interface ``j`` of the row ``(wL, wR)``."""
    return f"{what} at interface {j}; left={_dump(wL, j)} right={_dump(wR, j)}"

"""A frozen copy of the a1 and a2 thresholds and of the predictor algebra as
they stood when each threshold took one ``_largest_root`` call per quadratic
and selection formed every predictor again after an a1 climb:
``largest_root``, ``volume_least``, ``a1_least`` and ``sharp_quantities``
(with the helpers it called).  It is the bitwise oracle of the stacked
thresholds and of the predictors formed on the phase stack of the
parameters, after a climb too: the same inputs must give the same bytes.
It takes today's existence condition: the window of ``u_cap`` binds, and
its two roots count in the a1 threshold, only where alpha1 jumps.  Not a
test module; ``test_scheme`` imports it.
"""
import numpy as np

from bn_relax.riemann import SharpQuantities


def largest_root(a, b, c):
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    den = -b - sq
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(b < 0.0, (sq - b) / (2.0 * a), np.where(den < 0.0, 2.0 * c / den, 0.0))
    return np.where(disc >= 0.0, root, -np.inf)


def volume_least(tauL, tauR, du, dp, lam=0.0, k=0.0):
    return np.maximum(largest_root(tauL, (1.0 + lam) * du / 2.0, k - dp / 2.0),
                      largest_root(tauR, (1.0 - lam) * du / 2.0, dp / 2.0 - k))


def a1_least(pair, s, a):
    tauL, tauR = 1.0 / pair[:, 1]
    (du, dp), (u_sum, p_sum) = pair[1, 2:4] - pair[0, 2:4], pair[0, 2:4] + pair[1, 2:4]
    lam = s.lambda_alpha
    g = np.abs(lam) / a[1]
    h = lam * du / (2.0 * a[1])
    c0 = 0.5 * u_sum - s.u_sharp2 - lam * (0.5 * p_sum - s.pi_sharp2) / a[1]
    upper = largest_root(g * tauL, tauL + 0.5 * g * du - h, 0.5 * du - 0.5 * g * dp - c0)
    lower = largest_root(g * tauR, tauR + 0.5 * g * du + h, c0 + 0.5 * du + 0.5 * g * dp)
    equal = pair[0, 0] == pair[1, 0]
    upper, lower = np.where(equal, -np.inf, upper), np.where(equal, -np.inf, lower)
    return np.maximum(np.maximum(volume_least(tauL, tauR, du, dp), upper), lower)


def _acoustic_taus(tauL, tauR, uL, uR, u_s, a):
    return tauL + (u_s - uL) / a, tauR - (u_s - uR) / a


def _star_predictors(uL, uR, pL, pR, a):
    u_s = 0.5 * (uL + uR) - (pR - pL) / (2.0 * a)
    pi_s = 0.5 * (pL + pR) - 0.5 * a * (uR - uL)
    return u_s, pi_s


def _classify(u_cap, tau_l, tau_r, a1, equal):
    eps = 1e-12 * a1 * np.maximum(tau_l, tau_r)
    ordering = np.where(np.abs(u_cap) <= eps, 0, np.sign(u_cap)).astype(np.int8)
    window = (u_cap > -a1 * tau_r) & (u_cap < a1 * tau_l)
    feasible = (tau_l > 0.0) & (tau_r > 0.0) & (window | equal)
    return ordering, feasible


def sharp_quantities(pair, a) -> SharpQuantities:
    a1, a2 = a[0], a[1]
    (al, rho1l, u1l, p1l, _, u2l, p2l), (ar, rho1r, u1r, p1r, _, u2r, p2r) = pair
    u1, pi1 = _star_predictors(u1l, u1r, p1l, p1r, a1)
    t1l, t1r = _acoustic_taus(1.0 / rho1l, 1.0 / rho1r, u1l, u1r, u1, a1)
    u2, pi2 = _star_predictors(u2l, u2r, p2l, p2r, a2)
    a2L, a2R = 1.0 - al, 1.0 - ar
    lam = (a2R - a2L) / (a2R + a2L)
    ratio = a1 / a2
    u_cap = (u1 - u2 - lam * (pi1 - pi2) / a2) / (1.0 + ratio * np.abs(lam))
    return SharpQuantities(u1, pi1, t1l, t1r, u2, pi2, lam, u_cap,
                           *_classify(u_cap, t1l, t1r, a1, al == ar))

"""A frozen copy of the star solve as it stood before its bookkeeping was cut
down: ``FrozenContext`` evaluates psi and its Mach number with every
coefficient formed on each call, and ``solve_star`` keeps the bracket with
``np.where`` on every sweep.  It is the bitwise oracle of
``riemann.solve_star``: the same context must give the same bytes of
``(m_star, mach)``.  Not a test module; ``test_riemann`` imports it.
"""
import numpy as np

from bn_relax.riemann import _BRACKET, _BRACKET_ENDS, MAX_SWEEPS, MU, STOP_TOL, SolverError


class FrozenContext:
    """psi and its Mach number on the fields of a ``FixedPointContext``."""

    def __init__(self, ctx):
        self.nu, self.tau_ratio, self.coupling, self.rhs = (ctx.nu, ctx.tau_ratio, ctx.coupling,
                                                            ctx.rhs)

    def conservative_coeffs(self):
        q = 1.0 + 1.0 / self.nu
        rs = 1.0 / np.sqrt(self.nu)
        return q, 2.0 * (1.0 - rs) ** 2, 4.0 * rs, 4.0 / self.nu

    def mach_conservative(self, m):
        m = np.asarray(m, dtype=float)
        q, drift, four_rs, four_over_nu = self.conservative_coeffs()
        two_mb = q * (1.0 + m * m)
        disc = np.sqrt((q * (1.0 - m) ** 2 + drift * m) * (two_mb + four_rs * m))
        out = four_over_nu * m / (two_mb + disc)
        return np.where(self.nu == 1.0, m, out)

    def cap_coeffs(self):
        shift = (1.0 - MU) * self.tau_ratio
        den = 1.0 - shift
        return shift, 1.0 / (self.nu * np.where(den > 0.0, den, np.inf)), \
            np.where(den > 0.0, 0.0, np.inf)

    def mach_cap(self, m):
        shift, slope, offset = self.cap_coeffs()
        return (np.asarray(m, dtype=float) + shift) * slope + offset

    def mach(self, m):
        return np.minimum(self.mach_conservative(m), self.mach_cap(m))

    def psi_mach(self, m):
        m = np.asarray(m, dtype=float)
        mach = self.mach(m)
        return m + self.coupling * ((1.0 + self.nu) * m - 2.0 * self.nu * mach), mach


def seed(ctx: FrozenContext):
    c, nu, rhs = ctx.coupling, ctx.nu, ctx.rhs
    c_nu = c * nu
    q = 1.0 + 1.0 / nu
    alpha = (1.0 + c * (1.0 + nu)) / (2.0 * c_nu)
    beta = -rhs / (2.0 * c_nu)
    scale = c_nu / alpha
    b = beta * (q + 2.0 / c_nu) * scale
    d1 = (2.0 * beta * beta - q * alpha + 2.0 / nu) * scale
    d0 = -q * beta * scale
    shift = b / 3.0
    p = d1 - b * shift
    r = (2.0 * shift * shift - d1) * shift + d0
    with np.errstate(invalid="ignore", divide="ignore"):
        amp = 2.0 * np.sqrt(-p / 3.0)
        angle = np.arccos(np.clip(-4.0 * r / (amp * amp * amp), -1.0, 1.0)) / 3.0
        conservative = amp * np.cos(angle - 2.0 * np.pi / 3.0) - shift
        shift_cap, slope, _ = ctx.cap_coeffs()
        cap = (slope * shift_cap - beta) / (alpha - slope)
    conservative = np.where((conservative >= 0.0) & (conservative <= 1.0), conservative, np.inf)
    cap = np.where((slope > 0.0) & (cap >= 0.0) & (cap <= 1.0), cap, np.inf)
    seed = np.minimum(conservative, cap)
    return np.where(np.isfinite(seed), seed, 0.0)


def solve_star(fixed_point_context, seed_of=lambda m0: m0):
    """``(m_star, mach(m_star), sweeps)`` of the frozen solve; the seed is
    ``seed_of`` applied to the frozen ``seed``."""
    ctx = FrozenContext(fixed_point_context)
    rhs = np.asarray(ctx.rhs, dtype=float)
    n = rhs.size
    points = np.minimum(seed_of(seed(ctx)) * _BRACKET[0] + _BRACKET[1], 1.0)
    f, mach_points = ctx.psi_mach(points)
    f -= rhs
    if (f[-1] <= 0.0).any() or (rhs < 0.0).any():
        raise SolverError("fixed point bracket failure on (0, 1)")
    k = (f[1:] > 0.0).argmax(axis=0)
    lo, hi, f_lo, f_hi = np.concatenate([points, f]).take((k + _BRACKET_ENDS) * n + np.arange(n))
    tol = STOP_TOL * np.maximum(1.0, rhs)
    m, mach = points[0], mach_points[0]
    widths = [np.inf] * 3
    moved_lo = np.full(rhs.shape, -1)
    active = rhs > tol
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_SWEEPS):
            if not active.any():
                break
            sweeps += 1
            width = hi - lo
            x = lo - f_lo * (width / (f_hi - f_lo))
            bisect = ~((x > lo) & (x < hi)) | (width > 0.5 * widths[0])
            widths = widths[1:] + [width]
            x = np.where(bisect, lo + 0.5 * width, x)
            f, mach_x = ctx.psi_mach(x)
            f -= rhs
            to_lo = f <= 0.0
            again = to_lo == moved_lo
            lo, hi = np.where(to_lo, x, lo), np.where(to_lo, hi, x)
            f_lo = np.where(to_lo, f, np.where(again, 0.5 * f_lo, f_lo))
            f_hi = np.where(to_lo, np.where(again, 0.5 * f_hi, f_hi), f)
            moved_lo = to_lo
            m = np.where(active, x, m)
            mach = np.where(active, mach_x, mach)
            active &= (np.abs(f) > tol) & (hi - lo > STOP_TOL * hi)
    return m.reshape(rhs.shape), mach.reshape(rhs.shape), sweeps

"""A frozen copy of the entropy audit as it stood when it balanced the whole
row every step, with the whole flux rows a step's window expands to.
``whole_rows`` expands a step's window; ``entropy_balance`` gives the
audit's balance and scale of every cell, whose largest ratio is the step's
slack.  Together they are the bitwise oracle of ``scheme.EntropyAudit``:
the same step must give the same slack bits, and every cell outside the
window a balance of exactly 0.0.  Not a test module; ``test_scheme``
imports it.
"""
import numpy as np

from bn_relax.scheme import _pad_edges


def whole_rows(info, interfaces):
    """The (2, 7, ``interfaces``) - and + flux rows of the step ``info``:
    every interface left of the window carries the fluxes of its first one,
    and every one right of it those of its last one."""
    window, a = info.fluxes, info.a
    b = a + window.shape[-1] - 1
    f = np.empty((2, 7, interfaces))
    f[:, :, a:b + 1] = window
    f[:, :, :a] = window[:, :, :1]
    f[:, :, b + 1:] = window[:, :, -1:]
    return f


def phase_entropies(w, eos1, eos2):
    """Mathematical entropy of each phase of a primitive state, phase axis first."""
    return np.array([eos.entropy(rho, eos.internal_energy(rho, p))
                     for rho, p, eos in ((w.rho1, w.p1, eos1), (w.rho2, w.p2, eos2))])


def entropy_balance(info, m_old, entropies, m_new, new_entropies, lam):
    """Per cell and phase, the entropy balance and its scale of the step
    ``info`` (``lam`` is dt/dx), with the phase's mass flux upwinded by its
    contact speed: ``m_old`` and ``entropies`` are the partial masses and
    entropies before the step, ``m_new`` and ``new_entropies`` after it,
    each (2, n)."""
    fm = whole_rows(info, m_old.shape[1] + 1)[0]
    # contact speeds: those of the solution on the window's interfaces, 0
    # outside it, where the two neighbours of an interface have bitwise
    # equal entropies, so either serves as upwind
    u_star = np.zeros((2, fm.shape[1]))
    u_star[:, info.a:info.a + info.fluxes.shape[-1]] = info.sol.u1_star, info.sol.u2_star
    s_pad = _pad_edges(entropies)
    phi = fm[1:3] * np.where(u_star > 0.0, s_pad[:, :-1], s_pad[:, 1:])
    balance = m_new * new_entropies - m_old * entropies + lam * (phi[:, 1:] - phi[:, :-1])
    scale = np.maximum(1.0, np.maximum(np.abs(m_old * entropies),
                                       lam * (np.abs(phi[:, 1:]) + np.abs(phi[:, :-1]))))
    return balance, scale

"""Hot numeric kernels: residuals, Jacobians and P_n sums, vectorized in numpy.

All kernels work on plain arrays: ``e`` complex128 pair energies,
``eta2 = 2*eta_j`` and ``d`` the effective degeneracies.  Pole checking is
done by the callers.  At an exact level pole or pair coincidence the
residuals come out non-finite (with numpy's divide warning), which is what
the damped Newton in `solver` relies on to reject such trials.
"""

from __future__ import annotations

import numpy as np


def _inv_offdiag(e, power):
    """1/(e_a - e_b)**power with a zeroed diagonal (no inf arithmetic)."""
    diff = e[:, None] - e[None, :]
    diff.flat[::e.shape[0] + 1] = 1.0
    inv = 1.0 / diff
    inv.flat[::e.shape[0] + 1] = 0.0
    return inv ** power


def residuals(e, g, eta2, d):
    """Richardson residuals 1 - 4g sum_j d_j/(2eta_j - e_a) + 4g sum_b 1/(e_a - e_b)."""
    diff_lvl = eta2[None, :] - e[:, None]
    lvl = (d[None, :] / diff_lvl).sum(axis=1)
    pair = _inv_offdiag(e, 1).sum(axis=1)
    return 1.0 - 4.0 * g * lvl + 4.0 * g * pair


def jacobian(e, g, eta2, d):
    """Analytic Jacobian of the residuals with respect to the pair energies."""
    diff_lvl = eta2[None, :] - e[:, None]
    inv2 = _inv_offdiag(e, 2)
    jac = 4.0 * g * inv2
    diag = -4.0 * g * (d[None, :] / (diff_lvl * diff_lvl)).sum(axis=1) \
        - 4.0 * g * inv2.sum(axis=1)
    jac.flat[::e.shape[0] + 1] = diag
    return jac


def pn_sums(eta2, d, k, e_noncluster, n_max):
    """P_n = sum_{j!=k} d_j/(2eta_k-2eta_j)^(n+1) + sum_b 1/(2eta_k-e_b)^(n+1).

    Returns the complex values P_0..P_{n_max}; callers take the real part
    and assert the imaginary residue.
    """
    dl = eta2[k] - eta2
    dl = np.delete(dl, k)
    dj = np.delete(d, k)
    de = eta2[k] - np.asarray(e_noncluster, dtype=np.complex128)
    out = np.empty(n_max + 1, dtype=np.complex128)
    lvl_term = dj / dl
    nc_term = 1.0 / de
    for n in range(n_max + 1):
        out[n] = lvl_term.sum() + nc_term.sum()
        lvl_term = lvl_term / dl
        nc_term = nc_term / de
    return out


def backend_name():
    """Name of the kernel implementation, "numpy" (the only one).  Read only
    by `perfbench/worker.py`; ROADMAP direction 1 deletes both."""
    return "numpy"

"""Hot numeric kernels: residuals, Jacobians and P_n sums, vectorized in numpy.

All kernels work on plain arrays: ``e`` complex128 pair energies,
``eta2 = 2*eta_j`` and ``d`` the effective degeneracies.  `residuals`
returns, with the residual vector, the level differences
``eta2 - e[..., None]`` and the zero-diagonal pair inverses 1/(e_a - e_b)
it computed; `jacobian` builds the Jacobian at the same ``e`` from those
two arrays, so the damped Newton in `solver` reuses its accepted trial's
residual pass.  Callers outside Newton take `jacobian_at`.

`residuals` also takes a stack of energy vectors, ``e`` of shape
(..., M): each row runs the same elementwise operations and the same
contiguous last-axis reductions as a 1-D call, so it gives the same bits
(but for which NaN an add of two NaNs keeps, which numpy's loops choose by
array length), and Newton tests a whole damping ladder in one pass.

Pole checking is done by the callers.  At an exact level pole or pair
coincidence the residuals come out non-finite (with numpy's divide
warning), which is what the damped Newton relies on to reject such trials;
it scans its start for exact poles only when the start's residual is not
finite.

Reductions call ``np.add.reduce`` directly: ``ndarray.sum`` reaches the
same ufunc through a Python wrapper, so the sums are the same to the bit.
"""

from __future__ import annotations

import numpy as np


def _inv_offdiag(e):
    """1/(e_a - e_b) with a zeroed diagonal (no inf arithmetic), for e of
    shape (..., M); the flat view keeps the leading axes, so M = 0 works."""
    n = e.shape[-1]
    diff = e[..., :, None] - e[..., None, :]
    flat = e.shape[:-1] + (n * n,)
    diff.reshape(flat)[..., ::n + 1] = 1.0
    inv = 1.0 / diff
    inv.reshape(flat)[..., ::n + 1] = 0.0
    return inv


def residuals(e, g, eta2, d):
    """Richardson residuals 1 - 4g sum_j d_j/(2eta_j - e_a) + 4g sum_b 1/(e_a - e_b).

    Returns (residuals, diff_lvl, inv): diff_lvl = eta2 - e[..., None] and
    inv the zero-diagonal 1/(e_a - e_b), the inputs of `jacobian` at e.
    Leading axes of e are batch axes: row i of each output is the 1-D
    call at e[i].
    """
    diff_lvl = eta2 - e[..., None]
    inv = _inv_offdiag(e)
    lvl = np.add.reduce(d / diff_lvl, axis=-1)
    pair = np.add.reduce(inv, axis=-1)
    return 1.0 - 4.0 * g * lvl + 4.0 * g * pair, diff_lvl, inv


def jacobian(g, d, diff_lvl, inv):
    """Analytic Jacobian of the residuals with respect to the pair energies,
    from the diff_lvl and inv that `residuals` returned at the same e."""
    inv2 = inv ** 2
    jac = 4.0 * g * inv2
    diag = -4.0 * g * np.add.reduce(d / (diff_lvl * diff_lvl), axis=1) \
        - 4.0 * g * np.add.reduce(inv2, axis=1)
    jac.ravel()[::inv.shape[0] + 1] = diag
    return jac


def jacobian_at(e, g, eta2, d):
    """`jacobian` at e for a caller that has no residual pass there."""
    return jacobian(g, d, eta2 - e[:, None], _inv_offdiag(e))


def pn_sums(eta2, d, k, e_noncluster, n_max):
    """P_n = sum_{j!=k} d_j/(2eta_k-2eta_j)^(n+1) + sum_b 1/(2eta_k-e_b)^(n+1).

    Returns the complex values P_0..P_{n_max}; callers take the real part
    and assert the imaginary residue.  Row n of each term table is row
    n - 1 divided once more by the difference, as one
    ``np.divide.accumulate`` down the rows.  Leading axes of e_noncluster,
    of shape (..., n), are stack axes: each stacked table runs the same
    divisions, and its sum over b the same contiguous last-axis reduction,
    as the 1-D call, so row i of the output is the 1-D call at
    e_noncluster[i], bit for bit.
    """
    others = np.arange(eta2.shape[0]) != k
    lvl = np.empty((n_max + 2, eta2.shape[0] - 1))
    lvl[0] = d[others]
    lvl[1:] = eta2[k] - eta2[others]
    np.divide.accumulate(lvl, axis=0, out=lvl)
    de = eta2[k] - np.asarray(e_noncluster, dtype=np.complex128)
    nc = np.empty(de.shape[:-1] + (n_max + 2, de.shape[-1]),
                  dtype=np.complex128)
    nc[..., 0, :] = 1.0
    nc[..., 1:, :] = de[..., None, :]
    np.divide.accumulate(nc, axis=-2, out=nc)
    # level sum + non-cluster sum, added part by part as a float scalar
    # plus a complex scalar adds: the real parts in that order (numpy's
    # complex add loop may return the other operand's NaN), and 0.0 plus
    # the imaginary part (which turns -0.0 into 0.0)
    out = np.add.reduce(nc[..., 1:, :], axis=-1)
    np.add(np.add.reduce(lvl[1:], axis=1), out.real, out=out.real)
    out.imag += 0.0
    return out


def backend_name():
    """Name of the kernel implementation, "numpy" (the only one).  Read only
    by `perfbench/worker.py`; ROADMAP direction 1 deletes both."""
    return "numpy"

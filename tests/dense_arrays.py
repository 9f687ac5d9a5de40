"""Dense numpy references for the sparse library: coefficient matrices and
the truncated block parity-check matrix.

The library computes on exponent supports only. These arrays give the
tests an independent way to read the same polynomials: the witness check
multiplies a window by ``block_toeplitz``, and the convolution
cross-checks compare ``coefficient_matrix`` products with the symplectic
sum.
"""

from __future__ import annotations

import numpy as np

from qccdts import PolyMatrix


def coefficient_matrix(a: PolyMatrix, s: int) -> np.ndarray:
    """The 1 x n binary matrix of D^s coefficients of the row's entries."""
    return np.array([[s in p.support for p in a.row]], dtype=np.uint8)


def block_toeplitz(h: PolyMatrix, j: int) -> np.ndarray:
    """Truncated lower-banded block parity-check matrix on window [0..j].

    Block (t, u) equals the 1 x n coefficient matrix H_{t-u} when
    0 <= t-u <= mu and is zero otherwise; shape is (j+1, (j+1) n).
    """
    if j < 0:
        raise ValueError("window length must be non-negative")
    n = h.ncols
    out = np.zeros((j + 1, (j + 1) * n), dtype=np.uint8)
    if h.is_zero():
        return out
    mu = max(e for p in h.row for e in p.support)
    blocks = {ell: coefficient_matrix(h, ell)[0] for ell in range(mu + 1)}
    for t in range(j + 1):
        for ell in range(min(mu, t) + 1):
            u = t - ell
            out[t, u * n : (u + 1) * n] = blocks[ell]
    return out

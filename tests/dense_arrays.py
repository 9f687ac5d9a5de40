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
    """The binary matrix of D^s coefficients of every entry."""
    out = np.zeros((a.nrows, a.ncols), dtype=np.uint8)
    for i in range(a.nrows):
        for j in range(a.ncols):
            out[i, j] = s in a.entry(i, j).support
    return out


def block_toeplitz(h: PolyMatrix, j: int) -> np.ndarray:
    """Truncated lower-banded block parity-check matrix on window [0..j].

    Block (t, u) equals the coefficient matrix H_{t-u} when 0 <= t-u <= mu
    and is zero otherwise; shape is ((j+1) r, (j+1) n).
    """
    if j < 0:
        raise ValueError("window length must be non-negative")
    r, n = h.nrows, h.ncols
    out = np.zeros(((j + 1) * r, (j + 1) * n), dtype=np.uint8)
    if h.is_zero():
        return out
    mu = int(h.max_degree)
    blocks = {ell: coefficient_matrix(h, ell) for ell in range(mu + 1)}
    for t in range(j + 1):
        for ell in range(min(mu, t) + 1):
            u = t - ell
            out[t * r : (t + 1) * r, u * n : (u + 1) * n] = blocks[ell]
    return out

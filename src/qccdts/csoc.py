"""Convolutional parity-check construction from DTS supports.

A family of n-1 support sets becomes the systematic single parity row
X(D) = [x_1(D), ..., x_{n-1}(D), 1], where x_i carries the i-th set as
its exponent support and the constant last entry is the systematic
(identity) column. The row is self-orthogonal (CSOC) exactly when its
parity supports form a DTS, so :func:`is_csoc` reports the collisions of
``dts.repeated_differences``, the one check of that condition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dts import DifferenceCollision, DtsClass, DtsFamily, repeated_differences
from .gf2poly import ONE, PolyMatrix, coefficient_matrix

if TYPE_CHECKING:
    import numpy as np


class NonStrongFamilyWarning(UserWarning):
    """Construction from a family below STRONG: well-defined, no guarantees."""


@dataclass(frozen=True, slots=True)
class CsocReport:
    """Outcome of the self-orthogonality test on a systematic parity row."""

    ok: bool
    collisions: tuple[DifferenceCollision, ...]


def build_systematic_x(family: DtsFamily) -> PolyMatrix:
    """Systematic 1 x n parity row [x_1, ..., x_{n-1}, 1] from a 0-based family.

    Families below STRONG are allowed but warned about.
    """
    if family.classification < DtsClass.STRONG:
        warnings.warn(
            f"family classifies as {family.classification}, not STRONG; "
            "self-orthogonality and distance guarantees lapse",
            NonStrongFamilyWarning,
            stacklevel=2,
        )
    entries = tuple(s.to_poly() for s in family.sets) + (ONE,)
    return PolyMatrix.row(entries)


def require_systematic(x: PolyMatrix) -> None:
    if not (x.nrows == 1 and x.ncols >= 2 and x.entry(0, x.ncols - 1) == ONE):
        raise ValueError(
            "expected a systematic 1 x n row with constant 1 in the last entry"
        )


def parity_supports(x: PolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Exponent supports of the n-1 parity entries of a systematic row."""
    require_systematic(x)
    return tuple(x.entry(0, j).support for j in range(x.ncols - 1))


def memory(h: PolyMatrix) -> int:
    """Encoder memory: ceil((max exponent + 1) / r) - 1 for r parity rows.

    For the systematic single-parity-row case this is just the maximum
    exponent of the matrix.
    """
    if h.is_zero():
        raise ValueError("memory of the zero matrix is undefined")
    one_based_scope = int(h.max_degree) + 1
    return math.ceil(one_based_scope / h.nrows) - 1


def is_csoc(x: PolyMatrix) -> CsocReport:
    """Self-orthogonality test on a systematic row.

    True iff the parity supports form a DTS: no positive difference
    repeats within an entry or across two entries. The report lists the
    collisions of :func:`dts.repeated_differences`, in its order.
    """
    collisions = repeated_differences(parity_supports(x))
    return CsocReport(ok=not collisions, collisions=collisions)


def block_toeplitz(h: PolyMatrix, j: int) -> np.ndarray:
    """Truncated lower-banded block parity-check matrix on window [0..j].

    Block (t, u) equals the coefficient matrix H_{t-u} when 0 <= t-u <= mu
    and is zero otherwise; shape is ((j+1) r, (j+1) n).
    """
    import numpy as np

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

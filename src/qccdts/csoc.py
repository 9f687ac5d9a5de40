"""Convolutional parity-check construction from DTS supports.

A family of n-1 support sets becomes the systematic single parity row
X(D) = [x_1(D), ..., x_{n-1}(D), 1], where x_i carries the i-th set as
its exponent support and the constant last entry is the systematic
(identity) column. Any family builds; only its classification says if
it is strong. The row is self-orthogonal (CSOC) exactly when its parity
supports form a DTS, so :func:`is_csoc` reports the collisions of
``dts.repeated_differences``, the one check of that condition.

``parity_supports``, ``memory`` and ``is_csoc`` each compute their fact
once per row and keep it on the row, so the repeated reads of one
command on one row are lookups.
"""

from __future__ import annotations

from .dts import DifferenceCollision, DtsFamily, repeated_differences
from .gf2poly import ONE, Gf2Poly, PolyMatrix, _Record, _setattr


class CsocReport(_Record):
    """Outcome of the self-orthogonality test on a systematic parity row."""

    __slots__ = ("ok", "collisions")

    def __init__(self, ok: bool, collisions: tuple[DifferenceCollision, ...]) -> None:
        _setattr(self, "ok", ok)
        _setattr(self, "collisions", collisions)


def build_systematic_x(family: DtsFamily) -> PolyMatrix:
    """Systematic 1 x n parity row [x_1, ..., x_{n-1}, 1] from a 0-based family.

    Builds any family, strong or not, and says nothing about strength.
    """
    return PolyMatrix(tuple(Gf2Poly(s) for s in family.sets) + (ONE,))


def parity_supports(x: PolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Exponent supports of the n-1 parity entries of a systematic row."""
    supports = x._supports
    if supports is None:
        row = x.row
        if not (len(row) >= 2 and row[-1].support == (0,)):
            raise ValueError(
                "expected a systematic 1 x n row with constant 1 in the last entry"
            )
        supports = tuple([p.support for p in row[:-1]])
        _setattr(x, "_supports", supports)
    return supports


def memory(h: PolyMatrix) -> int:
    """Encoder memory of a single parity row: its largest exponent."""
    top = h._memory
    if top is None:
        top = max((p.support[-1] for p in h.row if p.support), default=None)
        if top is None:
            raise ValueError("memory of the zero matrix is undefined")
        _setattr(h, "_memory", top)
    return top


def is_csoc(x: PolyMatrix) -> CsocReport:
    """Self-orthogonality test on a systematic row.

    True iff the parity supports form a DTS: no positive difference
    repeats within an entry or across two entries. The report lists the
    collisions of :func:`dts.repeated_differences`, in its order.
    """
    report = x._csoc
    if report is None:
        collisions = repeated_differences(parity_supports(x))
        report = CsocReport(ok=not collisions, collisions=collisions)
        _setattr(x, "_csoc", report)
    return report

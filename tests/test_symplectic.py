from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from qccdts import (
    Gf2Poly,
    PolyMatrix,
    build_systematic_x,
    build_z,
    check_reflection_symmetry,
    is_commuting,
    is_csoc,
    memory,
    parity_supports,
    search_strong_dts,
    sum_index_matrix,
    symplectic_sum,
)
from qccdts.tables import TABLE_ROWS

from dense_arrays import coefficient_matrix


def _sum_index_oracle(x: PolyMatrix, s: int) -> np.ndarray:
    """Direct pair enumeration, independent of the library implementation."""
    r = x.nrows
    out = np.zeros((r, r), dtype=np.uint8)
    for a in range(r):
        for b in range(r):
            count = 0
            for k in range(x.ncols):
                la = x.entry(a, k).support
                lb = x.entry(b, k).support
                count += sum(1 for t in la for u in lb if t + u == s)
            out[a, b] = count % 2
    return out


def _dense_reflection_witness(x: PolyMatrix, window: int):
    """The first (s, a, b), 1-based rows, with C_s[a, b] != C_{2M-s}[b, a],
    found as the dense check found it; None when the identity holds."""
    top = 2 * window
    matrices = [_sum_index_oracle(x, s) for s in range(top + 1)]
    for s in range(top + 1):
        mismatches = np.argwhere(matrices[s] != matrices[top - s].T)
        if len(mismatches):
            a, b = mismatches[0]
            return (s, int(a) + 1, int(b) + 1)
    return None


def _row(*supports) -> PolyMatrix:
    return PolyMatrix.from_supports([list(supports)])


class TestSymplecticSum:
    def test_swapped_running_pair_commutes(self, example_x, example_z_swapped):
        assert symplectic_sum(example_x, example_z_swapped).is_zero()

    def test_equal_operands_always_cancel(self):
        x = _row((0,), (0,))
        assert symplectic_sum(x, x).is_zero()

    def test_disjoint_supports(self):
        x = _row((0,), ())
        z = _row((), (0,))
        assert symplectic_sum(x, z).is_zero()

    def test_one_sided_product_is_constant_one(
        self, example_x, example_z_swapped
    ):
        from qccdts import mat_mul_transpose

        one_sided = mat_mul_transpose(example_x, example_z_swapped)
        assert str(one_sided.entry(0, 0)) == "1"
        # the asymmetric intermediate is nonzero even though the sum vanishes
        assert not one_sided.is_zero()

    def test_identity_permutation_pair_does_not_commute(
        self, example_x, example_z_identity
    ):
        s = symplectic_sum(example_x, example_z_identity)
        assert s.entry(0, 0).support == (-2, 2)

    def test_dimension_mismatch(self, example_x):
        with pytest.raises(ValueError, match="column counts"):
            symplectic_sum(example_x, _row((0,), (1,)))

    def test_asymmetric_row_counts_unsupported(self, example_x):
        two_rows = PolyMatrix.from_supports(
            [[(0,), (1,), (0,)], [(1,), (0,), (0,)]]
        )
        with pytest.raises(ValueError, match="asymmetric"):
            symplectic_sum(example_x, two_rows)

    def test_symmetric_in_arguments(self, example_x, example_z_identity):
        assert symplectic_sum(example_x, example_z_identity) == symplectic_sum(
            example_z_identity, example_x
        )


class TestIsCommuting:
    def test_all_table_pairs_commute(self):
        for row in TABLE_ROWS:
            x = PolyMatrix.from_supports([list(row.g_x) + [(0,)]])
            z = PolyMatrix.from_supports([list(row.g_z) + [(0,)]])
            report = is_commuting(x, z)
            assert report.commuting, (row.table_id, row.row_no, report.violations)

    def test_violations_enumerated(self):
        x = _row((0, 1), (0,))
        z = _row((0,), (0,))
        report = is_commuting(x, z)
        assert not report.commuting
        assert report.violations == ((-1, 1, 1), (1, 1, 1))

    def test_violation_range_within_memory_sum(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 4)
            def rand_row():
                return _row(
                    *[
                        tuple(sorted(rng.sample(range(0, 7), rng.randint(0, 3))))
                        for _ in range(n)
                    ]
                )
            x, z = rand_row(), rand_row()
            if x.is_zero() or z.is_zero():
                continue
            bound = max(int(x.max_degree), int(z.max_degree))
            for s, _, _ in is_commuting(x, z).violations:
                assert -bound <= s <= bound


class TestSumIndexMatrix:
    @pytest.mark.parametrize("s, want", [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1)])
    def test_running_example_scalars(self, example_x, s, want):
        assert sum_index_matrix(example_x, s) == ((want,),)

    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(60):
            r, n = rng.randint(1, 3), rng.randint(1, 4)
            x = PolyMatrix.from_supports(
                [
                    [
                        tuple(sorted(rng.sample(range(0, 8), rng.randint(0, 3))))
                        for _ in range(n)
                    ]
                    for _ in range(r)
                ]
            )
            for s in range(0, 15):
                want = _sum_index_oracle(x, s).tolist()
                assert sum_index_matrix(x, s) == tuple(map(tuple, want))

    def test_identity_column_counts_like_any_other(self):
        with_id = _row((0, 1), (0,))
        without = _row((0, 1))
        # the identity column adds one (0,0) pair, flipping C_0 parity
        assert (
            sum_index_matrix(with_id, 0)[0][0]
            != sum_index_matrix(without, 0)[0][0]
        )


class TestReflectionSymmetry:
    def test_running_example_holds(self, example_x):
        report = check_reflection_symmetry(example_x, 2)
        assert report.ok
        assert report.counterexample is None

    def test_non_csoc_negative_control(self):
        x = _row((0, 1, 2), (0,))
        assert not is_csoc(x).ok
        report = check_reflection_symmetry(x, 2)
        assert not report.ok
        s, a, b = report.counterexample
        # cross-check the witness against direct enumeration
        lhs = _sum_index_oracle(x, s)[a - 1, b - 1]
        rhs = _sum_index_oracle(x, 4 - s)[b - 1, a - 1]
        assert lhs != rhs

    def test_not_implied_by_self_orthogonality(self):
        """A CSOC row whose delay-occupancy parities are not palindromic
        fails the symmetry identity: the check is strictly stronger than
        self-orthogonality."""
        x = _row((0, 1), (0, 3), (0,))
        assert is_csoc(x).ok
        report = check_reflection_symmetry(x, 3)
        assert not report.ok
        assert report.counterexample == (2, 1, 1)

    def test_equivalent_to_palindromic_occupancy(self):
        """For one-row matrices the identity reduces to a palindrome test
        on per-delay column-occupancy parities."""
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 4)
            window = rng.randint(0, 6)
            x = _row(
                *[
                    tuple(
                        sorted(
                            rng.sample(range(0, window + 1), rng.randint(0, min(3, window + 1)))
                        )
                    )
                    for _ in range(n)
                ]
            )
            occupancy = [
                sum(d in x.entry(0, k).support for k in range(n)) % 2
                for d in range(window + 1)
            ]
            palindromic = occupancy == occupancy[::-1]
            assert check_reflection_symmetry(x, window).ok == palindromic

    def test_multi_row_counterexample_matches_dense_reference(self):
        """Verdict and first witness agree with the dense algorithm: the
        first s whose argwhere(C_s != C_{2M-s}^T) is non-empty, and its
        first (a, b) in row-major order."""
        rng = random.Random(23)
        off_diagonal = 0
        for _ in range(400):
            r, n = rng.randint(1, 3), rng.randint(1, 4)
            x = PolyMatrix.from_supports(
                [
                    [
                        tuple(sorted(rng.sample(range(0, 7), rng.randint(0, 3))))
                        for _ in range(n)
                    ]
                    for _ in range(r)
                ]
            )
            if x.is_zero():
                continue
            window = int(x.max_degree) + rng.randint(0, 2)
            report = check_reflection_symmetry(x, window)
            want = _dense_reflection_witness(x, window)
            assert (report.ok, report.counterexample) == (want is None, want)
            off_diagonal += want is not None and want[1] != want[2]
        # witnesses with a != b are the ones that pin the (a, b) order
        assert off_diagonal >= 20

    def test_window_violation_rejected(self, example_x):
        with pytest.raises(ValueError, match="degree window"):
            check_reflection_symmetry(example_x, 1)


class TestCoefficientCrossCheck:
    def test_convolution_formula(self):
        """D^s coefficient of the symplectic sum equals the coefficient
        convolution sum over aligned coefficient matrices."""
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 4)
            def rand_row():
                return _row(
                    *[
                        tuple(sorted(rng.sample(range(0, 6), rng.randint(0, 3))))
                        for _ in range(n)
                    ]
                )
            x, z = rand_row(), rand_row()
            s_mat = symplectic_sum(x, z)
            deg = 6
            for s in range(-deg, deg + 1):
                direct = coefficient_matrix(s_mat, s)
                conv = np.zeros((1, 1), dtype=np.uint8)
                for ell in range(0, deg + 1):
                    x_l = coefficient_matrix(x, ell)
                    z_ls = coefficient_matrix(z, ell + s)
                    z_l = coefficient_matrix(z, ell)
                    x_ls = coefficient_matrix(x, ell + s)
                    conv ^= (x_l @ z_ls.T % 2).astype(np.uint8)
                    conv ^= (z_l @ x_ls.T % 2).astype(np.uint8)
                assert np.array_equal(direct, conv)


def _entry_pair_matrix(x: PolyMatrix, s: int) -> tuple[tuple[int, ...], ...]:
    """Per-entry sum-index table over the parity entries of a systematic row."""
    column = PolyMatrix(tuple((Gf2Poly(sup),) for sup in parity_supports(x)))
    return sum_index_matrix(column, s)


class TestTwoAddendDecomposition:
    def test_coefficients_decompose_into_sum_index_terms(self):
        """Each D^tau coefficient of the symplectic sum splits into the
        per-entry two-addend form, for every permutation (commuting or not)."""
        for fam in search_strong_dts(2, 3, 7):
            x = build_systematic_x(fam)
            m = memory(x)
            tables = {s: _entry_pair_matrix(x, s) for s in range(0, 2 * m + 1)}

            def c_hat(s, a, b):
                if 0 <= s <= 2 * m:
                    return tables[s][a - 1][b - 1]
                return 0

            for pi in permutations(range(1, fam.size + 1)):
                z = build_z(x, pi)
                s_poly = symplectic_sum(x, z).entry(0, 0)
                for tau in range(-m, m + 1):
                    want = 0
                    for k in range(1, fam.size + 1):
                        want ^= c_hat(m + tau, k, pi[k - 1])
                        want ^= c_hat(m - tau, pi[k - 1], k)
                    assert (tau in s_poly.support) == want


class TestCommutationCharacterization:
    def test_palindromic_product_sum_is_exact_predicate(self):
        """The pair commutes exactly when Q(D) = sum_k x_k x_{pi(k)} is
        palindromic on [0, 2M]."""
        for r, w in ((1, 2), (2, 2), (2, 3), (3, 2)):
            for fam in search_strong_dts(r, w, 7):
                x = build_systematic_x(fam)
                m = memory(x)
                entries = [x.entry(0, k) for k in range(fam.size)]
                for pi in permutations(range(1, fam.size + 1)):
                    z = build_z(x, pi)
                    q = Gf2Poly()
                    for k in range(fam.size):
                        q = q + entries[k] * entries[pi[k] - 1]
                    palindromic = q == q.reverse(2 * m) if q else True
                    assert is_commuting(x, z).commuting == palindromic

    def test_admissible_involutions_always_commute(self):
        """Involutions whose fixed entries are reflection-invariant give
        commuting pairs, and the reflected side stays self-orthogonal."""
        checked = 0
        for r, w in ((2, 2), (2, 3), (3, 2)):
            for fam in search_strong_dts(r, w, 8):
                x = build_systematic_x(fam)
                m = memory(x)
                for pi in permutations(range(1, fam.size + 1)):
                    if any(pi[pi[k - 1] - 1] != k for k in range(1, fam.size + 1)):
                        continue  # not an involution
                    fixed = [k for k in range(1, fam.size + 1) if pi[k - 1] == k]
                    if any(
                        x.entry(0, k - 1).reverse(m) != x.entry(0, k - 1)
                        for k in fixed
                    ):
                        continue  # fixed entry not palindromic
                    z = build_z(x, pi)
                    assert is_csoc(z).ok
                    assert is_commuting(x, z).commuting
                    checked += 1
        assert checked > 50

    def test_reflection_preserves_self_orthogonality_for_every_permutation(self):
        for fam in search_strong_dts(2, 3, 8):
            x = build_systematic_x(fam)
            for pi in permutations(range(1, 3)):
                assert is_csoc(build_z(x, pi)).ok

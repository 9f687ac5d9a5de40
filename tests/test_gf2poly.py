from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdts import (
    NEG_INF,
    ONE,
    ZERO,
    Gf2Poly,
    PolyMatrix,
    mat_mul_transpose,
)

from dense_arrays import coefficient_matrix

supports = st.lists(
    st.integers(min_value=-32, max_value=64), unique=True, max_size=8
).map(lambda xs: Gf2Poly(tuple(sorted(xs))))

window_supports = st.lists(
    st.integers(min_value=0, max_value=40), unique=True, max_size=8
).map(lambda xs: Gf2Poly(tuple(sorted(xs))))


def P(*exps: int) -> Gf2Poly:
    return Gf2Poly(tuple(sorted(exps)))


class TestPolyBasics:
    def test_validation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Gf2Poly((2, 1))

    def test_validation_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Gf2Poly((1, 1))

    def test_from_exponents_folds_parity(self):
        assert Gf2Poly.from_exponents([3, 1, 3, 3]) == P(1, 3)

    def test_zero_degree_is_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree != -1
        assert P(0).degree == 0

    def test_weight(self):
        assert ZERO.weight == 0
        assert P(0, 1, 5).weight == 3


class TestAdd:
    def test_overlapping(self):
        assert P(0, 1) + P(1, 2) == P(0, 2)

    def test_self_cancels(self):
        p = P(0, 3, 7)
        assert p + p == ZERO

    def test_identity(self):
        assert P(0) + ZERO == P(0)


class TestMul:
    def test_frobenius_square(self):
        assert P(0, 1) * P(0, 1) == P(0, 2)

    def test_zero_annihilates(self):
        assert P(0, 1) * ZERO == ZERO

    def test_hand_expansion(self):
        # (1+D)(1+D^2) = 1+D+D^2+D^3
        assert P(0, 1) * P(0, 2) == P(0, 1, 2, 3)


class TestReverse:
    def test_palindromic_fixed(self):
        assert P(0, 2).reverse(2) == P(0, 2)

    def test_basic(self):
        assert P(0, 1).reverse(2) == P(1, 2)

    def test_wide_window(self):
        assert P(0, 4, 9).reverse(9) == P(0, 5, 9)

    def test_window_violation(self):
        with pytest.raises(ValueError, match="reversal window"):
            P(0, 3).reverse(2)
        with pytest.raises(ValueError, match="reversal window"):
            P(-1, 0).reverse(2)


class TestRendering:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (P(1), "D"),
            (P(0, 1, 3), "1+D+D^3"),
            (P(-2, 0), "D^-2+1"),
        ],
    )
    def test_str(self, poly, text):
        assert str(poly) == text


def _mmt_oracle(a: PolyMatrix, b: PolyMatrix) -> dict:
    """Independent coefficient-by-coefficient A(D) B(D^-1)^T for cross-checking."""
    out = {}
    for i in range(a.nrows):
        for j in range(b.nrows):
            counts = {}
            for k in range(a.ncols):
                for t in a.entry(i, k).support:
                    for u in b.entry(j, k).support:
                        s = t - u
                        counts[s] = counts.get(s, 0) + 1
            out[(i, j)] = frozenset(s for s, c in counts.items() if c % 2)
    return out


class TestMatMulTranspose:
    def test_symplectic_one_sided_regression(
        self, example_x, example_z_swapped
    ):
        # X(D) Z(D^-1)^T for the swapped pair collapses to the constant 1.
        got = mat_mul_transpose(example_x, example_z_swapped)
        assert got.nrows == got.ncols == 1
        assert got.entry(0, 0) == ONE

    def test_single_entry_identity(self):
        m = PolyMatrix.from_supports([[(0,)]])
        got = mat_mul_transpose(m, m)
        assert got.entry(0, 0) == ONE

    def test_zero_right_factor(self, example_x):
        zero = PolyMatrix.from_supports([[(), (), ()]])
        got = mat_mul_transpose(example_x, zero)
        assert got.is_zero()

    def test_dimension_mismatch(self, example_x):
        short = PolyMatrix.from_supports([[(0,), (1,)]])
        with pytest.raises(ValueError, match="column counts differ"):
            mat_mul_transpose(example_x, short)

    def test_against_counting_oracle(self):
        """Laurent exponents, zero entries and several rows on each side:
        every entry equals the parity count of t - u over the tap pairs."""
        rng = np.random.default_rng(20240819)
        negative = zero_entries = multi_row = 0
        for _ in range(200):
            ra, rb, n = rng.integers(1, 4, size=3)
            def rand_matrix(r):
                return PolyMatrix.from_supports(
                    [
                        [
                            sorted(
                                rng.choice(
                                    np.arange(-8, 9),
                                    size=rng.integers(0, 4),
                                    replace=False,
                                ).tolist()
                            )
                            for _ in range(n)
                        ]
                        for _ in range(r)
                    ]
                )
            a, b = rand_matrix(ra), rand_matrix(rb)
            got = mat_mul_transpose(a, b)
            assert (got.nrows, got.ncols) == (a.nrows, b.nrows)
            want = _mmt_oracle(a, b)
            for (i, j), sup in want.items():
                assert set(got.entry(i, j).support) == sup
            negative += min(a.min_exponent, b.min_exponent) < 0
            zero_entries += any(
                p.is_zero() for m in (a, b) for row in m.entries for p in row
            )
            multi_row += a.nrows > 1 and b.nrows > 1
        assert min(negative, zero_entries, multi_row) >= 50


class TestCoefficientMatrix:
    def test_constant_terms(self, example_x):
        assert coefficient_matrix(example_x, 0).tolist() == [[1, 1, 1]]

    def test_degree_two(self, example_x):
        assert coefficient_matrix(example_x, 2).tolist() == [[0, 1, 0]]

    def test_beyond_degree(self, example_x):
        assert coefficient_matrix(example_x, 5).tolist() == [[0, 0, 0]]

    def test_reconstruction(self, example_x):
        lo, hi = 0, int(example_x.max_degree)
        rebuilt = [
            [set() for _ in range(example_x.ncols)]
            for _ in range(example_x.nrows)
        ]
        for s in range(lo, hi + 1):
            mat = coefficient_matrix(example_x, s)
            for i in range(example_x.nrows):
                for j in range(example_x.ncols):
                    if mat[i, j]:
                        rebuilt[i][j].add(s)
        for i in range(example_x.nrows):
            for j in range(example_x.ncols):
                assert tuple(sorted(rebuilt[i][j])) == example_x.entry(i, j).support


class TestPolyMatrixValidation:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            PolyMatrix(((ONE,), (ONE, ONE)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix(())

    def test_shape_mismatch_add(self, example_x):
        other = PolyMatrix.from_supports([[(0,), (1,)]])
        with pytest.raises(ValueError, match="shape mismatch"):
            example_x + other

    def test_row_rendering(self, example_x):
        assert str(example_x) == "(1+D, 1+D^2, 1)"


@given(supports, supports, supports)
def test_add_associative_commutative(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@given(supports)
def test_add_self_inverse(p):
    assert p + p == ZERO


@settings(max_examples=200)
@given(supports, supports, supports)
def test_mul_distributes_over_add(p, q, r):
    lhs = p * (q + r)
    rhs = p * q + p * r
    assert lhs == rhs


@given(window_supports, st.integers(min_value=0, max_value=20))
def test_reverse_is_involution(p, slack):
    window = (int(p.degree) if p else 0) + slack
    assert p.reverse(window).reverse(window) == p


@given(window_supports)
def test_reverse_matches_shifted_inverse_substitution(p):
    window = int(p.degree) if p else 0
    inverse = sorted(-e for e in p.support)  # substitute D -> D^-1
    shifted = Gf2Poly(tuple(e + window for e in inverse))
    assert p.reverse(window) == shifted

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdts import (
    ONE,
    ZERO,
    D,
    Gf2Poly,
    PolyMatrix,
    symplectic_sum,
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

    @pytest.mark.parametrize(
        "support, bad",
        [((False, True), "False"), ((0, True), "True"), ([True], "True")],
    )
    def test_validation_rejects_bool(self, support, bad):
        # bool is an int subclass, but not an exponent.
        with pytest.raises(ValueError, match=f"^exponent {bad} is not an integer$"):
            Gf2Poly(support)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Gf2Poly.from_exponents([0, "a"]), "'a'"),
            (lambda: Gf2Poly.from_exponents([0, None]), "None"),
            (lambda: Gf2Poly.from_exponents([0, [1]]), r"\[1\]"),
            (lambda: Gf2Poly.from_exponents(e for e in (0, None)), "None"),
            (lambda: Gf2Poly.from_exponents([0, True]), "True"),
            (lambda: PolyMatrix.from_supports([[0, "a"]]), "'a'"),
        ],
        ids=["str", "None", "list", "None from a generator", "bool", "from_supports"],
    )
    def test_from_exponents_names_a_non_integer(self, build, bad):
        """Hashing or sorting a non-integer fails before the constructor
        checks it; the caller still gets the constructor's message."""
        with pytest.raises(ValueError, match=f"^exponent {bad} is not an integer$"):
            build()

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Gf2Poly.from_exponents([1, True]), "True"),
            (lambda: Gf2Poly.from_exponents([0, "a", "a"]), "'a'"),
            (lambda: Gf2Poly.from_exponents([2, 2.0, 3]), r"2\.0"),
            (lambda: PolyMatrix.from_supports([[1, True], [0]]), "True"),
        ],
        ids=["bool equal to an integer", "str pair", "float equal to an integer",
             "from_supports bool"],
    )
    def test_from_exponents_checks_before_folding(self, build, bad):
        """Folding compares by equality, so a non-integer equal to an
        integer, or to another non-integer, would cancel unseen; it is
        rejected before the fold."""
        with pytest.raises(ValueError, match=f"^exponent {bad} is not an integer$"):
            build()

    def test_support_is_stored_as_a_tuple(self):
        """A list or a generator of exponents gives the same hashable value
        as the tuple."""
        want = P(0, 1)
        for support in ([0, 1], (e for e in (0, 1)), range(2)):
            p = Gf2Poly(support)
            assert type(p.support) is tuple
            assert p == want
            assert hash(p) == hash(want)

    def test_zero_degree_raises(self):
        with pytest.raises(
            ValueError, match="^degree of the zero polynomial is undefined$"
        ):
            ZERO.degree
        assert P(0).degree == 0
        assert P(-3, 2).degree == 2

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


def _mmt_oracle(a: PolyMatrix, b: PolyMatrix) -> frozenset:
    """Independent coefficient-by-coefficient A(D) B(D^-1)^T for
    cross-checking: the exponents of its one entry."""
    counts = {}
    for p, q in zip(a.row, b.row, strict=True):
        for t in p.support:
            for u in q.support:
                counts[t - u] = counts.get(t - u, 0) + 1
    return frozenset(s for s, c in counts.items() if c % 2)


class TestMatMulTranspose:
    """The two products A(D) B(D^-1)^T that ``symplectic_sum`` adds in one
    pass, checked through the sum against the counting oracle."""

    def test_symplectic_one_sided_regression(
        self, example_x, example_z_swapped
    ):
        # X(D) Z(D^-1)^T for the swapped pair collapses to the constant 1,
        # and so does Z(D) X(D^-1)^T: the sum is zero.
        assert _mmt_oracle(example_x, example_z_swapped) == {0}
        assert _mmt_oracle(example_z_swapped, example_x) == {0}
        got = symplectic_sum(example_x, example_z_swapped)
        assert got.ncols == 1
        assert got.is_zero()

    def test_single_entry_identity(self):
        # 1 * D^-1 + D * 1: each half keeps its own exponent.
        one = PolyMatrix.from_supports([(0,)])
        d = PolyMatrix.from_supports([(1,)])
        assert symplectic_sum(one, d).row[0] == Gf2Poly((-1, 1))
        assert symplectic_sum(one, one).row[0] == ZERO

    def test_zero_right_factor(self, example_x):
        zero = PolyMatrix.from_supports([(), (), ()])
        assert symplectic_sum(example_x, zero).is_zero()
        assert symplectic_sum(zero, example_x).is_zero()

    def test_dimension_mismatch(self, example_x):
        short = PolyMatrix.from_supports([(0,), (1,)])
        with pytest.raises(ValueError, match="^column counts differ: 3 vs 2$"):
            symplectic_sum(example_x, short)

    def test_against_counting_oracle(self):
        """Laurent exponents and zero entries: the one entry is the parity
        count of t - u over the tap pairs of (x, z), plus that of (z, x)."""
        rng = np.random.default_rng(20240819)
        negative = zero_entries = 0
        for _ in range(200):
            n = rng.integers(1, 4)
            def rand_row():
                return PolyMatrix.from_supports(
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
                )
            x, z = rand_row(), rand_row()
            got = symplectic_sum(x, z)
            assert got.ncols == 1
            assert set(got.row[0].support) == _mmt_oracle(x, z) ^ _mmt_oracle(z, x)
            negative += any(p.support[0] < 0 for m in (x, z) for p in m.row if p)
            zero_entries += any(p.is_zero() for m in (x, z) for p in m.row)
        assert min(negative, zero_entries) >= 50


class TestCoefficientMatrix:
    def test_constant_terms(self, example_x):
        assert coefficient_matrix(example_x, 0).tolist() == [[1, 1, 1]]

    def test_degree_two(self, example_x):
        assert coefficient_matrix(example_x, 2).tolist() == [[0, 1, 0]]

    def test_beyond_degree(self, example_x):
        assert coefficient_matrix(example_x, 5).tolist() == [[0, 0, 0]]

    def test_reconstruction(self, example_x):
        hi = max(p.degree for p in example_x.row)
        rebuilt = [[] for _ in example_x.row]
        for s in range(hi + 1):
            (coefficients,) = coefficient_matrix(example_x, s)
            for j, bit in enumerate(coefficients):
                if bit:
                    rebuilt[j].append(s)
        assert [tuple(c) for c in rebuilt] == [p.support for p in example_x.row]


_NO_COLUMN = "^matrix must have at least one column$"
_ROW_IN_A_ROW = r"^entry \(Gf2Poly\('1'\),\) is not a Gf2Poly$"


class TestPolyMatrixValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PolyMatrix(()), _NO_COLUMN),
            (lambda: PolyMatrix(((ONE,), (ONE,))), _ROW_IN_A_ROW),
            (lambda: PolyMatrix(((ONE,), (ONE, ONE))), _ROW_IN_A_ROW),
            (lambda: PolyMatrix.from_supports([]), _NO_COLUMN),
            (
                lambda: PolyMatrix.from_supports([[(0, 1), (0,)], [(0, 2), (0,)]]),
                r"^exponent \(0,\) is not an integer$",
            ),
        ],
        ids=[
            "empty", "two-rows", "ragged", "from-supports-empty",
            "from-supports-two-rows",
        ],
    )
    def test_row_count_rejected(self, build, message):
        """The value is one row: no columns, or a grid of rows in the old
        layout, is rejected, because a row is no Gf2Poly and a row of
        supports is no exponent."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_empty_row_rejected(self):
        for empty in ((), [], iter(())):
            with pytest.raises(ValueError, match=_NO_COLUMN):
                PolyMatrix(empty)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix(())

    def test_non_poly_entry_rejected(self):
        with pytest.raises(ValueError, match=r"^entry \(0, 1\) is not a Gf2Poly$"):
            PolyMatrix([ONE, (0, 1)])
        with pytest.raises(
            ValueError,
            match=r"^entry \[Gf2Poly\('1'\), Gf2Poly\('D'\)\] is not a Gf2Poly$",
        ):
            PolyMatrix([[ONE, D]])

    def test_any_iterable_gives_one_value(self):
        """A list, a tuple and a generator of the same entries build equal,
        equally hashed values holding a tuple."""
        entries = (ONE, D)
        built = [
            PolyMatrix(list(entries)),
            PolyMatrix(entries),
            PolyMatrix(p for p in entries),
        ]
        for x in built:
            assert type(x.row) is tuple
            assert x.row == entries
            assert x == built[1]
            assert hash(x) == hash(built[1])
        assert len(set(built)) == 1

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
    window = (p.degree if p else 0) + slack
    assert p.reverse(window).reverse(window) == p


@given(window_supports)
def test_reverse_matches_shifted_inverse_substitution(p):
    window = p.degree if p else 0
    inverse = sorted(-e for e in p.support)  # substitute D -> D^-1
    shifted = Gf2Poly(tuple(e + window for e in inverse))
    assert p.reverse(window) == shifted

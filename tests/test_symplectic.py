from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations

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
    verify_pair,
)
from qccdts import symplectic
from qccdts.distance import _causal_supports, column_distance
from qccdts.tables import TABLE_ROWS

from dense_arrays import coefficient_matrix


def _sum_index_oracle(x: PolyMatrix, s: int) -> int:
    """Direct pair enumeration, independent of the library implementation:
    the parity of the tap pairs (t, u) with t + u = s within each column."""
    pairs = [(t, u) for p in x.row for t in p.support for u in p.support]
    return sum(1 for t, u in pairs if t + u == s) % 2


def _full_scan_reflection_symmetry(x: PolyMatrix, window: int):
    """The check as it was before the half scan: every s in [0, 2M] is
    compared, in ascending s. Returns (ok, counterexample)."""
    top = 2 * window
    parities = [_sum_index_oracle(x, s) for s in range(top + 1)]
    for s, lhs in enumerate(parities):
        if lhs != parities[top - s]:
            return False, (s, 1, 1)
    return True, None


def _random_row(rng: random.Random, cols: int, exponents) -> PolyMatrix:
    return PolyMatrix.from_supports(
        [
            tuple(sorted(rng.sample(exponents, rng.randint(0, 3))))
            for _ in range(cols)
        ]
    )


def _random_row_of_memory(rng: random.Random, cols: int, window: int) -> PolyMatrix:
    """Up to three taps per column from [0, window], plus the tap at
    ``window`` in one column, so the row's memory is ``window``."""
    columns = [
        set(rng.sample(range(window + 1), rng.randint(0, min(3, window + 1))))
        for _ in range(cols)
    ]
    columns[rng.randrange(cols)].add(window)
    return PolyMatrix.from_supports([sorted(c) for c in columns])


def _row(*supports) -> PolyMatrix:
    return PolyMatrix.from_supports(supports)


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

    def test_identity_permutation_pair_does_not_commute(
        self, example_x, example_z_identity
    ):
        s = symplectic_sum(example_x, example_z_identity)
        assert s.row[0].support == (-2, 2)

    def test_dimension_mismatch(self, example_x):
        with pytest.raises(ValueError, match="column counts"):
            symplectic_sum(example_x, _row((0,), (1,)))

    def test_symmetric_in_arguments(self, example_x, example_z_identity):
        assert symplectic_sum(example_x, example_z_identity) == symplectic_sum(
            example_z_identity, example_x
        )


class TestIsCommuting:
    def test_all_table_pairs_commute(self):
        for row in TABLE_ROWS:
            x = PolyMatrix.from_supports([*row.g_x, (0,)])
            z = PolyMatrix.from_supports([*row.g_z, (0,)])
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
            bound = max(memory(x), memory(z))
            for s, _, _ in is_commuting(x, z).violations:
                assert -bound <= s <= bound


class TestSumIndexMatrix:
    @pytest.mark.parametrize("s, want", [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1)])
    def test_running_example_scalars(self, example_x, s, want):
        assert sum_index_matrix(example_x, s) == ((want,),)

    def test_matches_oracle_on_random_matrices(self):
        """Exact for any s, negative exponents and s outside every tap sum
        included: counting only the pairs with t = u changes no value."""
        rng = random.Random(5)
        for _ in range(300):
            x = _random_row(rng, rng.randint(1, 5), range(-4, 9))
            if x.is_zero():
                continue
            exponents = [e for p in x.row for e in p.support]
            lo, hi = min(exponents), max(exponents)
            for s in range(2 * lo - 2, 2 * max(hi, 0) + 3):
                assert sum_index_matrix(x, s) == ((_sum_index_oracle(x, s),),)

    def test_one_row_at_large_and_negative_s(self):
        """A one-row X reaching 10^4, identity column included: every s
        near 0 (negative ones too), near 2M and beyond 2M, odd and even,
        gives the direct tap-pair count."""
        rng = random.Random(31)
        top = 10_000
        rows = [_row((0, 1, 3, 9998, top), (0, 2, 9999, top), (0,))]
        for _ in range(5):
            columns = [
                tuple(sorted(rng.sample(range(top), rng.randint(1, 6)) + [top]))
                for _ in range(rng.randint(1, 4))
            ]
            rows.append(_row(*columns, (0,)))
        for x in rows:
            window = memory(x)
            assert window == top
            ones = 0
            for centre in (0, 2 * window, 4 * window, 10**9):
                for s in range(centre - 7, centre + 8):
                    want = _sum_index_oracle(x, s)
                    assert sum_index_matrix(x, s) == ((want,),)
                    ones += want
            assert ones >= 1
        # the hand-built row: s/2 = 0 lies in three columns, 1, 2, 3, 9998
        # and 9999 in one, 10^4 in two
        x = rows[0]
        assert [sum_index_matrix(x, s)[0][0] for s in range(-2, 8)] == [
            0, 0, 1, 0, 1, 0, 1, 0, 1, 0
        ]
        assert [
            sum_index_matrix(x, s)[0][0] for s in range(19_994, 20_003)
        ] == [0, 0, 1, 0, 1, 0, 0, 0, 0]

    def test_identity_column_counts_like_any_other(self):
        with_id = _row((0, 1), (0,))
        without = _row((0, 1))
        # the identity column adds one (0,0) pair, flipping C_0 parity
        assert (
            sum_index_matrix(with_id, 0)[0][0]
            != sum_index_matrix(without, 0)[0][0]
        )


class TestOddDelayMemo:
    """Every fact of a row, its odd-occupancy delays among them, is kept
    in the row's own cache slots: switching rows on every call, or
    checking rows from several threads, must not leak one row's facts
    into another's answers, and a row that fails a check must fail it on
    every call."""

    @staticmethod
    def _columns_holding_half(x: PolyMatrix, s: int) -> int:
        """The number of columns whose support holds s/2, mod 2 (0 for odd s)."""
        if s % 2:
            return 0
        return sum(s // 2 in p.support for p in x.row) % 2

    @staticmethod
    def _facts(x: PolyMatrix) -> tuple:
        """Every memoized fact of x through its public or private reader,
        with the ValueError message in place of a fact that fails."""

        def read(fact):
            try:
                return fact(x)
            except ValueError as exc:
                return str(exc)

        return tuple(map(read, (
            parity_supports, memory, is_csoc, _causal_supports,
            symplectic._odd_delays,
        )))

    @staticmethod
    def _direct_facts(x: PolyMatrix) -> tuple:
        """The same facts counted from the row alone, with the readers'
        messages for the rows that fail."""
        columns = [p.support for p in x.row]
        if columns[-1] != (0,) or len(columns) < 2:
            supports = csoc = causal = (
                "expected a systematic 1 x n row with constant 1 in the last entry"
            )
        else:
            supports = tuple(columns[:-1])
            differences = [
                b - a for sup in supports for a, b in combinations(sup, 2)
            ]
            csoc = len(set(differences)) == len(differences)
            negative = [
                (i, sup[0]) for i, sup in enumerate(supports, 1) if sup and sup[0] < 0
            ]
            causal = supports if not negative else (
                f"stream {negative[0][0]} has negative exponent {negative[0][1]}; "
                "distances need exponents >= 0"
            )
        top = max((sup[-1] for sup in columns if sup), default=None)
        odd = frozenset(
            e for e in {e for sup in columns for e in sup}
            if sum(e in sup for sup in columns) % 2
        )
        return supports, top, csoc, causal, odd

    def _assert_facts(self, x: PolyMatrix) -> None:
        supports, top, report, causal, odd = self._facts(x)
        want = self._direct_facts(x)
        assert (supports, top, causal, odd) == (want[0], want[1], want[3], want[4]), x
        if isinstance(want[2], str):
            assert report == want[2], x
        else:
            # a repeated difference is exactly a collision
            assert report.ok is want[2] and bool(report.collisions) is not want[2], x

    def test_alternating_rows_match_a_direct_count(self):
        first = _row((0, 1, 5), (0, 2), (0,))
        twin = _row((0, 1, 5), (0, 2), (0,))
        assert first == twin and first is not twin
        rows = [
            first,
            _row((-3, 0, 2), (-3, 4), (0,)),  # a negative exponent
            twin,
            _row((0, 4), (), (0,)),  # a zero column
            _row((1, 2), (2, 3), (0, 3), (0,)),
            _row((0, 1, 3), (0, 2)),  # not systematic
            _row((0, 1, 3), (0, 4, 9), (0,)),  # self-orthogonal
        ]
        ones = 0
        for s in range(-10, 14):
            for x in rows:
                want = self._columns_holding_half(x, s)
                assert sum_index_matrix(x, s) == ((want,),), (x, s)
                ones += want
                self._assert_facts(x)
        # and back again, so every row follows a different one
        for s in range(-10, 14):
            for x in reversed(rows):
                assert sum_index_matrix(x, s) == (
                    (self._columns_holding_half(x, s),),
                ), (x, s)
                self._assert_facts(x)
        assert ones >= 10
        verdicts = {self._direct_facts(x)[2] for x in rows}
        assert verdicts == {
            True, False,
            "expected a systematic 1 x n row with constant 1 in the last entry",
        }

    def test_a_failed_check_raises_on_every_call(self):
        """Nothing is stored for a row that fails a check: the same row,
        asked again straight away or after another row, raises again, even
        after another of its facts was stored."""
        loose = _row((0, 1, 3), (0, 2))
        laurent = _row((-1, 2), (0, 4), (0,))
        other = _row((0, 1), (0, 2), (0,))
        systematic = "^expected a systematic 1 x n row"
        for _ in range(3):
            for read in (parity_supports, is_csoc, _causal_supports):
                for _ in range(2):
                    with pytest.raises(ValueError, match=systematic):
                        read(loose)
            assert memory(loose) == 3
            with pytest.raises(ValueError, match=systematic):
                column_distance(loose, 2)
            assert is_csoc(laurent).ok
            for _ in range(2):
                with pytest.raises(ValueError, match="^stream 1 has negative exponent -1"):
                    column_distance(laurent, 2)
            assert memory(laurent) == 4 and parity_supports(laurent) == ((-1, 2), (0, 4))
            assert column_distance(other, 2) == 3

    def test_threads_agree_with_a_serial_run(self):
        def rows(seed: int) -> list[PolyMatrix]:
            """Rows with palindromic occupancy, half of them broken by one
            flipped tap, so verdicts and witnesses differ from row to row."""
            rng = random.Random(seed)
            out = []
            for _ in range(100):
                window = rng.randint(2, 60)
                columns = [{window}]
                for _ in range(rng.randint(1, 3)):
                    taps = set(rng.sample(range(window + 1), rng.randint(1, 3)))
                    columns.append(taps | {window - t for t in taps})
                if rng.random() < 0.5:
                    columns[rng.randrange(len(columns))] ^= {rng.randint(0, window)}
                columns.append({0})
                out.append(_row(*(sorted(c) for c in columns)))
            return out

        def check(batch: list[PolyMatrix]) -> list[tuple]:
            return [
                (r.ok, r.counterexample, *self._facts(x))
                for x, r in zip(batch, map(check_reflection_symmetry, batch))
            ]

        batches = [rows(seed) for seed in range(4)]
        serial = [check(batch) for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(check, batches))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        for batch, results in zip(batches, serial):
            for x, result in zip(batch, results):
                self._assert_facts(x)
                assert result[2:] == self._facts(x)
        verdicts = [ok for batch in serial for ok, *_ in batch]
        witnesses = {w for batch in serial for _, w, *_ in batch}
        csoc = {report.ok for batch in serial for *_, report, _, _ in batch}
        assert 100 <= sum(verdicts) <= 300 and len(witnesses) >= 20
        assert csoc == {True, False}


class TestReflectionSymmetry:
    def test_running_example_holds(self, example_x):
        report = check_reflection_symmetry(example_x)
        assert report.ok
        assert report.counterexample is None

    def test_non_csoc_negative_control(self):
        x = _row((0, 1, 2), (0,))
        assert not is_csoc(x).ok
        report = check_reflection_symmetry(x)
        assert not report.ok
        s, a, b = report.counterexample
        # cross-check the witness against direct enumeration
        assert (a, b) == (1, 1)
        assert _sum_index_oracle(x, s) != _sum_index_oracle(x, 4 - s)

    def test_not_implied_by_self_orthogonality(self):
        """A CSOC row whose delay-occupancy parities are not palindromic
        fails the symmetry identity: the check is strictly stronger than
        self-orthogonality."""
        x = _row((0, 1), (0, 3), (0,))
        assert is_csoc(x).ok
        report = check_reflection_symmetry(x)
        assert not report.ok
        assert report.counterexample == (2, 1, 1)

    def test_equivalent_to_palindromic_occupancy(self):
        """For one-row matrices the identity reduces to a palindrome test
        on per-delay column-occupancy parities over [0, M]."""
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 4)
            window = rng.randint(0, 6)
            x = _random_row_of_memory(rng, n, window)
            assert memory(x) == window
            occupancy = [
                sum(d in p.support for p in x.row) % 2
                for d in range(window + 1)
            ]
            palindromic = occupancy == occupancy[::-1]
            assert check_reflection_symmetry(x).ok == palindromic

    def test_wide_scale_matches_palindromic_occupancy(self):
        """One-row X with memory in the thousands, as `verify` checks on
        the wide benchmark rows: the verdict and witness are those of the
        occupancy palindrome. With parity[d] the number of columns holding
        d, mod 2, the first mismatch is the smallest d with parity[d] !=
        parity[M - d], reported as (2d, 1, 1)."""
        rng = random.Random(37)
        passing = failing = late = 0
        for trial in range(24):
            window = rng.randint(1000, 5000)
            columns = []
            for _ in range(rng.randint(2, 4)):
                taps = set(rng.sample(range(window + 1), rng.randint(1, 4)))
                # mirrored columns make the occupancy a palindrome
                columns.append(taps | {window - t for t in taps})
            columns[0] |= {0, window}
            if trial % 3:
                # flip one tap; a flip at d = M/2 keeps the palindrome
                k = rng.randrange(len(columns))
                d = (
                    window // 2 - rng.randint(0, 2)
                    if trial % 3 == 2
                    else rng.randint(0, window)
                )
                columns[k] ^= {d}
            x = _row(*(sorted(c) for c in columns))
            parity = [0] * (window + 1)
            for c in columns:
                for t in c:
                    parity[t] ^= 1
            d = next(
                (d for d in range(window + 1) if parity[d] != parity[window - d]),
                None,
            )
            want = None if d is None else (2 * d, 1, 1)
            report = check_reflection_symmetry(x)
            assert (report.ok, report.counterexample) == (want is None, want)
            passing += want is None
            failing += want is not None
            late += want is not None and want[0] > window - 6
        assert passing >= 8 and failing >= 8 and late >= 4

    def test_half_scan_matches_full_scan_reference(self):
        """Comparing s in [0, M] only gives the verdict and first witness
        of the full scan over [0, 2M]."""
        rng = random.Random(29)
        checked = failing = 0
        while checked < 2000:
            window = rng.randint(0, 8)
            x = _random_row_of_memory(rng, rng.randint(1, 4), window)
            checked += 1
            report = check_reflection_symmetry(x)
            want = _full_scan_reflection_symmetry(x, window)
            assert (report.ok, report.counterexample) == want
            failing += not want[0]
        assert failing >= 1000

    def test_mismatch_beyond_window_reported_as_its_mirror(self):
        """C_4 != C_2 with M = 3: the full scan meets the same mismatch
        first as (2M - 4, 1, 1) = (2, 1, 1)."""
        x = _row((0, 1), (0, 3), (0,))
        window, s = 3, 4
        assert _sum_index_oracle(x, s) != _sum_index_oracle(x, 2 * window - s)
        mirror = (2 * window - s, 1, 1)
        assert _full_scan_reflection_symmetry(x, window) == (False, mirror)
        assert check_reflection_symmetry(x).counterexample == mirror


class TestSumIndexCallCount:
    """The A7 check builds every C_s, s in [0, 2M], before comparing, so a
    row makes 2M + 1 ``sum_index_matrix`` calls whether it passes or
    fails; the benchmark's traced self-check pins the same count."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        kernel = symplectic.sum_index_matrix

        def counting(x, s):
            seen.append(s)
            return kernel(x, s)

        monkeypatch.setattr(symplectic, "sum_index_matrix", counting)
        return seen

    def test_passing_row(self, calls, example_x):
        assert check_reflection_symmetry(example_x).ok
        assert calls == list(range(5))

    def test_row_failing_at_zero(self, calls):
        report = check_reflection_symmetry(_row((0, 1), (1, 2), (0,)))
        assert report.counterexample == (0, 1, 1)
        assert calls == list(range(5))

    def test_zero_row_and_negative_exponent_rejected(self, calls):
        """M is the row's memory, so the zero row has none, and an exponent
        below 0 lies outside [0, M]; both raise before any C_s is built."""
        with pytest.raises(ValueError, match="^memory of the zero matrix is undefined$"):
            check_reflection_symmetry(_row((), (), ()))
        with pytest.raises(
            ValueError, match="^degree window violated: negative exponent present$"
        ):
            check_reflection_symmetry(_row((-1, 2), (0, 3), (0,)))
        assert calls == []

    def test_verify_pair_on_catalogue_row(self, calls):
        row = TABLE_ROWS[4]
        x = PolyMatrix.from_supports([*row.g_x, (0,)])
        z = PolyMatrix.from_supports([*row.g_z, (0,)])
        verify_pair(x, z, expect_m=row.m, expect_w=row.w)
        assert len(calls) == 2 * row.m + 1


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


def _tap_pair_parity(left: tuple[int, ...], right: tuple[int, ...], s: int) -> int:
    """#{(t, u) in left x right : t + u = s} mod 2, by direct enumeration."""
    return sum(1 for t in left for u in right if t + u == s) % 2


class TestTwoAddendDecomposition:
    def test_coefficients_decompose_into_sum_index_terms(self):
        """Each D^tau coefficient of the symplectic sum splits into the
        per-entry two-addend form, for every permutation (commuting or not)."""
        for fam in search_strong_dts(2, 3, 7):
            x = build_systematic_x(fam)
            m = memory(x)
            supports = parity_supports(x)

            def c_hat(s, a, b):
                return _tap_pair_parity(supports[a - 1], supports[b - 1], s)

            for pi in permutations(range(1, fam.size + 1)):
                z = build_z(x, pi)
                s_poly = symplectic_sum(x, z).row[0]
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
                entries = x.row[: fam.size]
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
                        x.row[k - 1].reverse(m) != x.row[k - 1]
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

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from qccdts import (
    DtsClass,
    PolyMatrix,
    build_systematic_x,
    classify,
    is_csoc,
    memory,
    parity_supports,
    search_strong_dts,
)
from qccdts.tables import TABLE_ROWS

from dense_arrays import block_toeplitz, coefficient_matrix


class TestBuildSystematicX:
    def test_running_example(self, example_family):
        x = build_systematic_x(example_family)
        assert str(x) == "(1+D, 1+D^2, 1)"

    def test_three_streams(self):
        fam = classify([(0, 1), (0, 2), (0, 5)])
        x = build_systematic_x(fam)
        assert str(x) == "(1+D, 1+D^2, 1+D^5, 1)"

    @pytest.mark.parametrize(
        "sets, strength, row, csoc",
        [
            ([(0, 1), (0, 2)], DtsClass.FULL_STRONG, "(1+D, 1+D^2, 1)", True),
            ([(0,)], DtsClass.WDTS, "(1, 1)", True),
            ([(0, 1), (0, 1)], DtsClass.WDTS, "(1+D, 1+D, 1)", False),
        ],
        ids=["strong", "weight-1", "repeated-difference"],
    )
    def test_strong_family_is_silent(self, sets, strength, row, csoc):
        """Any family builds its row without a warning, strong or not; the
        note on a family below STRONG is the CLI parser's to write."""
        fam = classify(sets)
        assert fam.classification == strength
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = build_systematic_x(fam)
        assert str(x) == row
        assert is_csoc(x).ok == csoc

    def test_supports_read_back(self):
        fam = classify([(0, 1, 3), (0, 4, 9)])
        x = build_systematic_x(fam)
        assert parity_supports(x) == ((0, 1, 3), (0, 4, 9))


class TestMemory:
    def test_running_example(self, example_x):
        assert memory(example_x) == 2

    def test_three_streams(self):
        fam = classify([(0, 1), (0, 2), (0, 5)])
        assert memory(build_systematic_x(fam)) == 5

    def test_memoryless(self):
        h = PolyMatrix.from_supports([[(0,), (0,)]])
        assert memory(h) == 0

    def test_zero_matrix_rejected(self):
        h = PolyMatrix.from_supports([[(), ()]])
        with pytest.raises(ValueError):
            memory(h)

    def test_multi_row_ceiling(self):
        # two parity rows sharing max exponent 5: ceil(6/2) - 1 = 2
        h = PolyMatrix.from_supports([[(0, 5), (0,)], [(0,), (0, 3)]])
        assert memory(h) == 2

    def test_equals_scope_for_search_families(self):
        for fam in search_strong_dts(2, 3, 8):
            assert memory(build_systematic_x(fam)) == fam.scope


class TestIsCsoc:
    def test_running_example(self, example_x):
        assert is_csoc(example_x).ok

    def test_within_entry_collision(self):
        x = PolyMatrix.from_supports([[(0, 1, 2), (0,)]])
        report = is_csoc(x)
        assert not report.ok
        assert any(
            c.difference == 1 and c.entries == (1,) for c in report.collisions
        )

    def test_cross_entry_collision(self):
        x = PolyMatrix.from_supports([[(0, 1), (0, 1), (0,)]])
        report = is_csoc(x)
        assert not report.ok
        assert any(
            c.difference == 1 and c.entries == (1, 2) for c in report.collisions
        )

    def test_requires_systematic(self):
        with pytest.raises(ValueError, match="systematic"):
            is_csoc(PolyMatrix.from_supports([[(0, 1), (1,)]]))

    def test_strong_families_are_csoc(self):
        checked = 0
        for fam in search_strong_dts(2, 3, 8):
            assert is_csoc(build_systematic_x(fam)).ok
            checked += 1
        assert checked > 0

    def test_table_rows_are_csoc(self):
        for row in TABLE_ROWS:
            x = PolyMatrix.from_supports([list(row.g_x) + [(0,)]])
            z = PolyMatrix.from_supports([list(row.g_z) + [(0,)]])
            assert is_csoc(x).ok
            assert is_csoc(z).ok


class TestBlockToeplitz:
    def test_window_zero(self, example_x):
        assert block_toeplitz(example_x, 0).tolist() == [[1, 1, 1]]

    def test_window_one(self, example_x):
        got = block_toeplitz(example_x, 1)
        want = [
            [1, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 1, 1],
        ]
        assert got.tolist() == want

    def test_band_complete_beyond_memory(self, example_x):
        mu = memory(example_x)
        j = mu + 2
        got = block_toeplitz(example_x, j)
        for ell in range(mu + 1):
            block = got[(ell) * 1 : (ell + 1) * 1, 0:3]
            assert block.tolist() == coefficient_matrix(example_x, ell).tolist()

    def test_negative_window_rejected(self, example_x):
        with pytest.raises(ValueError):
            block_toeplitz(example_x, -1)

    def test_annihilates_exactly_valid_windows(self):
        """Kernel membership is equivalent to the parity recursion."""
        rng = random.Random(11)
        fam = classify([(0, 1), (0, 2)])
        x = build_systematic_x(fam)
        n = x.ncols
        mu = memory(x)
        j = 5
        mat = block_toeplitz(x, j)
        masks = [coefficient_matrix(x, ell)[0] for ell in range(mu + 1)]

        def recursion_holds(window):
            for t in range(j + 1):
                acc = 0
                for ell in range(min(mu, t) + 1):
                    acc ^= int(np.dot(masks[ell], window[t - ell]) % 2)
                if acc:
                    return False
            return True

        for _ in range(200):
            window = [
                [rng.randint(0, 1) for _ in range(n)] for _ in range(j + 1)
            ]
            stacked = np.array(
                [b for frame in window for b in frame], dtype=np.uint8
            )
            annihilated = not (mat @ stacked % 2).any()
            assert annihilated == recursion_holds(window)


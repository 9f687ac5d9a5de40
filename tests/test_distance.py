from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from qccdts import (
    Method,
    PolyMatrix,
    build_systematic_x,
    certify_dfree,
    classify,
    column_distance,
    dfree_exact,
    dfree_upper,
    is_csoc,
    memory,
    parity_supports,
    search_strong_dts,
)
from qccdts.tables import TABLE_ROWS

from dense_arrays import block_toeplitz


def _row(*supports) -> PolyMatrix:
    return PolyMatrix.from_supports([list(supports)])


def _column_distance_bruteforce(x: PolyMatrix, j: int) -> int:
    """Enumerate every information window outright; parity is the tap-filtered
    sum of the information streams. Independent of the search implementation."""
    supports = parity_supports(x)
    streams = len(supports)
    assert (j + 1) * streams <= 14, "oracle only meant for small windows"
    best = None
    for bits in itertools.product((0, 1), repeat=(j + 1) * streams):
        u = [bits[t * streams : (t + 1) * streams] for t in range(j + 1)]
        if not any(u[0]):
            continue
        weight = sum(bits)
        for t in range(j + 1):
            p = 0
            for i, sup in enumerate(supports):
                for ell in sup:
                    if 0 <= t - ell <= j:
                        p ^= u[t - ell][i]
            weight += p
        best = weight if best is None else min(best, weight)
    return best


def _dfree_bruteforce(x: PolyMatrix, length: int) -> int | None:
    """Weight of the lightest codeword spanning at most ``length`` frames.

    Enumerates every information sequence of at most ``length`` frames
    with a nonzero first frame whose last mu frames are zero, so that the
    encoder has flushed and the parity tail lies inside the span. Weight is
    the information weight plus the parity bits of the span. None when no
    span fits. Independent of the search implementation.
    """
    supports = parity_supports(x)
    streams = len(supports)
    mu = memory(x)
    best = None
    for span in range(mu + 1, length + 1):
        free = span - mu  # frames that may carry information
        assert free * streams <= 12, "oracle only meant for short spans"
        for bits in itertools.product((0, 1), repeat=free * streams):
            u = [bits[t * streams : (t + 1) * streams] for t in range(free)]
            if not any(u[0]):
                continue
            weight = sum(bits)
            for t in range(span):
                p = 0
                for i, sup in enumerate(supports):
                    for ell in sup:
                        if 0 <= t - ell < free:
                            p ^= u[t - ell][i]
                weight += p
            best = weight if best is None else min(best, weight)
    return best


def _within(weight: int | None, budget: int) -> int | None:
    return weight if weight is not None and weight <= budget else None


def _random_row(rng: random.Random, streams: int, mu: int) -> PolyMatrix:
    """Random parity row of exactly this memory; differences may repeat."""
    supports = [
        sorted(set(rng.sample(range(mu + 1), rng.randint(1, min(3, mu + 1)))))
        for _ in range(streams)
    ]
    k = rng.randrange(streams)
    supports[k] = sorted(set(supports[k]) | {mu})
    return PolyMatrix.from_supports([supports + [(0,)]])


def _verify_witness(x: PolyMatrix, witness, expected_weight: int) -> None:
    """Re-walk the witness through the parity recursion and block matrix."""
    assert witness, "witness must be nonempty"
    times = [t for t, _ in witness]
    assert times == sorted(times)
    assert times[0] == 0 and any(witness[0][1]), "first block must be nonzero"
    n = x.ncols
    span = times[-1]
    window = [[0] * n for _ in range(span + 1)]
    for t, bits in witness:
        assert len(bits) == n
        window[t] = list(bits)
    total = sum(sum(frame) for frame in window)
    assert total == expected_weight

    mat = block_toeplitz(x, span)
    stacked = np.array([b for frame in window for b in frame], dtype=np.uint8)
    syndrome = mat @ stacked % 2
    assert not syndrome.any(), "witness violates the parity recursion"
    # beyond the span the information is zero, so check the parity tail too
    supports = parity_supports(x)
    streams = len(supports)
    mu = memory(x)
    for t in range(span + 1, span + mu + 1):
        p = 0
        for i, sup in enumerate(supports):
            for ell in sup:
                if 0 <= t - ell <= span:
                    p ^= window[t - ell][i]
        assert p == 0, "codeword does not terminate after the witness span"


class TestColumnDistance:
    def test_window_zero(self, example_x):
        assert column_distance(example_x, 0) == 2

    def test_window_two(self, example_x):
        assert column_distance(example_x, 2) == 3

    def test_repetition_like(self):
        assert column_distance(_row((0,), (0,)), 0) == 2

    def test_matches_bruteforce(self, example_x):
        for j in range(0, 6):
            assert column_distance(example_x, j) == _column_distance_bruteforce(
                example_x, j
            )

    def test_matches_bruteforce_on_search_families(self):
        rng = random.Random(23)
        fams = list(search_strong_dts(2, 2, 6)) + list(search_strong_dts(3, 2, 6))
        for fam in rng.sample(fams, 12):
            x = build_systematic_x(fam)
            for j in range(0, 3):
                assert column_distance(x, j) == _column_distance_bruteforce(x, j)

    def test_matches_bruteforce_on_random_rows(self):
        rng = random.Random(41)
        rows = [
            _random_row(rng, streams, rng.randint(0, 6))
            for streams in (rng.randint(1, 4) for _ in range(60))
        ]
        rows += [PolyMatrix.from_supports([[(0,)] * (r + 1)]) for r in range(1, 5)]
        assert sum(not is_csoc(x).ok for x in rows) >= 10
        assert sum(memory(x) == 0 for x in rows) >= 4
        for x in rows:
            for j in range(11 // (x.ncols - 1)):
                assert column_distance(x, j) == _column_distance_bruteforce(x, j)

    def test_window_guard(self, example_x):
        with pytest.raises(ValueError, match="window too large"):
            column_distance(example_x, 23)
        with pytest.raises(ValueError):
            column_distance(example_x, -1)

    def test_monotone_and_bounded(self, example_x):
        cert = certify_dfree(example_x)
        profile = [column_distance(example_x, j) for j in range(0, 5)]
        assert profile == sorted(profile)
        assert all(v <= cert.d_free for v in profile)
        assert cert.d_free in profile


class TestDfreeUpper:
    def test_running_example(self, example_x):
        cert = dfree_upper(example_x)
        assert cert.d_free == 3
        assert cert.method is Method.UPPER_BOUND
        _verify_witness(example_x, cert.witness, 3)

    def test_weight_two_row(self):
        fam = classify([(0, 1), (0, 2), (0, 5)])
        cert = dfree_upper(build_systematic_x(fam))
        assert cert.d_free == 3
        _verify_witness(build_systematic_x(fam), cert.witness, 3)

    def test_weight_four_row(self):
        fam = classify([(0, 1, 3, 7), (0, 5, 13, 22)])
        x = build_systematic_x(fam)
        cert = dfree_upper(x)
        assert cert.d_free == 5
        _verify_witness(x, cert.witness, 5)

    def test_lightest_stream_chosen(self):
        x = _row((0, 1, 4), (0, 2), (0,))
        cert = dfree_upper(x)
        assert cert.d_free == 3  # stream 2 has weight 2
        assert cert.witness[0][1][1] == 1


class TestDfreeExact:
    def test_running_example(self, example_x):
        assert dfree_exact(example_x, budget=4) == 3

    def test_budget_too_small_returns_none(self, example_x):
        assert dfree_exact(example_x, budget=2) is None

    def test_memoryless(self):
        assert dfree_exact(_row((0,), (0,)), budget=3) == 2

    def test_budget_guard(self, example_x):
        with pytest.raises(ValueError, match="guard"):
            dfree_exact(example_x, budget=7)

    def test_memory_guard(self):
        fam = classify([(0, 1, 3, 7), (0, 5, 13, 22)])
        with pytest.raises(ValueError, match="memory"):
            dfree_exact(build_systematic_x(fam), budget=5)

    def test_permutation_invariance(self):
        fam = classify([(0, 1), (0, 2), (0, 5)])
        x = build_systematic_x(fam)
        permuted = PolyMatrix.from_supports([[(0, 5), (0, 1), (0, 2), (0,)]])
        assert dfree_exact(x, budget=4) == dfree_exact(permuted, budget=4)

    def test_matches_bruteforce_with_horizon(self):
        rng = random.Random(43)
        non_csoc = 0
        for _ in range(40):
            streams = rng.randint(1, 3)
            mu = rng.randint(0, 4)
            x = _random_row(rng, streams, mu)
            non_csoc += not is_csoc(x).ok
            for horizon in range(1, mu + 1 + 10 // streams):
                lightest = _dfree_bruteforce(x, horizon)
                for budget in range(1, 6):
                    assert dfree_exact(x, budget, horizon) == _within(
                        lightest, budget
                    ), (parity_supports(x), budget, horizon)
        assert non_csoc >= 10

    def test_matches_bruteforce_at_default_horizon(self):
        # The default horizon budget * (mu + 1) must lose no codeword
        # within budget: compare with every span up to it.
        rng = random.Random(47)
        for _ in range(30):
            streams = rng.randint(1, 2)
            mu = rng.randint(0, 2)
            x = _random_row(rng, streams, mu)
            for budget in range(1, 6):
                if (budget * (mu + 1) - mu) * streams > 12:
                    break
                lightest = _dfree_bruteforce(x, budget * (mu + 1))
                assert dfree_exact(x, budget) == _within(lightest, budget), (
                    parity_supports(x),
                    budget,
                )

    def test_agrees_with_weight_plus_one_on_strong_families(self):
        for r, w in ((1, 2), (2, 2), (1, 3), (2, 3)):
            for fam in search_strong_dts(r, w, 7):
                x = build_systematic_x(fam)
                assert dfree_exact(x, budget=w + 1) == w + 1


class TestCertifyDfree:
    def test_running_example_both_methods_agree(self, example_x):
        cert = certify_dfree(example_x)
        assert cert.d_free == 3
        assert cert.method is Method.CSOC_CERTIFICATE
        assert cert.search_budget == 3  # exact search corroborated
        _verify_witness(example_x, cert.witness, 3)

    def test_weight_three_row(self):
        fam = classify([(0, 1, 3), (0, 4, 9)])
        x = build_systematic_x(fam)
        cert = certify_dfree(x)
        assert cert.d_free == 4
        assert cert.search_budget == 4
        _verify_witness(x, cert.witness, 4)

    def test_large_memory_skips_search(self):
        fam = classify([(0, 1, 3, 7), (0, 5, 13, 23), (0, 9, 24, 38), (0, 11, 27, 39)])
        x = build_systematic_x(fam)
        cert = certify_dfree(x)
        assert cert.d_free == 5
        assert cert.search_budget is None  # guard: certificate + witness only
        _verify_witness(x, cert.witness, 5)

    def test_requires_csoc(self):
        x = _row((0, 1, 2), (0,))
        with pytest.raises(ValueError, match="requires CSOC"):
            certify_dfree(x)


class TestTableDistances:
    def test_small_memory_rows_exact(self):
        for row in TABLE_ROWS:
            if row.m > 12:
                continue
            x = PolyMatrix.from_supports([list(row.g_x) + [(0,)]])
            assert dfree_exact(x, budget=row.w + 1) == row.w + 1

    def test_every_row_has_verified_witness(self):
        for row in TABLE_ROWS:
            x = PolyMatrix.from_supports([list(row.g_x) + [(0,)]])
            cert = dfree_upper(x)
            assert cert.d_free == row.w + 1
            _verify_witness(x, cert.witness, row.w + 1)

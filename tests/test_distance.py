from __future__ import annotations

import itertools
import json
import pathlib
import random
import tracemalloc

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
from qccdts import distance
from qccdts.distance import MAX_WINDOW_BITS
from qccdts.tables import TABLE_ROWS

from dense_arrays import block_toeplitz

# The benchmark's distance pool: families with the profiles and non-CSOC
# free distances the CLI printed when it was recorded.
DISTANCE_POOL = json.loads(
    (pathlib.Path(__file__).parents[1] / "bench" / "reference.json").read_text()
)["distance"]


def _row(*supports) -> PolyMatrix:
    return PolyMatrix.from_supports(supports)


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


def _truncated_impulse(x: PolyMatrix, j: int) -> int:
    """Window-[0..j] weight of the lightest single-bit input at time 0."""
    return min(1 + sum(ell <= j for ell in sup) for sup in parity_supports(x))


def _column_distance_light(x: PolyMatrix, j: int) -> int:
    """Column distance by enumerating only the light information windows.

    A window of information weight k weighs at least k. Every window with a
    nonzero first block and information weight <= K is enumerated, where K
    is the fewest taps at delay <= j on any stream (at least 1); the
    minimum m found is exact when m <= K + 1, which is asserted. Reaches
    windows far beyond ``_column_distance_bruteforce``.
    """
    supports = parity_supports(x)
    streams = len(supports)
    window = (1 << (j + 1)) - 1
    taps = [sum(1 << ell for ell in sup) for sup in supports]
    most = max(1, min(sum(ell <= j for ell in sup) for sup in supports))
    cells = [(t, i) for t in range(j + 1) for i in range(streams)]
    best = None
    for first in range(streams):  # one bit in the first block ...
        rest = [c for c in cells if c != (0, first)]
        for k in range(most):  # ... and k more anywhere
            for combo in itertools.combinations(rest, k):
                parity = taps[first]
                for t, i in combo:
                    parity ^= taps[i] << t
                weight = 1 + k + (parity & window).bit_count()
                best = weight if best is None else min(best, weight)
    assert best <= most + 1, "enumeration too shallow to be exact"
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


def _random_row(
    rng: random.Random, streams: int, mu: int, taps: tuple[int, int] = (1, 3)
) -> PolyMatrix:
    """Random parity row of exactly this memory; differences may repeat.

    Each stream draws between ``taps[0]`` and ``taps[1]`` taps (fewer when
    mu + 1 is smaller); one stream also gets the tap at mu.
    """
    low, high = taps
    supports = [
        sorted(set(rng.sample(range(mu + 1), rng.randint(low, min(high, mu + 1)))))
        for _ in range(streams)
    ]
    k = rng.randrange(streams)
    supports[k] = sorted(set(supports[k]) | {mu})
    return PolyMatrix.from_supports(supports + [(0,)])


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
        rows += [PolyMatrix.from_supports([(0,)] * (r + 1)) for r in range(1, 5)]
        assert sum(not is_csoc(x).ok for x in rows) >= 10
        assert sum(memory(x) == 0 for x in rows) >= 4
        for x in rows:
            for j in range(11 // (x.ncols - 1)):
                assert column_distance(x, j) == _column_distance_bruteforce(x, j)

    @pytest.mark.parametrize(
        "supports, windows",
        [
            # Both streams at once: their parities cancel.
            (((0, 1, 2, 3), (0, 1, 2, 3)), range(1, 7)),
            (((0, 2, 3, 5), (1, 2, 3, 5)), range(3, 7)),
            # Bits at t = 0 and t = 1 on one stream: the taps mostly cancel.
            (((0, 1, 2, 3, 4, 5),), range(2, 14)),
            (((0, 1, 2, 3, 4, 5), (0, 2, 4, 6)), range(4, 7)),
        ],
        ids=["cancel", "cancel-offset", "two-frames", "two-frames-2-streams"],
    )
    def test_minimum_below_every_truncated_impulse(self, supports, windows):
        x = _row(*supports, (0,))
        for j in windows:
            got = column_distance(x, j)
            assert got == _column_distance_bruteforce(x, j)
            assert got < _truncated_impulse(x, j)

    @pytest.mark.parametrize(
        "supports",
        [((5,), (3, 7)), ((2, 9), (4,)), ((6,),), ((0, 4), (8,), (3, 6))],
        ids=str,
    )
    def test_streams_without_taps_in_the_window(self, supports):
        x = _row(*supports, (0,))
        streams = len(supports)
        for j in range(14 // streams):
            assert column_distance(x, j) == _column_distance_bruteforce(x, j)
        # A stream with no tap at delay <= j gives a window of weight 1.
        for j in range(max(min(sup) for sup in supports)):
            assert column_distance(x, j) == 1

    @pytest.mark.parametrize(
        "supports, j, seed",
        [
            # Seed 1: a stream with no delay-0 tap, or a zero polynomial.
            (((2, 5), (0, 1)), 1, 1),
            (((), (0, 3)), 3, 1),
            # Seed 2: one tap at delay <= j on the lightest stream.
            (((0, 4), (0, 5)), 3, 2),
            (((0, 1, 3),), 0, 2),
            # Seed 3 is searched: on ((0, 1), (0, 1)) a bit on both streams
            # at time 0 cancels every parity, so d_1 = 2.
            (((0, 1), (0, 1)), 1, 3),
            (((0, 1, 3), (0, 2, 5)), 2, 3),
        ],
    )
    def test_seed_shortcut_matches_bruteforce(self, supports, j, seed):
        x = _row(*supports, (0,))
        assert _truncated_impulse(x, j) == seed
        assert column_distance(x, j) == _column_distance_bruteforce(x, j)

    def test_seed_below_three_skips_the_search(self, monkeypatch):
        # A seed of 1 or 2 is the column distance itself, and so is every
        # seed on a CSOC row, so neither the register's memory nor the
        # search is needed for them.
        calls = {"_lightest": 0, "memory": 0}

        def count(name):
            real = getattr(distance, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(distance, name, counted)

        count("_lightest")
        count("memory")
        rng = random.Random(2323)
        rows = [
            _random_row(rng, rng.randint(1, 3), rng.randint(0, 8)) for _ in range(40)
        ]
        searched = shortcut = 0
        for x in rows:
            csoc = is_csoc(x).ok
            for j in range(12 // (x.ncols - 1)):
                before = dict(calls)
                got = column_distance(x, j)
                assert got == _column_distance_bruteforce(x, j)
                seed = _truncated_impulse(x, j)
                search = seed >= 3 and not csoc
                assert calls["_lightest"] - before["_lightest"] == search, (x, j, seed)
                assert calls["memory"] - before["memory"] == search, (x, j, seed)
                searched += search
                shortcut += seed >= 3 and csoc
        assert calls["memory"] == calls["_lightest"] == searched
        # 294 windows: 34 searched, and 88 on CSOC rows with a seed >= 3.
        assert 20 <= searched <= sum(12 // (x.ncols - 1) for x in rows) - 20, searched
        assert shortcut >= 60, shortcut

    def test_csoc_seed_matches_the_search(self):
        # Every window of j = 0..2M within MAX_WINDOW_BITS, on X and Z of
        # the catalogue, seeded strong families and seeded non-CSOC rows:
        # column_distance against the search started from a bound above
        # any window's weight, and against brute force on small windows.
        rng = random.Random(3434)
        csoc_rows = [
            _row(*sets, (0,)) for row in TABLE_ROWS for sets in (row.g_x, row.g_z)
        ]
        for shape in ((2, 3, 12), (3, 3, 20), (4, 2, 10), (2, 4, 30), (3, 4, 40)):
            families = list(itertools.islice(search_strong_dts(*shape), 200))
            csoc_rows += [build_systematic_x(f) for f in rng.sample(families, 8)]
        other_rows = []
        while len(other_rows) < 100:
            x = _random_row(rng, rng.randint(1, 4), rng.randint(1, 10), taps=(2, 5))
            if not is_csoc(x).ok:
                other_rows.append(x)
        assert all(is_csoc(x).ok for x in csoc_rows)

        def check(x):
            supports = parity_supports(x)
            streams = len(supports)
            for j in range(min(2 * memory(x), MAX_WINDOW_BITS // streams - 1) + 1):
                got = column_distance(x, j)
                loose = (j + 1) * (streams + 1) + 1
                frames = min(memory(x), j)
                assert got == distance._lightest(supports, frames, j, loose, window=True)
                if (j + 1) * streams <= 10:
                    assert got == _column_distance_bruteforce(x, j), (x, j)
                yield got, _truncated_impulse(x, j)

        on_csoc = [entry for x in csoc_rows for entry in check(x)]
        assert all(got == seed for got, seed in on_csoc)
        below = sum(got < seed for x in other_rows for got, seed in check(x))
        # 1,050 CSOC windows, 498 of them with a seed >= 3; 1,118 non-CSOC
        # windows, 335 of them below their seed, out of the shortcut's reach.
        assert sum(seed >= 3 for _, seed in on_csoc) >= 450
        assert below >= 300, below

    def test_light_oracle_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(20):
            streams = rng.randint(1, 3)
            x = _random_row(rng, streams, rng.randint(0, 8))
            for j in range(12 // streams):
                assert _column_distance_light(x, j) == _column_distance_bruteforce(x, j)

    def test_every_window_up_to_twice_the_memory(self):
        # j = 0..2M for r <= 4, M <= 10, up to the MAX_WINDOW_BITS cap.
        rng = random.Random(1414)
        rows = [
            _random_row(rng, rng.randint(1, 4), rng.randint(0, 10)) for _ in range(60)
        ]
        rows += [
            _random_row(rng, rng.randint(1, 4), rng.randint(2, 10), taps=(3, 5))
            for _ in range(40)
        ]
        below = without = 0
        for x in rows:
            streams = x.ncols - 1
            for j in range(min(2 * memory(x), MAX_WINDOW_BITS // streams - 1) + 1):
                got = column_distance(x, j)
                assert got == _column_distance_light(x, j), (x, j)
                below += got < _truncated_impulse(x, j)
                without += _truncated_impulse(x, j) == 1
        # 1,154 windows: 304 weigh less than every truncated impulse and 199
        # have a stream with no tap at delay <= j.
        assert below >= 250 and without >= 150, (below, without)

    def test_window_guard(self, example_x):
        with pytest.raises(ValueError, match="window too large"):
            column_distance(example_x, 23)
        with pytest.raises(ValueError):
            column_distance(example_x, -1)

    def test_far_tap_costs_no_memory(self):
        # A window of j frames never reaches a tap at delay 10^7, so the
        # search must not hold a register sized by it (45 MB if it did).
        # The CSOC row returns its seeds; the other one, whose difference
        # 1 repeats, is searched from j = 1 on.
        for second in ((0, 4), (0, 1)):
            near = _row((0, 1, 3), (*second, 10**5), (0,))
            far = _row((0, 1, 3), (*second, 10**7), (0,))
            tracemalloc.start()
            try:
                profile = [column_distance(far, j) for j in range(8)]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert profile == [column_distance(near, j) for j in range(8)]

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
        permuted = PolyMatrix.from_supports([(0, 5), (0, 1), (0, 2), (0,)])
        assert dfree_exact(x, budget=4) == dfree_exact(permuted, budget=4)

    def test_matches_bruteforce_with_horizon(self):
        """The search under dfree_exact, cut to ``horizon`` frames, finds
        the lightest codeword that closes within them, at depths short of
        its budget * (mu + 1)."""
        rng = random.Random(43)
        non_csoc = 0
        for _ in range(40):
            streams = rng.randint(1, 3)
            mu = rng.randint(0, 4)
            x = _random_row(rng, streams, mu)
            non_csoc += not is_csoc(x).ok
            supports = parity_supports(x)
            for horizon in range(1, mu + 1 + 10 // streams):
                lightest = _dfree_bruteforce(x, horizon)
                for budget in range(1, 6):
                    found = distance._lightest(
                        supports, mu, horizon - 1, budget + 1, window=False
                    )
                    assert _within(found, budget) == _within(lightest, budget), (
                        supports,
                        budget,
                        horizon,
                    )
        assert non_csoc >= 10

    def test_matches_bruteforce_at_default_horizon(self):
        # The depth budget * (mu + 1) must lose no codeword within
        # budget: compare with every span up to it.
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
            x = PolyMatrix.from_supports([*row.g_x, (0,)])
            assert dfree_exact(x, budget=row.w + 1) == row.w + 1

    def test_exact_search_confirms_every_certificate(self, monkeypatch):
        # The library's guard skips the search at memory > 12, which covers
        # rows 1.5 and 3.1-3.4. Lifted here to the catalogue's largest
        # memory, the search must still find d_free = w + 1 on X and Z of
        # every row. Z of rows 3.3 and 3.4 is the heaviest case, which the
        # zero-tail walk keeps to about 24,000 frames each.
        monkeypatch.setattr(distance, "MAX_EXACT_MEMORY", max(r.m for r in TABLE_ROWS))
        for row in TABLE_ROWS:
            for name, sets in (("X", row.g_x), ("Z", row.g_z)):
                h = _row(*sets, (0,))
                assert dfree_exact(h, budget=row.w + 1) == row.w + 1, (
                    row.table_id, row.row_no, name,
                )

    def test_every_row_has_verified_witness(self):
        for row in TABLE_ROWS:
            x = PolyMatrix.from_supports([*row.g_x, (0,)])
            cert = dfree_upper(x)
            assert cert.d_free == row.w + 1
            _verify_witness(x, cert.witness, row.w + 1)


class TestNegativeExponent:
    """A row with a Laurent term has no encoder running forward from time 0.

    Each entry point rejects it before any other check or search: the
    shift register holds no negative delay, and the impulse witness would
    start before time 0.
    """

    CALLS = {
        "column_distance": lambda h: column_distance(h, -1),
        "dfree_exact": lambda h: dfree_exact(h, budget=7),
        "dfree_upper": dfree_upper,
        "certify_dfree": certify_dfree,
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize(
        "supports, stream, exponent",
        [
            (((-1, 2),), 1, -1),
            (((0, 1), (-3, 0, 40)), 2, -3),
            # Not CSOC either: the exponent is still what is reported.
            (((-2, -1, 0),), 1, -2),
        ],
    )
    def test_rejected_first(self, call, supports, stream, exponent):
        # Window -1, budget 7 and memory 40 would each fail their own
        # guard; the exponent check runs before them.
        with pytest.raises(
            ValueError,
            match=f"^stream {stream} has negative exponent {exponent}; "
            "distances need exponents >= 0$",
        ):
            call(_row(*supports, (0,)))


class TestRecordedPool:
    def test_every_entry_matches_its_recording(self):
        # 14 catalogue rows, 180 strong families and 90 colliding families
        # under budgets 4, 5 and 6: 464 cases.
        cases = [(e["T"], None, e) for e in DISTANCE_POOL["catalogue"]]
        cases += [(e["T"], None, e) for slot in DISTANCE_POOL["strong"] for e in slot]
        cases += [
            (e["T"], int(budget), recorded)
            for slot in DISTANCE_POOL["colliding"]
            for e in slot
            for budget, recorded in e["budgets"].items()
        ]
        assert len(cases) == 464
        for sets, budget, recorded in cases:
            x = _row(*sets, (0,))
            profile = recorded["column_distances"]
            assert [column_distance(x, j) for j in range(len(profile))] == profile, sets
            assert is_csoc(x).ok == (budget is None), sets
            if budget is not None:
                found = dfree_exact(x, budget)
                assert (found if found is not None else f">{budget}") == recorded[
                    "d_free"
                ], (sets, budget)

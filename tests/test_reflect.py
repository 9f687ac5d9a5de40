from __future__ import annotations

import random
from itertools import permutations

import pytest

from qccdts import (
    ONE,
    DtsClass,
    Gf2Poly,
    PolyMatrix,
    build_systematic_x,
    build_z,
    classify,
    memory,
    parity_supports,
    search_strong_dts,
    verify_pair,
)

from references import positive_differences, reflect_family


class TestReflectFamily:
    def test_running_example(self, example_family):
        reflected = reflect_family(example_family)
        assert reflected.sets == ((1, 2), (0, 2))

    def test_table_instance(self):
        fam = classify([(0, 1, 3), (0, 4, 9)])
        reflected = reflect_family(fam)
        assert reflected.sets == ((6, 8, 9), (0, 5, 9))

    def test_palindromic_fixed_point(self):
        fam = classify([(0, 2)])
        reflected = reflect_family(fam)
        assert reflected.sets == ((0, 2),)

    def test_window_must_match_scope(self, example_family):
        # the window is the scope: a smaller one cannot hold the sets
        reflected = reflect_family(example_family)
        assert reflected.scope == example_family.scope
        with pytest.raises(ValueError, match="reversal window"):
            Gf2Poly(example_family.sets[1]).reverse(1)

    def test_involution(self):
        for fam in search_strong_dts(2, 3, 9):
            twice = reflect_family(reflect_family(fam))
            assert twice.sets == fam.sets

    def test_preserves_classification_scope_spectrum(self):
        for r, w in ((1, 2), (2, 2), (2, 3), (3, 2)):
            for fam in search_strong_dts(r, w, 8):
                reflected = reflect_family(fam)
                assert reflected.classification == fam.classification
                assert reflected.scope == fam.scope
                assert reflected.budget == fam.budget
                assert sorted(map(positive_differences, reflected.sets)) == sorted(
                    map(positive_differences, fam.sets)
                )


class TestBuildZ:
    def test_swap_permutation(self, example_x, example_z_swapped):
        assert build_z(example_x, (2, 1)) == example_z_swapped

    def test_identity_permutation(self, example_x, example_z_identity):
        assert build_z(example_x) == example_z_identity
        assert build_z(example_x, (1, 2)) == example_z_identity

    def test_degree_zero(self):
        x = PolyMatrix.from_supports([(0,), (0,)])
        assert build_z(x, (1,)) == x

    def test_rejects_non_permutation(self, example_x):
        with pytest.raises(ValueError, match="not a permutation"):
            build_z(example_x, (1, 1))
        with pytest.raises(ValueError, match="not a permutation"):
            build_z(example_x, (0, 1))

    def test_agrees_with_family_reflection(self):
        """Polynomial reversal and set reflection are the same route."""
        for fam in search_strong_dts(2, 3, 8):
            x = build_systematic_x(fam)
            reflected = reflect_family(fam)
            for pi in permutations(range(1, fam.size + 1)):
                z = build_z(x, pi)
                want = tuple(reflected.sets[pi[j] - 1] for j in range(fam.size))
                assert parity_supports(z) == want

    def test_memory_preserved(self):
        for fam in search_strong_dts(3, 2, 7):
            x = build_systematic_x(fam)
            for pi in permutations(range(1, 4)):
                assert memory(build_z(x, pi)) == memory(x)


class TestVerifyPair:
    def test_swap_pair_passes(self, example_x, example_z_swapped):
        report = verify_pair(example_x, example_z_swapped, expect_m=2, expect_w=2)
        assert all(report.checks.values())
        assert report.violations == ()
        assert (report.memory_x, report.memory_z) == (2, 2)
        assert report.certificate.d_free == 3

    def test_identity_pair_does_not_commute(self, example_x, example_z_identity):
        report = verify_pair(example_x, example_z_identity)
        assert report.checks["commuting"] is False
        assert report.checks["csoc_z"] is True  # reflection preserves CSOC
        assert {check for check, _ in report.violations} == {"commutation"}

    def test_transposition_pairs_certify(self):
        """Transposition-based permutations give commuting pairs, d_free = w+1."""
        for sets, pi in (
            ([(0, 1), (0, 3)], (2, 1)),
            ([(0, 1), (0, 2), (0, 5)], (2, 1, 3)),
            ([(0, 1, 3), (0, 4, 9), (0, 6, 13), (0, 8, 18)], (2, 1, 4, 3)),
        ):
            fam = classify(sets)
            x = build_systematic_x(fam)
            report = verify_pair(x, build_z(x, pi), expect_w=fam.weight)
            assert report.checks["commuting"] is True
            assert report.checks["dfree"] is True
            assert report.certificate.d_free == fam.weight + 1

    def test_declared_memory_and_weight(self, example_x, example_z_swapped):
        report = verify_pair(example_x, example_z_swapped, expect_m=3, expect_w=3)
        assert report.checks["memory"] is False
        assert report.checks["dfree"] is False
        assert report.violations == (
            ("memory", "memory 2 does not match declared m=3"),
            ("dfree", "d_free 3 does not match declared w+1"),
        )

    def test_non_csoc_x_has_no_certificate(self):
        x = PolyMatrix.from_supports([(0, 1, 2), (0,)])
        report = verify_pair(x, build_z(x))
        assert report.certificate is None
        assert report.checks["csoc_x"] is False
        assert report.checks["dfree"] is False
        assert "dfree" not in {check for check, _ in report.violations}


def _strong_dts(report):
    """verify_pair's strong_dts verdict and the text of its violations."""
    return report.checks["strong_dts"], [d for c, d in report.violations if c == "strong_dts"]


def _classified(x):
    """The same, as classify reads X's parity supports."""
    verdict = classify(parity_supports(x)).classification
    strong = verdict >= DtsClass.STRONG
    return strong, [] if strong else [f"X family classifies as {verdict}"]


class TestStrongDtsFromCsoc:
    """verify_pair reads strong_dts from X's CSOC collisions, with no
    classify of its own; the verdict and its text are classify's."""

    @pytest.mark.parametrize(
        "sets, verdict",
        [
            ([(0, 1, 3), (0, 4, 9)], DtsClass.STRONG),
            ([(0, 1), (0, 2)], DtsClass.FULL_STRONG),
            ([(0, 1, 2), (0, 4, 9)], DtsClass.NOT_WDTS),
            ([(0, 1, 3), (0, 1, 5)], DtsClass.WDTS),
            ([(0,), (2,)], DtsClass.WDTS),
        ],
        ids=["dts", "perfect", "repeat_in_one_entry", "repeat_across_entries", "weight_1"],
    )
    def test_named(self, sets, verdict):
        x = PolyMatrix.from_supports([*sets, (0,)])
        assert classify(sets).classification == verdict
        got = _strong_dts(verify_pair(x, build_z(x)))
        assert got == _classified(x)
        assert got[0] is (verdict >= DtsClass.STRONG)

    def test_random_sample(self):
        rng = random.Random(2929)
        seen = set()
        for _ in range(400):
            r, w = rng.randint(1, 4), rng.randint(1, 4)
            scope = rng.randint(w - 1, 14)
            sets = [(0, *sorted(rng.sample(range(1, scope + 1), w - 1))) for _ in range(r)]
            x = PolyMatrix.from_supports([*sets, (0,)])
            pi = list(range(1, r + 1))
            rng.shuffle(pi)
            got = _strong_dts(verify_pair(x, build_z(x, pi)))
            assert got == _classified(x), sets
            seen.add(classify(sets).classification)
        # with no budget a DTS of weight >= 2 is STRONG, so DTS never shows
        assert seen == set(DtsClass) - {DtsClass.DTS}

    # The messages verify_pair raised when it still ran classify on X.
    @pytest.mark.parametrize(
        "x_row, z_row, message",
        [
            (
                [(0, 1), (0, 2, 5), (0,)],
                [(0, 1), (0, 2), (0,)],
                "all sets in a family must share one cardinality",
            ),
            ([(0, 1), (), (0,)], [(0, 1), (0, 2), (0,)], "support set must be nonempty"),
            (
                [(0, 1), (-1, 2), (0,)],
                [(0, 1), (0, 2), (0,)],
                "element -1 must be a non-negative integer",
            ),
            (
                [(0, 1), (0, 2), (1,)],
                [(0, 1), (0, 2), (0,)],
                "expected a systematic 1 x n row with constant 1 in the last entry",
            ),
            (
                [(0, 1), (0, 2), (0,)],
                [(0, 1), (0, 2), (1,)],
                "expected a systematic 1 x n row with constant 1 in the last entry",
            ),
            # X's input check comes before Z's systematic check.
            (
                [(0, 1), (0, 2, 5), (0,)],
                [(0, 1), (0, 2), (1,)],
                "all sets in a family must share one cardinality",
            ),
        ],
        ids=["unequal_weights", "empty_entry", "negative_exponent",
             "non_systematic_x", "non_systematic_z", "x_checked_first"],
    )
    def test_input_errors_unchanged(self, x_row, z_row, message):
        x, z = (PolyMatrix([Gf2Poly(s) for s in row]) for row in (x_row, z_row))
        with pytest.raises(ValueError) as exc:
            verify_pair(x, z)
        assert str(exc.value) == message

    def test_z_is_not_classified(self):
        # Z gets the CSOC check alone, as before: no weight or sign check.
        x = PolyMatrix.from_supports([(0, 1), (0, 2), (0,)])
        z = PolyMatrix((Gf2Poly((-1, 2)), Gf2Poly((0, 1, 2)), ONE))
        report = verify_pair(x, z)
        assert report.checks["strong_dts"] is True
        assert report.checks["csoc_z"] is False


def test_reflection_preserves_per_set_differences():
    fam = classify([(0, 1, 3), (0, 4, 9)])
    reflected = reflect_family(fam)
    for before, after in zip(fam.sets, reflected.sets):
        assert positive_differences(before) == positive_differences(after)


from __future__ import annotations

import itertools
import math
import random

import pytest

from qccdts import (
    DtsClass,
    DtsFamily,
    PolyMatrix,
    SupportSet,
    classify,
    from_one_based,
    is_csoc,
    search_strong_dts,
)
from qccdts.dts import repeated_differences

class TestSupportSet:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SupportSet((-1, 0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SupportSet.from_iterable([1, 1, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SupportSet(())

    def test_str(self):
        assert str(SupportSet((0, 1, 3))) == "{0, 1, 3}"


class TestFromOneBased:
    def test_basic(self):
        assert from_one_based((1, 5, 10)).elements == (0, 4, 9)

    def test_singleton(self):
        assert from_one_based((1,)).elements == (0,)

    def test_large_row(self):
        assert from_one_based((1, 6, 14, 23)).elements == (0, 5, 13, 22)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="0-based or malformed"):
            from_one_based((0, 4))


class TestClassify:
    def test_example_family_is_full_strong(self):
        fam = classify([(0, 1), (0, 2)])
        assert fam.classification is DtsClass.FULL_STRONG
        assert fam.classification >= DtsClass.STRONG
        assert fam.budget == 2

    def test_repeated_set_is_only_wdts(self):
        fam = classify([(0, 1), (0, 1)])
        assert fam.classification is DtsClass.WDTS

    def test_strong_but_not_full(self):
        fam = classify([(0, 1, 3), (0, 4, 9)])
        assert fam.classification is DtsClass.STRONG
        assert fam.budget == 9

    def test_within_set_collision_is_not_wdts(self):
        fam = classify([(0, 1, 2)])
        assert fam.classification is DtsClass.NOT_WDTS

    def test_unequal_cardinalities_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            classify([(0, 1), (0, 1, 3)])

    def test_weight_one_is_vacuous_wdts(self):
        fam = classify([(0,), (3,)])
        assert fam.classification is DtsClass.WDTS
        assert fam.budget is None

    def test_explicit_budget_below_observed_demotes(self):
        fam = classify([(0, 1), (0, 5)], budget=3)
        assert fam.classification is DtsClass.DTS
        assert fam.budget is None

    def test_explicit_budget_above_observed(self):
        fam = classify([(0, 1), (0, 2)], budget=5)
        assert fam.classification is DtsClass.STRONG
        assert fam.budget == 5

    def test_scope_and_weight(self):
        fam = classify([(0, 1, 3), (0, 4, 9)])
        assert fam.scope == 9
        assert fam.weight == 3
        assert fam.size == 2

    def test_invariant_under_member_order(self):
        a = classify([(0, 1, 3), (0, 4, 9)])
        b = classify([(0, 4, 9), (0, 1, 3)])
        assert a.classification == b.classification
        assert a.budget == b.budget

    def test_invariant_under_normalization(self):
        shifted = classify([(2, 3, 5), (1, 5, 10)])
        normalized = classify([(0, 1, 3), (0, 4, 9)])
        assert shifted.classification == normalized.classification
        assert shifted.budget == normalized.budget


class TestSearch:
    def test_includes_example_family(self):
        families = [
            tuple(s.elements for s in fam.sets)
            for fam in search_strong_dts(2, 2, 2)
        ]
        assert ((0, 1), (0, 2)) in families

    def test_minimal_scope_single_set(self):
        families = list(search_strong_dts(1, 2, 1))
        assert len(families) == 1
        assert families[0].sets[0].elements == (0, 1)

    def test_two_sets_need_scope_two(self):
        assert list(search_strong_dts(2, 2, 1)) == []

    def test_guards(self):
        with pytest.raises(ValueError):
            list(search_strong_dts(0, 2, 5))
        with pytest.raises(ValueError):
            list(search_strong_dts(1, 1, 5))
        with pytest.raises(ValueError):
            list(search_strong_dts(1, 3, 1))

    def test_everything_reclassifies_strong(self):
        for fam in search_strong_dts(2, 3, 8):
            re = classify(fam.sets)
            assert re.classification >= DtsClass.STRONG
            assert re.classification == fam.classification

    def test_deterministic_order(self):
        first = [str(f) for f in search_strong_dts(3, 2, 6)]
        second = [str(f) for f in search_strong_dts(3, 2, 6)]
        assert first == second
        canon = [tuple(s.elements for s in f.sets) for f in search_strong_dts(3, 2, 6)]
        assert canon == sorted(canon)

    def test_full_strong_counting_identity(self):
        seen_full = 0
        for r, w, scope in ((2, 2, 4), (3, 2, 8), (2, 3, 10)):
            for fam in search_strong_dts(r, w, scope):
                if fam.classification is DtsClass.FULL_STRONG:
                    seen_full += 1
                    assert fam.size * math.comb(fam.weight, 2) == fam.budget
        assert seen_full > 0

    # Streams at r = 1, 2, 4 and 5; FULL_STRONG families per stream, in
    # order: 1 of 5, 2 of 80, 0 of 628, 1 of 495, 128 of 640, 672 of 672.
    @pytest.mark.parametrize(
        "r, w, scope",
        [(1, 2, 5), (1, 4, 11), (2, 3, 12), (4, 2, 12), (4, 3, 13), (5, 3, 15)],
    )
    def test_families_match_the_constructor(self, r, w, scope):
        # The engine builds families without DtsFamily.__init__; each must
        # still be an immutable, slotted DtsFamily equal to a constructed one.
        assert "__slots__" in vars(DtsFamily)
        families = list(search_strong_dts(r, w, scope))
        assert families
        for fam in families:
            assert type(fam) is DtsFamily
            twin = DtsFamily(fam.sets, fam.classification, fam.budget)
            assert fam == twin and hash(fam) == hash(twin)
            again = classify(fam.sets)
            assert again.classification is fam.classification
            assert again.budget == fam.budget
            for field in ("sets", "classification", "budget"):
                before = getattr(fam, field)
                with pytest.raises(AttributeError):
                    setattr(fam, field, before)
                assert getattr(fam, field) is before
            assert not hasattr(fam, "__dict__")


def _brute_force_strong(r: int, w: int, scope: int) -> list[tuple]:
    """Every canonical strong family, found without the search engine.

    Families are r-combinations of the normalized w-sets in lexicographic
    order, kept when all their positive differences are distinct; the budget
    is the family scope and the family is FULL_STRONG iff it covers 1..scope.
    """
    members = [(0,) + c for c in itertools.combinations(range(1, scope + 1), w - 1)]
    out = []
    for family in itertools.combinations(members, r):
        diffs = [b - a for s in family for a, b in itertools.combinations(s, 2)]
        if len(set(diffs)) != len(diffs):
            continue
        top = max(s[-1] for s in family)
        full = sorted(diffs) == list(range(1, top + 1))
        out.append((family, DtsClass.FULL_STRONG if full else DtsClass.STRONG, top))
    return out


@pytest.mark.parametrize(
    "r, w, scope",
    [
        (r, w, scope)
        for r in (1, 2, 3)
        for w in (2, 3)
        for scope in range(w - 1, 10)
    ]
    # r = 1 and r = 5 (the guard maximum) bound the stack's depth; the
    # (2, 4) stream is empty up to scope 12 and holds 8, 32, 164 families
    # at scopes 13, 14, 15.
    + [(1, 4, 13), (2, 4, 13), (2, 4, 14), (2, 4, 15)]
    + [(r, 2, scope) for r in (4, 5) for scope in range(1, 11)],
)
def test_search_matches_brute_force(r, w, scope):
    found = [
        (tuple(s.elements for s in fam.sets), fam.classification, fam.budget)
        for fam in search_strong_dts(r, w, scope)
    ]
    assert found == _brute_force_strong(r, w, scope)


def _collisions_bruteforce(supports) -> list[tuple[int, tuple[int, ...]]]:
    """The documented collision list, from counts over every pair of elements.

    Within each entry, a difference seen k times gives k - 1 collisions;
    then every difference two entries share gives one. Both ascend.
    """
    diffs = [[b - a for a in s for b in s if b > a] for s in supports]
    top = max((d for ds in diffs for d in ds), default=0)
    out = []
    for i, ds in enumerate(diffs, 1):
        for d in range(1, top + 1):
            out += [(d, (i,))] * max(ds.count(d) - 1, 0)
    for i, j in itertools.combinations(range(len(diffs)), 2):
        out += [
            (d, (i + 1, j + 1))
            for d in range(1, top + 1)
            if d in diffs[i] and d in diffs[j]
        ]
    return out


def _verdict_bruteforce(supports) -> DtsClass:
    """classify's verdict with no budget, from the brute-force collisions."""
    collisions = _collisions_bruteforce(supports)
    if any(len(entries) == 1 for _, entries in collisions):
        return DtsClass.NOT_WDTS
    if len(supports[0]) == 1 or collisions:
        return DtsClass.WDTS
    diffs = sorted(b - a for s in supports for a in s for b in s if b > a)
    if diffs == list(range(1, diffs[-1] + 1)):
        return DtsClass.FULL_STRONG
    return DtsClass.STRONG


class TestRepeatedDifferences:
    """The one difference check, against an engine-free brute force."""

    CASES = {
        "repeat within one set": [(0, 1, 2), (0, 4, 9)],
        "difference thrice in one set": [(0, 1, 2, 3)],
        "repeat across two sets": [(0, 1), (0, 1)],
        "one difference in three entries": [(0, 2), (1, 3), (5, 7)],
        "within and across": [(0, 1, 2), (0, 2, 7)],
        "weight-1 sets": [(0,), (3,), (5,)],
        "distinct": [(0, 1, 3), (0, 4, 9)],
    }

    @staticmethod
    def _as_pairs(collisions):
        return [(c.difference, c.entries) for c in collisions]

    @pytest.mark.parametrize("name", list(CASES))
    def test_named_cases(self, name):
        supports = self.CASES[name]
        want = _collisions_bruteforce(supports)
        assert self._as_pairs(repeated_differences(supports)) == want
        assert classify(supports).classification == _verdict_bruteforce(supports)
        x = PolyMatrix.from_supports([list(supports) + [(0,)]])
        assert self._as_pairs(is_csoc(x).collisions) == want

    def test_three_entries_share_one_difference(self):
        supports = self.CASES["one difference in three entries"]
        assert self._as_pairs(repeated_differences(supports)) == [
            (2, (1, 2)), (2, (1, 3)), (2, (2, 3)),
        ]

    def test_empty_parity_entries(self):
        # A hand-built row may hold zero polynomials; they have no differences.
        supports = [(0, 1), (), (3, 4), (), (0, 2, 4)]
        x = PolyMatrix.from_supports([supports + [(0,)]])
        want = _collisions_bruteforce(supports)
        assert want == [(2, (5,)), (1, (1, 3))]
        assert self._as_pairs(is_csoc(x).collisions) == want
        assert not is_csoc(x).ok

    def test_random_families(self):
        rng = random.Random(8)
        for _ in range(2000):
            r, w = rng.randint(1, 4), rng.randint(1, 4)
            supports = [tuple(sorted(rng.sample(range(13), w))) for _ in range(r)]
            want = _collisions_bruteforce(supports)
            assert self._as_pairs(repeated_differences(supports)) == want
            fam = classify(supports)
            assert fam.classification == _verdict_bruteforce(supports)
            x = PolyMatrix.from_supports([supports + [(0,)]])
            report = is_csoc(x)
            assert self._as_pairs(report.collisions) == want
            assert report.ok == (not want)


def test_classification_reorder_random():
    rng = random.Random(7)
    families = list(search_strong_dts(3, 2, 7))
    for fam in families:
        members = list(fam.sets)
        rng.shuffle(members)
        assert classify(members).classification == fam.classification

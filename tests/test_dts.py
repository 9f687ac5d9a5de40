from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc

import pytest

from qccdts import (
    DtsClass,
    DtsFamily,
    PolyMatrix,
    classify,
    from_one_based,
    is_csoc,
    search_strong_dts,
)
from qccdts.cli import _code_input, _format_sets
from qccdts.dts import _wdts_candidates, as_support, repeated_differences
from references import list_pool_search


class TestSupportSet:
    """A support set is a plain sorted tuple, checked by ``as_support``."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^element -1 must be a non-negative integer$"):
            as_support((-1, 0))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="^element 1.5 must be a non-negative integer$"):
            as_support((0, 1.5))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"^elements \(1, 1, 3\) must strictly increase$"):
            as_support([1, 3, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^support set must be nonempty$"):
            as_support(())

    def test_rejects_bool(self):
        # bool is an int subclass; True used to pass as the exponent 1.
        with pytest.raises(ValueError, match="^element True must be a non-negative integer$"):
            as_support((True, 3))
        with pytest.raises(ValueError, match="^element False must be a non-negative integer$"):
            as_support([2, False])

    def test_from_one_based_rejects_bool(self):
        # The check runs before the subtraction: True - 1 used to become 0.
        with pytest.raises(ValueError, match="^element True must be a non-negative integer$"):
            from_one_based([True, 3])

    def test_classify_rejects_bool(self):
        with pytest.raises(ValueError, match="^element True must be a non-negative integer$"):
            classify([(True, 3), (0, 2)])

    @pytest.mark.parametrize("bad", ["a", None, (1,), 2.0], ids=repr)
    def test_rejects_unsortable_elements_as_value_error(self, bad):
        # The elements are checked before the sort, which cannot order a
        # str or None among integers.
        message = f"^element {re.escape(repr(bad))} must be a non-negative integer$"
        with pytest.raises(ValueError, match=message):
            as_support([0, bad])
        with pytest.raises(ValueError, match=message):
            as_support([bad, 3, 1])
        with pytest.raises(ValueError, match=message):
            from_one_based([1, bad])
        with pytest.raises(ValueError, match=message):
            classify([(0, 2), (0, bad)])

    def test_str(self):
        assert _format_sets([as_support((3, 0, 1))]) == "{0, 1, 3}"


def test_family_sets_are_plain_int_tuples():
    assert classify([(3, 0, 1)]).sets == ((0, 1, 3),)
    one_based = _code_input({"T": [[2, 1], [1, 3]], "Z": [[3, 1], [2, 3]]}, None)
    zero_based = _code_input({"T": [[1, 0], [0, 2]], "Z": [[2, 0], [1, 2]]}, False)
    assert one_based.family.sets == zero_based.family.sets == ((0, 1), (0, 2))
    assert one_based.z_sets == zero_based.z_sets == ((0, 2), (1, 2))
    sources = {
        "classify": classify([(3, 0, 1), [9, 4, 0]]).sets,
        "from_one_based": [from_one_based([2, 1, 4])],
        "search_strong_dts": [s for f in search_strong_dts(3, 2, 8) for s in f.sets],
        "_code_input T": one_based.family.sets + zero_based.family.sets,
        "_code_input Z": one_based.z_sets + zero_based.z_sets,
    }
    for name, sets in sources.items():
        assert sets, name
        for s in sets:
            assert type(s) is tuple and all(type(e) is int for e in s), name


class TestFromOneBased:
    def test_basic(self):
        assert from_one_based((1, 5, 10)) == (0, 4, 9)

    def test_singleton(self):
        assert from_one_based((1,)) == (0,)

    def test_large_row(self):
        assert from_one_based((1, 6, 14, 23)) == (0, 5, 13, 22)

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
        families = [fam.sets for fam in search_strong_dts(2, 2, 2)]
        assert ((0, 1), (0, 2)) in families

    def test_minimal_scope_single_set(self):
        families = list(search_strong_dts(1, 2, 1))
        assert len(families) == 1
        assert families[0].sets[0] == (0, 1)

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
        first = list(search_strong_dts(3, 2, 6))
        second = list(search_strong_dts(3, 2, 6))
        assert first == second
        canon = [f.sets for f in first]
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
        (fam.sets, fam.classification, fam.budget)
        for fam in search_strong_dts(r, w, scope)
    ]
    assert found == _brute_force_strong(r, w, scope)


# r = 1..5 at w = 2..5; pools of 72 and 98 candidates (4, 3, 13) and
# (5, 3, 15), of 674 and 802 at (2, 4, 19) and (3, 4, 20), and of 5,646 at
# (2, 5, 26), past the clash cache's bit bound; and empty streams below the
# counting floor r * C(w,2), (4, 3, 11) and (3, 4, 17).
@pytest.mark.parametrize(
    "r, w, scope",
    [
        (1, 2, 6), (3, 2, 8), (4, 2, 10), (5, 2, 11),
        (1, 3, 9), (2, 3, 10), (3, 3, 12), (4, 3, 13), (5, 3, 15), (5, 3, 16),
        (4, 3, 11),
        (1, 4, 11), (2, 4, 15), (2, 4, 19), (3, 4, 20), (3, 4, 17),
        (1, 5, 16), (2, 5, 22), (2, 5, 26),
    ],
)
def test_search_matches_list_pool_reference(r, w, scope):
    def stream(families):
        return [(fam.sets, fam.classification, fam.budget) for fam in families]

    assert stream(search_strong_dts(r, w, scope)) == stream(list_pool_search(r, w, scope))


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
        x = PolyMatrix.from_supports([*supports, (0,)])
        assert self._as_pairs(is_csoc(x).collisions) == want

    def test_three_entries_share_one_difference(self):
        supports = self.CASES["one difference in three entries"]
        assert self._as_pairs(repeated_differences(supports)) == [
            (2, (1, 2)), (2, (1, 3)), (2, (2, 3)),
        ]

    def test_empty_parity_entries(self):
        # A hand-built row may hold zero polynomials; they have no differences.
        supports = [(0, 1), (), (3, 4), (), (0, 2, 4)]
        x = PolyMatrix.from_supports(supports + [(0,)])
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
            x = PolyMatrix.from_supports(supports + [(0,)])
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


def test_first_family_needs_no_memory_beyond_the_candidates():
    # Index rows are built on demand and the clash cache is bounded, so
    # reaching the first family costs little beyond the candidate list.
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    candidates = peak(lambda: _wdts_candidates(5, 40))
    for r in (2, 3):
        assert peak(lambda: next(search_strong_dts(r, 5, 40))) <= 1.2 * candidates, r

"""Difference triangle set combinatorics.

A support set is a finite set of distinct non-negative delay exponents.
For a family of equal-size support sets the classification hierarchy is:

  WDTS         every set's positive pairwise differences are distinct
  DTS          WDTS, and the per-set difference sets are pairwise disjoint
  STRONG       DTS whose differences all fall in {1..M} for a budget M,
               so each admissible difference appears at most once
  FULL_STRONG  STRONG with exact coverage: every value 1..M appears once.
               The r * C(w,2) differences are distinct and lie in 1..M,
               so this holds exactly when M = r * C(w,2); :func:`classify`
               and :func:`search_strong_dts` both decide it by that count.

The canonical internal convention is 0-based exponents (an element t is
the exponent of D^t). Table-style 1-based sets are converted at the I/O
boundary with :func:`from_one_based`.

:func:`repeated_differences` is the one check of the difference
condition: :func:`classify` reads its WDTS/DTS verdicts from it and
``csoc.is_csoc`` reports its collisions, since a systematic row is
self-orthogonal exactly when its parity supports form a DTS.

:func:`search_strong_dts` enumerates strong families with ``int``
difference masks, one generator over an explicit stack of frames, and a
last-level loop that yields each family, classified by the count above.
It builds each immutable :class:`DtsFamily` through the class's slot
descriptors, which skip the Python-level ``__init__`` and its
``object.__setattr__`` call per field.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence

from .gf2poly import Gf2Poly, _Record, _setattr


class DtsClass(enum.IntEnum):
    """Classification levels; each level implies all lower ones."""

    NOT_WDTS = 0
    WDTS = 1
    DTS = 2
    STRONG = 3
    FULL_STRONG = 4

    def __str__(self) -> str:
        return self.name


class SupportSet(_Record):
    """Sorted distinct non-negative delay exponents of one family member."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]) -> None:
        if not elements:
            raise ValueError("support set must be nonempty")
        prev = -1
        for e in elements:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"element {e!r} must be a non-negative integer")
            if e <= prev:
                raise ValueError(f"elements {elements!r} must strictly increase")
            prev = e
        _setattr(self, "elements", elements)

    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SupportSet":
        """Sort ``elements``; a repeated one fails the strictly-increasing check."""
        return cls(tuple(sorted(elements)))

    @property
    def weight(self) -> int:
        return len(self.elements)

    @property
    def scope(self) -> int:
        return self.elements[-1]

    def to_poly(self) -> Gf2Poly:
        return Gf2Poly(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


SupportLike = SupportSet | Sequence[int]


def as_support(value: SupportLike) -> SupportSet:
    if isinstance(value, SupportSet):
        return value
    return SupportSet.from_iterable(value)


def from_one_based(elements: Iterable[int]) -> SupportSet:
    """Convert a 1-based table set to 0-based exponents (subtract 1)."""
    elems = list(elements)
    if any(e == 0 for e in elems):
        raise ValueError("input is already 0-based or malformed")
    return SupportSet.from_iterable(e - 1 for e in elems)


class DifferenceCollision(_Record):
    """A repeated positive difference, with the 1-based entries involved."""

    __slots__ = ("difference", "entries")

    def __init__(self, difference: int, entries: tuple[int, ...]) -> None:
        _setattr(self, "difference", difference)
        _setattr(self, "entries", entries)

    def __str__(self) -> str:
        where = ", ".join(f"entry {e}" for e in self.entries)
        return f"difference {self.difference} repeats ({where})"


def repeated_differences(
    supports: Iterable[Sequence[int]],
) -> tuple[DifferenceCollision, ...]:
    """Every repeated positive difference among increasing supports.

    First, entry by entry, each further occurrence of a difference within
    one support names that entry alone; then, pair by pair, each difference
    two supports share names both. Differences ascend within each group.
    The result is empty exactly when the supports form a DTS; that case
    costs one set over all differences. Empty supports have no differences.
    """
    per_entry = [[b - a for a, b in itertools.combinations(s, 2)] for s in supports]
    flat = [d for diffs in per_entry for d in diffs]
    if len(set(flat)) == len(flat):
        return ()
    collisions = []
    for i, diffs in enumerate(per_entry, 1):
        diffs.sort()
        collisions.extend(
            DifferenceCollision(d, (i,))
            for prev, d in zip(diffs, diffs[1:])
            if d == prev
        )
    distinct = [set(diffs) for diffs in per_entry]
    for (i, a), (j, b) in itertools.combinations(enumerate(distinct, 1), 2):
        collisions.extend(DifferenceCollision(d, (i, j)) for d in sorted(a & b))
    return tuple(collisions)


class DtsFamily(_Record):
    """An ordered family of equal-weight support sets with its verdict.

    ``budget`` is the difference budget M, populated only for STRONG and
    FULL_STRONG verdicts (the tightest valid budget unless an explicit
    one was supplied to :func:`classify`).
    """

    __slots__ = ("sets", "classification", "budget")

    def __init__(
        self, sets: tuple[SupportSet, ...], classification: DtsClass, budget: int | None
    ) -> None:
        _setattr(self, "sets", sets)
        _setattr(self, "classification", classification)
        _setattr(self, "budget", budget)

    @property
    def size(self) -> int:
        return len(self.sets)

    @property
    def weight(self) -> int:
        return self.sets[0].weight

    @property
    def scope(self) -> int:
        return max(s.scope for s in self.sets)

    def __str__(self) -> str:
        return "; ".join(str(s) for s in self.sets)


# search_strong_dts fills DtsFamily's three slots through these descriptors:
# __init__ is a Python call that runs object.__setattr__ per field, which
# cost about as much per family as the rest of the search.
_new = object.__new__
_set_sets = DtsFamily.sets.__set__
_set_classification = DtsFamily.classification.__set__
_set_budget = DtsFamily.budget.__set__


def classify(sets: Iterable[SupportLike], budget: int | None = None) -> DtsFamily:
    """Classify a family, recomputing the verdict from scratch.

    An explicit ``budget`` caps the admissible differences at {1..budget};
    by default the budget is the maximum difference observed. Weight-1
    sets have no differences and classify as WDTS vacuously.
    """
    members = tuple(as_support(s) for s in sets)
    if not members:
        raise ValueError("cannot classify an empty family")
    w = members[0].weight
    if any(s.weight != w for s in members):
        raise ValueError("all sets in a family must share one cardinality")

    collisions = repeated_differences(s.elements for s in members)
    if any(len(c.entries) == 1 for c in collisions):
        return DtsFamily(members, DtsClass.NOT_WDTS, None)
    if w == 1 or collisions:
        return DtsFamily(members, DtsClass.WDTS, None)

    observed = max(s.scope - s.elements[0] for s in members)
    m = observed if budget is None else budget
    if m < observed:
        return DtsFamily(members, DtsClass.DTS, None)

    # The r * C(w,2) differences are distinct and lie in 1..M, so they
    # cover 1..M exactly when there are M of them.
    if len(members) * (w * (w - 1) // 2) == m:
        return DtsFamily(members, DtsClass.FULL_STRONG, m)
    return DtsFamily(members, DtsClass.STRONG, m)


def _wdts_candidates(w: int, max_scope: int) -> list[tuple[SupportSet, int]]:
    """Every normalized w-set with scope <= max_scope and distinct differences.

    Each set comes with its difference mask: bit d is set for every positive
    difference d. A set is dropped as soon as one of its differences repeats.
    """
    out = []
    for combo in itertools.combinations(range(1, max_scope + 1), w - 1):
        elems = (0,) + combo
        mask = 0
        for a, b in itertools.combinations(elems, 2):
            bit = 1 << (b - a)
            if mask & bit:
                break
            mask |= bit
        else:
            out.append((SupportSet(elems), mask))
    return out


def _check_search_args(r: int, w: int, max_scope: int) -> None:
    """Raise ValueError unless :func:`search_strong_dts` accepts the arguments.

    The search is a generator, so it runs these checks only once it is
    first iterated; a caller that may never iterate it calls this first.
    """
    if r < 1:
        raise ValueError("need at least one set")
    if w < 2:
        raise ValueError("search requires weight >= 2")
    if max_scope < w - 1:
        raise ValueError(f"scope {max_scope} cannot hold a {w}-set")


def search_strong_dts(r: int, w: int, max_scope: int) -> Iterator[DtsFamily]:
    """Enumerate every strong family of r normalized w-sets, scope <= max_scope.

    Families are canonical (member sets in lexicographic order, which also
    deduplicates permuted copies) and are yielded in lexicographic order of
    that canonical form. The stream is empty when no family exists. The
    argument checks raise ValueError on the first iteration; a caller that
    may never iterate (a limit of 0) runs :func:`_check_search_args` first.

    The search is one generator over an explicit stack of frames
    ``(pool, next index, chosen, used mask)``: ``pool`` holds the later
    candidates whose difference masks miss ``used``, the union of the
    chosen sets' masks. Once r-1 sets are chosen, a last-level loop runs
    straight over the frame's pool, so each family costs one mask union
    and no generator frame per chosen set. Because every set is
    normalized, the largest difference is the family scope, which is the
    tightest budget M, read off the union mask's top bit. As in
    :func:`classify`, the family is FULL_STRONG iff M = r * C(w,2), the
    count of its distinct differences, so no family calls :func:`classify`.
    Families are built through the slot descriptors, not the
    constructor, because ``__init__`` calls ``object.__setattr__`` once
    per field; each is still an ordinary immutable :class:`DtsFamily`.
    """
    _check_search_args(r, w, max_scope)

    strong, full_strong = DtsClass.STRONG, DtsClass.FULL_STRONG
    perfect = r * (w * (w - 1) // 2)
    last = r - 1
    stack = [(_wdts_candidates(w, max_scope), 0, (), 0)]
    while stack:
        pool, idx, chosen, used = stack.pop()
        if len(chosen) == last:
            for member, mask in pool:
                budget = (used | mask).bit_length() - 1
                family = _new(DtsFamily)
                _set_sets(family, chosen + (member,))
                _set_classification(family, full_strong if budget == perfect else strong)
                _set_budget(family, budget)
                yield family
        elif idx < len(pool):
            member, mask = pool[idx]
            stack.append((pool, idx + 1, chosen, used))
            covered = used | mask
            rest = [c for c in pool[idx + 1:] if not c[1] & covered]
            stack.append((rest, 0, chosen + (member,), covered))

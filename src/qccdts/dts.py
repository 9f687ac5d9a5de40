"""Difference triangle set combinatorics.

A support set is a finite set of distinct non-negative delay exponents,
held as a strictly increasing ``tuple`` of ``int``: the exponent support
of one parity entry, as ``Gf2Poly.support`` holds it. :func:`as_support`
is the one check of that form. For a family of equal-size support sets
the classification hierarchy is:

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
boundary: the catalogue's with :func:`from_one_based`, an input file's
by the CLI parser, which subtracts 1 after its own checks.

:func:`repeated_differences` is the one check of the difference
condition: ``csoc.is_csoc`` reports its collisions, since a systematic
row is self-orthogonal exactly when its parity supports form a DTS, and
``_below_dts`` reads the NOT_WDTS and WDTS verdicts from them, for
:func:`classify` and for ``reflect.verify_pair``, which so takes X's
strength from X's CSOC check.

:func:`search_strong_dts` enumerates strong families, each classified by
the count above, and scans no list of candidates per branch. At weight 2
no two candidate sets {0, d} share a difference, so the families are the
r-combinations of the candidates. At weight 3 and up a pool of candidates
is one ``int`` bitset, and a branch's pool drops the candidates that share
a difference with the chosen set, read from an index of the candidates
holding each difference. It builds each immutable :class:`DtsFamily`
through the class's slot descriptors, which skip the Python-level
``__init__`` and its ``object.__setattr__`` call per field.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence

from .gf2poly import _Record


class DtsClass(enum.IntEnum):
    """Classification levels; each level implies all lower ones."""

    NOT_WDTS = 0
    WDTS = 1
    DTS = 2
    STRONG = 3
    FULL_STRONG = 4

    def __str__(self) -> str:
        return self.name


def as_support(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as a support: sorted distinct non-negative integers.

    The one check of a support set; a repeat fails as not strictly increasing,
    and a ``bool`` is not an integer here, though Python makes it an ``int``.
    Each element is checked before the sort, which could not order a
    ``str`` or ``None`` among integers.
    """
    elements = tuple(values)
    if not elements:
        raise ValueError("support set must be nonempty")
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"element {e!r} must be a non-negative integer")
    elements = tuple(sorted(elements))
    prev = -1
    for e in elements:
        if e <= prev:
            raise ValueError(f"elements {elements!r} must strictly increase")
        prev = e
    return elements


def from_one_based(elements: Iterable[int]) -> tuple[int, ...]:
    """Convert a 1-based table set to 0-based exponents (subtract 1).

    The set is checked as written, before the subtraction.
    """
    elems = as_support(elements)
    if elems[0] == 0:
        raise ValueError("input is already 0-based or malformed")
    return tuple([e - 1 for e in elems])


class DifferenceCollision(_Record):
    """A repeated positive difference, with the 1-based entries involved."""

    __slots__ = ("difference", "entries")

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
    FULL_STRONG verdicts: the family's largest difference, the tightest
    valid budget.
    """

    __slots__ = ("sets", "classification", "budget")

    @property
    def size(self) -> int:
        return len(self.sets)

    @property
    def weight(self) -> int:
        return len(self.sets[0])

    @property
    def scope(self) -> int:
        return max(s[-1] for s in self.sets)


# search_strong_dts fills DtsFamily's three slots through these descriptors:
# __init__ is a Python call that runs object.__setattr__ per field, which
# cost about as much per family as the rest of the search.
_new = object.__new__
_set_sets = DtsFamily.sets.__set__
_set_classification = DtsFamily.classification.__set__
_set_budget = DtsFamily.budget.__set__


def _members(sets: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The sets of a family, each checked by :func:`as_support`, of one weight.

    The input check of :func:`classify`; ``reflect.verify_pair`` runs it on
    X's parity supports, whose verdict it then reads from X's collisions.
    """
    members = tuple(as_support(s) for s in sets)
    if not members:
        raise ValueError("cannot classify an empty family")
    w = len(members[0])
    if any(len(s) != w for s in members):
        raise ValueError("all sets in a family must share one cardinality")
    return members


def _below_dts(
    members: tuple[tuple[int, ...], ...], collisions: Sequence[DifferenceCollision]
) -> DtsClass | None:
    """The verdict of a family that is no DTS with differences, else None.

    ``collisions`` are the family's :func:`repeated_differences`. NOT_WDTS
    when one of them names a single entry, WDTS when the others collide
    or the sets have weight 1 (no differences at all). None means a DTS
    of weight >= 2, which is at least STRONG under any budget from its
    largest difference up, so under :func:`classify`'s budget, that
    largest difference, a family is STRONG (or FULL_STRONG) exactly then.
    """
    if any(len(c.entries) == 1 for c in collisions):
        return DtsClass.NOT_WDTS
    if len(members[0]) == 1 or collisions:
        return DtsClass.WDTS
    return None


def classify(sets: Iterable[Iterable[int]]) -> DtsFamily:
    """Classify a family, recomputing the verdict from scratch.

    The budget M is the largest difference observed, the tightest one, so
    a DTS of weight >= 2 is STRONG at least and no family classifies as
    DTS. Weight-1 sets have no differences and classify as WDTS vacuously.
    """
    members = _members(sets)
    below = _below_dts(members, repeated_differences(members))
    if below is not None:
        return DtsFamily(members, below, None)

    w = len(members[0])
    m = max(s[-1] - s[0] for s in members)
    # The r * C(w,2) differences are distinct and lie in 1..M, so they
    # cover 1..M exactly when there are M of them.
    if len(members) * (w * (w - 1) // 2) == m:
        return DtsFamily(members, DtsClass.FULL_STRONG, m)
    return DtsFamily(members, DtsClass.STRONG, m)


def _wdts_candidates(w: int, max_scope: int) -> list[tuple[tuple[int, ...], int]]:
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
            out.append((elems, mask))
    return out


# _BIT_CHARS[k] maps a byte to b"1" when its bit k is set, else to b"0".
_BIT_CHARS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))

# search_strong_dts caches the clash of a candidate at a bit below this one
# only: the cache then holds at most _CACHED_BITS**2 / 2 bits (1 MiB) at any
# pool size, and caches every clash of a pool of fewer candidates.
_CACHED_BITS = 1 << 12


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

    At w = 2 each candidate {0, d} has the one difference d, so no two
    candidates clash and the strong families are the r-combinations of the
    candidates, in order; the last set's d is the budget.

    At w >= 3 a pool is one ``int`` bitset over the candidates of
    :func:`_wdts_candidates`, candidate i at bit n-1-i, so a pool's next
    candidate is its top bit. The search is one generator over an explicit
    stack of frames ``(pool, chosen, used mask)``. Branching on the next
    candidate leaves its sibling frame, the pool without it (``rest``), and
    a child frame whose pool is ``rest & ~clash``: ``clash`` is the union
    of the index rows of the candidate's differences, cut to the later
    candidates. Row d, the candidates holding difference d, is built when
    first needed, from one strided slice of the candidates' difference
    masks packed as bytes. The clash of a candidate below bit
    ``_CACHED_BITS`` is kept, one mask per candidate cut to the later ones,
    so the cache never holds more than about 1 MiB. A frame whose pool
    holds fewer candidates than the sets still needed is dropped unread.
    Once r-1 sets are chosen, a last-level loop reads the pool's bits in
    descending order, so each family costs one mask union and no frame.

    Because every set is normalized, the largest difference is the family
    scope, which is the tightest budget M. As in :func:`classify`, the
    family is FULL_STRONG iff M = r * C(w,2), the count of its distinct
    differences, so no family calls :func:`classify`. A family's sets are
    the candidates' own tuples, so a stream holds one object per distinct
    set. Families are built through the slot descriptors, not the
    constructor, because ``__init__`` calls ``object.__setattr__`` once per
    field; each is still an ordinary immutable :class:`DtsFamily`.
    """
    _check_search_args(r, w, max_scope)

    strong, full_strong = DtsClass.STRONG, DtsClass.FULL_STRONG
    perfect = r * (w * (w - 1) // 2)
    if w == 2:
        cands = [(0, d) for d in range(1, max_scope + 1)]
        for sets in itertools.combinations(cands, r):
            budget = sets[-1][1]
            family = _new(DtsFamily)
            _set_sets(family, sets)
            _set_classification(family, full_strong if budget == perfect else strong)
            _set_budget(family, budget)
            yield family
        return

    # by_bit[b] is the candidate at bit b: the candidates in reverse order.
    by_bit = _wdts_candidates(w, max_scope)
    by_bit.reverse()
    # The difference masks as width-byte big-endian words in candidate
    # order: the bytes holding difference d are one strided slice.
    width = max_scope // 8 + 1
    packed = bytearray()
    for _, mask in reversed(by_bit):
        packed += mask.to_bytes(width, "big")
    rows: dict[int, int] = {}
    clashes: dict[int, int] = {}
    last = r - 1
    stack = [((1 << len(by_bit)) - 1, (), 0)]
    while stack:
        pool, chosen, used = stack.pop()
        if pool.bit_count() < r - len(chosen):
            continue
        if len(chosen) == last:
            while pool:
                top = pool.bit_length() - 1
                pool ^= 1 << top
                member, mask = by_bit[top]
                budget = (used | mask).bit_length() - 1
                family = _new(DtsFamily)
                _set_sets(family, chosen + (member,))
                _set_classification(family, full_strong if budget == perfect else strong)
                _set_budget(family, budget)
                yield family
            continue
        top = pool.bit_length() - 1
        rest = pool ^ (1 << top)
        member, mask = by_bit[top]
        clash = clashes.get(top)
        if clash is None:
            clash = 0
            for a, b in itertools.combinations(member, 2):
                d = b - a
                row = rows.get(d)
                if row is None:
                    column = packed[width - 1 - (d >> 3)::width]
                    row = rows[d] = int(column.translate(_BIT_CHARS[d & 7]), 2)
                clash |= row
            clash &= (1 << top) - 1
            if top < _CACHED_BITS:
                clashes[top] = clash
        stack.append((rest, chosen, used))
        stack.append((rest & ~clash, chosen + (member,), used | mask))

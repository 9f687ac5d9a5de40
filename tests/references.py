"""Support-set references the tests compare the library against.

No command needs these, so they live with the tests. They use no numpy
(unlike ``dense_arrays``): family reflection goes through
``Gf2Poly.reverse``, the library's one reflection, the differences are
counted outright, and the strong-family search filters list pools.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import Sequence

from qccdts import DtsClass, DtsFamily, Gf2Poly, classify
from qccdts.dts import (
    _check_search_args,
    _new,
    _set_budget,
    _set_classification,
    _set_sets,
    _wdts_candidates,
)


def positive_differences(t: Sequence[int]) -> tuple[int, ...]:
    """All C(w,2) pairwise positive differences, with multiplicity, sorted."""
    return tuple(sorted(b - a for a, b in itertools.combinations(sorted(t), 2)))


def reflect_family(family: DtsFamily) -> DtsFamily:
    """Reflect every member set about the family scope, keeping its order.

    The result is re-classified from scratch, carrying any explicit
    budget through, so it keeps the original difference spectrum, scope
    and classification. With the identity pi its sets are the parity
    supports of ``build_z``.
    """
    return classify(
        [Gf2Poly(s).reverse(family.scope).support for s in family.sets],
        budget=family.budget,
    )


def list_pool_search(r: int, w: int, max_scope: int) -> Iterator[DtsFamily]:
    """``search_strong_dts`` as list pools: the stream the engine must match.

    One generator over an explicit stack of frames ``(pool, next index,
    chosen, used mask)``: ``pool`` holds the later candidates whose
    difference masks miss ``used``, the union of the chosen sets' masks,
    and each branch filters its pool into a new list. Once r-1 sets are
    chosen, a last-level loop runs straight over the frame's pool. The
    budget is the union mask's top bit, and the family is FULL_STRONG iff
    it equals r * C(w,2).
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

"""Support-set references the tests compare the library against.

No command needs these, so they live with the tests. They use no numpy
(unlike ``dense_arrays``): family reflection goes through
``Gf2Poly.reverse``, the library's one reflection, and the differences
are counted outright.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from qccdts import DtsFamily, Gf2Poly, classify


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

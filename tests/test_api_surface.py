"""The package's public names, pinned so any change shows as a one-line diff."""

from __future__ import annotations

import collections

import qccdts

PUBLIC_NAMES = [
    "CsocReport",
    "D",
    "DifferenceCollision",
    "DistanceCertificate",
    "DtsClass",
    "DtsFamily",
    "Gf2Poly",
    "Method",
    "NEG_INF",
    "NonStrongFamilyWarning",
    "ONE",
    "PolyMatrix",
    "ReflectionSymmetryReport",
    "SupportSet",
    "SymplecticReport",
    "TABLE_ROWS",
    "TableRow",
    "VerifyReport",
    "ZERO",
    "block_toeplitz",
    "build_systematic_x",
    "build_z",
    "certify_dfree",
    "check_reflection_symmetry",
    "classify",
    "coefficient_matrix",
    "column_distance",
    "dfree_exact",
    "dfree_upper",
    "from_one_based",
    "is_commuting",
    "is_csoc",
    "mat_mul_transpose",
    "memory",
    "parity_supports",
    "poly_add",
    "poly_mul",
    "poly_reverse",
    "positive_differences",
    "reflect_family",
    "rows_for",
    "search_strong_dts",
    "sum_index_matrix",
    "symplectic_sum",
    "validate_tables",
    "verify_pair",
]


def test_all_is_pinned():
    assert sorted(qccdts.__all__) == PUBLIC_NAMES


def test_all_has_no_duplicates():
    repeated = [n for n, c in collections.Counter(qccdts.__all__).items() if c > 1]
    assert repeated == []


def test_every_name_resolves():
    missing = [name for name in qccdts.__all__ if not hasattr(qccdts, name)]
    assert missing == []

"""Quantum convolutional stabilizer pairs from difference triangle sets.

Build a systematic self-orthogonal parity row X(D) from the supports of
a strong difference triangle set, reflect the supports to obtain the
companion Z(D), and machine-certify the construction: DTS structure,
self-orthogonality, memory, symplectic commutation and free distance.
Each of X and Z is a ``PolyMatrix``, whose value is its one row of
``Gf2Poly`` polynomials, ``x.row``.
"""

__version__ = "0.1.0"

from .csoc import (
    CsocReport,
    build_systematic_x,
    is_csoc,
    memory,
    parity_supports,
)
from .distance import (
    DistanceCertificate,
    Method,
    certify_dfree,
    column_distance,
    dfree_exact,
    dfree_upper,
)
from .dts import (
    DifferenceCollision,
    DtsClass,
    DtsFamily,
    classify,
    from_one_based,
    search_strong_dts,
)
from .gf2poly import (
    ONE,
    ZERO,
    D,
    Gf2Poly,
    PolyMatrix,
)
from .reflect import (
    VerifyReport,
    build_z,
    verify_pair,
)
from .symplectic import (
    ReflectionSymmetryReport,
    SymplecticReport,
    check_reflection_symmetry,
    is_commuting,
    sum_index_matrix,
    symplectic_sum,
)
from .tables import TABLE_ROWS, TableRow, rows_for, validate_tables

__all__ = [
    "CsocReport",
    "D",
    "DifferenceCollision",
    "DistanceCertificate",
    "DtsClass",
    "DtsFamily",
    "Gf2Poly",
    "Method",
    "ONE",
    "PolyMatrix",
    "ReflectionSymmetryReport",
    "SymplecticReport",
    "TABLE_ROWS",
    "TableRow",
    "VerifyReport",
    "ZERO",
    "build_systematic_x",
    "build_z",
    "certify_dfree",
    "check_reflection_symmetry",
    "classify",
    "column_distance",
    "dfree_exact",
    "dfree_upper",
    "from_one_based",
    "is_commuting",
    "is_csoc",
    "memory",
    "parity_supports",
    "rows_for",
    "search_strong_dts",
    "sum_index_matrix",
    "symplectic_sum",
    "validate_tables",
    "verify_pair",
]

"""Built-in catalogue of constructed stabilizer pairs.

Fourteen rows across three rate families (1/3, 2/4, 3/5). Each row
stores the X and Z support families in both the 1-based set convention
and the 0-based exponent convention; ``validate_tables`` cross-checks
the two transcriptions against each other so neither column has to be
trusted alone.

The rate-3/5 catalogue's final row lists 4-element supports, so its
entry weight is 4 even though the original listing labels it 3; the
stored ``w`` is the actual cardinality, which every weight-dependent
check relies on.
"""

from __future__ import annotations

from .dts import from_one_based
from .gf2poly import _Record, _setattr

Sets = tuple[tuple[int, ...], ...]


class TableRow(_Record):
    """One catalogue row: its X and Z supports in both conventions.

    ``t_sets`` and ``z_sets`` are the 1-based X and Z supports, ``g_x``
    and ``g_z`` the 0-based X and Z exponents.
    """

    __slots__ = (
        "table_id", "row_no", "rate_label", "m", "w", "t_sets", "z_sets", "g_x", "g_z",
    )

    def __init__(
        self, table_id: int, row_no: int, rate_label: str, m: int, w: int,
        t_sets: Sets, z_sets: Sets, g_x: Sets, g_z: Sets,
    ) -> None:
        _setattr(self, "table_id", table_id)
        _setattr(self, "row_no", row_no)
        _setattr(self, "rate_label", rate_label)
        _setattr(self, "m", m)
        _setattr(self, "w", w)
        _setattr(self, "t_sets", t_sets)
        _setattr(self, "z_sets", z_sets)
        _setattr(self, "g_x", g_x)
        _setattr(self, "g_z", g_z)


TABLE_ROWS: tuple[TableRow, ...] = (
    TableRow(
        1, 1, "1/3", 2, 2,
        ((1, 2), (1, 3)),
        ((1, 3), (2, 3)),
        ((0, 1), (0, 2)),
        ((0, 2), (1, 2)),
    ),
    TableRow(
        1, 2, "1/3", 3, 2,
        ((1, 2), (1, 4)),
        ((1, 4), (3, 4)),
        ((0, 1), (0, 3)),
        ((0, 3), (2, 3)),
    ),
    TableRow(
        1, 3, "1/3", 9, 3,
        ((1, 2, 4), (1, 5, 10)),
        ((1, 6, 10), (7, 9, 10)),
        ((0, 1, 3), (0, 4, 9)),
        ((0, 5, 9), (6, 8, 9)),
    ),
    TableRow(
        1, 4, "1/3", 10, 3,
        ((1, 2, 4), (1, 5, 11)),
        ((1, 7, 11), (8, 10, 11)),
        ((0, 1, 3), (0, 4, 10)),
        ((0, 6, 10), (7, 9, 10)),
    ),
    TableRow(
        1, 5, "1/3", 22, 4,
        ((1, 2, 4, 8), (1, 6, 14, 23)),
        ((1, 10, 18, 23), (16, 20, 22, 23)),
        ((0, 1, 3, 7), (0, 5, 13, 22)),
        ((0, 9, 17, 22), (15, 19, 21, 22)),
    ),
    TableRow(
        2, 1, "2/4", 5, 2,
        ((1, 2), (1, 3), (1, 6)),
        ((4, 6), (5, 6), (1, 6)),
        ((0, 1), (0, 2), (0, 5)),
        ((3, 5), (4, 5), (0, 5)),
    ),
    TableRow(
        2, 2, "2/4", 6, 2,
        ((1, 2), (1, 3), (1, 7)),
        ((5, 7), (6, 7), (1, 7)),
        ((0, 1), (0, 2), (0, 6)),
        ((4, 6), (5, 6), (0, 6)),
    ),
    TableRow(
        2, 3, "2/4", 7, 2,
        ((1, 2), (1, 3), (1, 8)),
        ((6, 8), (7, 8), (1, 8)),
        ((0, 1), (0, 2), (0, 7)),
        ((5, 7), (6, 7), (0, 7)),
    ),
    TableRow(
        2, 4, "2/4", 8, 2,
        ((1, 2), (1, 3), (1, 9)),
        ((7, 9), (8, 9), (1, 9)),
        ((0, 1), (0, 2), (0, 8)),
        ((6, 8), (7, 8), (0, 8)),
    ),
    TableRow(
        2, 5, "2/4", 9, 2,
        ((1, 2), (1, 3), (1, 10)),
        ((8, 10), (9, 10), (1, 10)),
        ((0, 1), (0, 2), (0, 9)),
        ((7, 9), (8, 9), (0, 9)),
    ),
    TableRow(
        3, 1, "3/5", 18, 3,
        ((1, 2, 4), (1, 5, 10), (1, 7, 14), (1, 9, 19)),
        ((10, 15, 19), (16, 18, 19), (1, 11, 19), (6, 13, 19)),
        ((0, 1, 3), (0, 4, 9), (0, 6, 13), (0, 8, 18)),
        ((9, 14, 18), (15, 17, 18), (0, 10, 18), (5, 12, 18)),
    ),
    TableRow(
        3, 2, "3/5", 19, 3,
        ((1, 2, 4), (1, 5, 10), (1, 7, 14), (1, 9, 20)),
        ((11, 16, 20), (17, 19, 20), (1, 12, 20), (7, 14, 20)),
        ((0, 1, 3), (0, 4, 9), (0, 6, 13), (0, 8, 19)),
        ((10, 15, 19), (16, 18, 19), (0, 11, 19), (6, 13, 19)),
    ),
    TableRow(
        3, 3, "3/5", 39, 4,
        ((1, 2, 4, 8), (1, 6, 14, 24), (1, 10, 25, 39), (1, 12, 28, 40)),
        ((17, 27, 35, 40), (33, 37, 39, 40), (1, 13, 29, 40), (2, 16, 31, 40)),
        ((0, 1, 3, 7), (0, 5, 13, 23), (0, 9, 24, 38), (0, 11, 27, 39)),
        ((16, 26, 34, 39), (32, 36, 38, 39), (0, 12, 28, 39), (1, 15, 30, 39)),
    ),
    TableRow(
        3, 4, "3/5", 39, 4,
        ((1, 2, 4, 8), (1, 6, 14, 24), (1, 10, 25, 39), (1, 13, 29, 40)),
        ((17, 27, 35, 40), (33, 37, 39, 40), (1, 12, 28, 40), (2, 16, 31, 40)),
        ((0, 1, 3, 7), (0, 5, 13, 23), (0, 9, 24, 38), (0, 12, 28, 39)),
        ((16, 26, 34, 39), (32, 36, 38, 39), (0, 11, 27, 39), (1, 15, 30, 39)),
    ),
)


def validate_tables() -> None:
    """Cross-check the 1-based and 0-based transcriptions of every row."""
    for row in TABLE_ROWS:
        for one_based, zero_based, label in (
            (row.t_sets, row.g_x, "X"),
            (row.z_sets, row.g_z, "Z"),
        ):
            converted = tuple(from_one_based(s) for s in one_based)
            if converted != zero_based:
                raise AssertionError(
                    f"table {row.table_id} row {row.row_no}: {label} sets "
                    f"disagree between conventions: {converted} vs {zero_based}"
                )
        if max(max(s) for s in row.g_x) != row.m:
            raise AssertionError(
                f"table {row.table_id} row {row.row_no}: stored m={row.m} "
                "does not match the maximum X exponent"
            )
        cards = {len(s) for s in row.g_x} | {len(s) for s in row.g_z}
        if cards != {row.w}:
            raise AssertionError(
                f"table {row.table_id} row {row.row_no}: stored w={row.w} "
                f"does not match set cardinalities {cards}"
            )


def rows_for(table: int | None = None, row: int | None = None) -> list[TableRow]:
    return [
        r
        for r in TABLE_ROWS
        if (table is None or r.table_id == table)
        and (row is None or r.row_no == row)
    ]

from __future__ import annotations

import pytest

from qccdts import (
    DtsClass,
    PolyMatrix,
    build_systematic_x,
    certify_dfree,
    classify,
    from_one_based,
    is_commuting,
    is_csoc,
    memory,
)
from qccdts.tables import TABLE_ROWS, TableRow, rows_for, validate_tables

from references import reflect_family


def _x_of(row) -> PolyMatrix:
    return PolyMatrix.from_supports([list(row.g_x) + [(0,)]])


def _z_of(row) -> PolyMatrix:
    return PolyMatrix.from_supports([list(row.g_z) + [(0,)]])


def test_catalogue_shape():
    assert len(TABLE_ROWS) == 14
    assert len(rows_for(table=1)) == 5
    assert len(rows_for(table=2)) == 5
    assert len(rows_for(table=3)) == 4
    assert {r.rate_label for r in rows_for(table=1)} == {"1/3"}
    assert {r.rate_label for r in rows_for(table=2)} == {"2/4"}
    assert {r.rate_label for r in rows_for(table=3)} == {"3/5"}


def test_cross_transcription_validates():
    validate_tables()


def test_tampered_row_detected(monkeypatch):
    import qccdts.tables as tables_mod

    row = TABLE_ROWS[0]
    bad = TableRow(
        row.table_id, row.row_no, row.rate_label, 3, row.w,
        row.t_sets, row.z_sets, row.g_x, row.g_z,
    )
    monkeypatch.setattr(tables_mod, "TABLE_ROWS", (bad,) + TABLE_ROWS[1:])
    with pytest.raises(AssertionError, match="stored m"):
        tables_mod.validate_tables()


@pytest.mark.parametrize(
    "row", TABLE_ROWS, ids=lambda r: f"t{r.table_id}r{r.row_no}"
)
class TestPerRow:
    def test_family_is_strong(self, row):
        fam = classify([from_one_based(s) for s in row.t_sets])
        assert fam.classification >= DtsClass.STRONG
        assert fam.weight == row.w

    def test_memory_matches(self, row):
        fam = classify(list(row.g_x))
        assert memory(build_systematic_x(fam)) == row.m

    def test_reflection_reproduces_z_family(self, row):
        fam = classify(list(row.g_x))
        reflected = reflect_family(fam)
        assert sorted(s.elements for s in reflected.sets) == sorted(
            tuple(s) for s in row.g_z
        )

    def test_both_sides_self_orthogonal(self, row):
        assert is_csoc(_x_of(row)).ok
        assert is_csoc(_z_of(row)).ok

    def test_pair_commutes(self, row):
        report = is_commuting(_x_of(row), _z_of(row))
        assert report.commuting, report.violations

    def test_distance_certificate(self, row):
        cert = certify_dfree(_x_of(row))
        assert cert.d_free == row.w + 1
        if row.m <= 12:
            assert cert.search_budget == row.w + 1
        else:
            assert cert.search_budget is None


def test_z_column_weights_match_w():
    for row in TABLE_ROWS:
        assert all(len(s) == row.w for s in row.g_x)
        assert all(len(s) == row.w for s in row.g_z)

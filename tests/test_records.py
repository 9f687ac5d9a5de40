"""The value semantics of the package's twelve record classes, pinned.

Each record compares equal to a twin built the same way and hashes as
the tuple of its field values; its repr is ``Name(field=value, ...)``
(``Gf2Poly`` keeps its own short form); it has fixed slots and no
``__dict__``; every class but ``CodeInput`` refuses to assign or delete
a field; and ``copy.deepcopy`` and ``pickle`` give back an equal value.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from qccdts import (
    TABLE_ROWS,
    DifferenceCollision,
    Gf2Poly,
    PolyMatrix,
    SupportSet,
    TableRow,
    build_z,
    certify_dfree,
    check_reflection_symmetry,
    classify,
    is_commuting,
    is_csoc,
    verify_pair,
)
from qccdts.cli import _code_input


def _x() -> PolyMatrix:
    return PolyMatrix.from_supports([[(0, 1), (0, 2), (0,)]])


def _values(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


# name -> (factory, repr); each factory builds a fresh value on every call.
RECORDS = {
    "Gf2Poly": (
        lambda: Gf2Poly((0, 1, 3)),
        "Gf2Poly('1+D+D^3')",
    ),
    "PolyMatrix": (
        _x,
        "PolyMatrix(entries=((Gf2Poly('1+D'), Gf2Poly('1+D^2'), Gf2Poly('1')),))",
    ),
    "SupportSet": (
        lambda: SupportSet((0, 1, 3)),
        "SupportSet(elements=(0, 1, 3))",
    ),
    "DifferenceCollision": (
        lambda: DifferenceCollision(2, (1, 2)),
        "DifferenceCollision(difference=2, entries=(1, 2))",
    ),
    "DtsFamily": (
        lambda: classify([(0, 1), (0, 2)]),
        "DtsFamily(sets=(SupportSet(elements=(0, 1)), SupportSet(elements=(0, 2))),"
        " classification=<DtsClass.FULL_STRONG: 4>, budget=2)",
    ),
    "CsocReport": (
        lambda: is_csoc(PolyMatrix.from_supports([[(0, 1), (0, 1, 2), (0,)]])),
        "CsocReport(ok=False, collisions=(DifferenceCollision(difference=1,"
        " entries=(2,)), DifferenceCollision(difference=1, entries=(1, 2))))",
    ),
    "DistanceCertificate": (
        lambda: certify_dfree(_x()),
        "DistanceCertificate(d_free=3, method=<Method.CSOC_CERTIFICATE:"
        " 'csoc_certificate'>, witness=((0, (1, 0, 1)), (1, (0, 0, 1))),"
        " search_budget=3)",
    ),
    "SymplecticReport": (
        lambda: is_commuting(_x(), build_z(_x())),
        "SymplecticReport(commuting=False, violations=((-2, 1, 1), (2, 1, 1)))",
    ),
    "ReflectionSymmetryReport": (
        lambda: check_reflection_symmetry(
            PolyMatrix.from_supports([[(0, 1), (0, 3), (0,)]])
        ),
        "ReflectionSymmetryReport(ok=False, counterexample=(2, 1, 1))",
    ),
    "VerifyReport": (
        lambda: verify_pair(_x(), build_z(_x(), (2, 1)), expect_m=2, expect_w=2),
        "VerifyReport(checks={'strong_dts': True, 'csoc_x': True, 'csoc_z': True,"
        " 'memory': True, 'commuting': True, 'a7_symmetry': True, 'dfree': True},"
        " violations=(), memory_x=2, memory_z=2,"
        " certificate=DistanceCertificate(d_free=3, method=<Method.CSOC_CERTIFICATE:"
        " 'csoc_certificate'>, witness=((0, (1, 0, 1)), (1, (0, 0, 1))),"
        " search_budget=3))",
    ),
    "TableRow": (
        lambda: TableRow(*_values(TABLE_ROWS[0])),
        "TableRow(table_id=1, row_no=1, rate_label='1/3', m=2, w=2,"
        " t_sets=((1, 2), (1, 3)), z_sets=((1, 3), (2, 3)), g_x=((0, 1), (0, 2)),"
        " g_z=((0, 2), (1, 2)))",
    ),
    "CodeInput": (
        lambda: _code_input(
            {"T": [[1, 2], [1, 2]], "Z": [[1, 3], [2, 3]], "pi": [2, 1], "m": 2},
            None,
        ),
        "CodeInput(family=DtsFamily(sets=(SupportSet(elements=(0, 1)),"
        " SupportSet(elements=(0, 1))), classification=<DtsClass.WDTS: 1>,"
        " budget=None), z_sets=[SupportSet(elements=(0, 2)),"
        " SupportSet(elements=(1, 2))], pi=(2, 1), expected_m=2, expected_w=None,"
        " notes=['family classifies as WDTS, not STRONG; self-orthogonality and"
        " distance guarantees lapse'])",
    ),
}

# CodeInput holds lists and stays mutable, and VerifyReport holds a dict:
# neither can be hashed.
UNHASHABLE = {"CodeInput", "VerifyReport"}
MUTABLE = {"CodeInput"}


@pytest.fixture(params=sorted(RECORDS), ids=str)
def record(request):
    factory, expected_repr = RECORDS[request.param]
    return request.param, factory, expected_repr


def test_every_record_class_is_covered():
    assert len(RECORDS) == 12


def test_twin_compares_and_hashes_equal(record):
    name, factory, _ = record
    a, b = factory(), factory()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a.__eq__(_values(a)) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_values(a))


def test_repr_is_pinned(record):
    _, factory, expected_repr = record
    assert repr(factory()) == expected_repr


def test_fields_are_fixed_slots(record):
    name, factory, _ = record
    value = factory()
    assert not hasattr(value, "__dict__")
    for field in type(value).__slots__:
        before = getattr(value, field)
        if name in MUTABLE:
            setattr(value, field, None)
            assert getattr(value, field) is None
            setattr(value, field, before)
            continue
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def test_deepcopy_and_pickle_round_trip(record):
    _, factory, expected_repr = record
    value = factory()
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == expected_repr

"""The value semantics of the package's record classes, pinned.

Each record compares equal to a twin built the same way and hashes as
the tuple of its field values; its repr is ``Name(field=value, ...)``
(``Gf2Poly`` keeps its own short form); it has fixed slots and no
``__dict__``; every class refuses to assign or delete a field; and ``copy.deepcopy`` and ``pickle`` give back an equal value.
A slot named with a leading ``_`` is a cache, not a field: a row whose
facts were read is still equal to, hashes and prints as, and copies like
a fresh twin. Every record but ``Gf2Poly`` and ``PolyMatrix``, which
check their inputs, takes its fields in slot order through the
``__init__`` that ``_Record`` writes for it.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from qccdts import (
    TABLE_ROWS,
    DifferenceCollision,
    Gf2Poly,
    PolyMatrix,
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
from qccdts.csoc import memory, parity_supports
from qccdts.distance import _causal_supports
from qccdts.gf2poly import _Record
from qccdts.symplectic import _odd_delays


def _x() -> PolyMatrix:
    return PolyMatrix.from_supports([(0, 1), (0, 2), (0,)])


def _fields(cls) -> tuple[str, ...]:
    return tuple(name for name in cls.__slots__ if not name.startswith("_"))


def _values(value) -> tuple:
    return tuple(getattr(value, name) for name in _fields(type(value)))


# name -> (factory, repr); each factory builds a fresh value on every call.
RECORDS = {
    "Gf2Poly": (
        lambda: Gf2Poly((0, 1, 3)),
        "Gf2Poly('1+D+D^3')",
    ),
    "PolyMatrix": (
        _x,
        "PolyMatrix(row=(Gf2Poly('1+D'), Gf2Poly('1+D^2'), Gf2Poly('1')))",
    ),
    "DifferenceCollision": (
        lambda: DifferenceCollision(2, (1, 2)),
        "DifferenceCollision(difference=2, entries=(1, 2))",
    ),
    "DtsFamily": (
        lambda: classify([(0, 1), (0, 2)]),
        "DtsFamily(sets=((0, 1), (0, 2)), classification=<DtsClass.FULL_STRONG: 4>,"
        " budget=2)",
    ),
    "CsocReport": (
        lambda: is_csoc(PolyMatrix.from_supports([(0, 1), (0, 1, 2), (0,)])),
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
            PolyMatrix.from_supports([(0, 1), (0, 3), (0,)])
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
        "CodeInput(family=DtsFamily(sets=((0, 1), (0, 1)),"
        " classification=<DtsClass.WDTS: 1>, budget=None), z_sets=((0, 2), (1, 2)),"
        " pi=(2, 1), expected_m=2, expected_w=None,"
        " notes=('family classifies as WDTS, not STRONG; self-orthogonality and"
        " distance guarantees lapse',))",
    ),
}

# VerifyReport holds a dict, so it cannot be hashed.
UNHASHABLE = {"VerifyReport"}

# The records that check their inputs in an __init__ of their own.
CHECKING = {"Gf2Poly", "PolyMatrix"}


@pytest.fixture(params=sorted(RECORDS), ids=str)
def record(request):
    factory, expected_repr = RECORDS[request.param]
    return request.param, factory, expected_repr


def test_every_record_class_is_covered():
    assert sorted(cls.__qualname__ for cls in _Record.__subclasses__()) == sorted(RECORDS)


def test_only_the_checking_records_write_their_own_init():
    for cls in _Record.__subclasses__():
        filename = cls.__init__.__code__.co_filename
        written = filename == f"<{cls.__qualname__}.__init__>"
        assert written is (cls.__qualname__ not in CHECKING), filename


@pytest.mark.parametrize("name", sorted(set(RECORDS) - CHECKING))
def test_written_init_takes_the_fields_in_slot_order(name):
    value = RECORDS[name][0]()
    cls, values = type(value), _values(value)
    assert tuple(inspect.signature(cls).parameters) == cls._fields == _fields(cls)
    assert cls.__init__.__qualname__ == f"{name}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    assert cls(*values) == value
    assert cls(**dict(zip(cls._fields, values))) == value
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes"):
        cls(*values, None)


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
    _, factory, _ = record
    value = factory()
    assert not hasattr(value, "__dict__")
    for field in type(value).__slots__:
        before = getattr(value, field)
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


def test_row_facts_are_caches_not_fields():
    read, fresh = _x(), _x()
    facts = (parity_supports, memory, is_csoc, _causal_supports, _odd_delays)
    for fact in facts:
        fact(read)
    caches = [name for name in PolyMatrix.__slots__ if name.startswith("_")]
    assert len(caches) == len(facts)
    assert all(getattr(read, name) is not None for name in caches)
    assert all(getattr(fresh, name) is None for name in caches)
    assert read == fresh and hash(read) == hash(fresh) == hash(_values(fresh))
    assert repr(read) == repr(fresh) == RECORDS["PolyMatrix"][1]
    for twin in (
        copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))
    ):
        assert type(twin) is PolyMatrix and twin is not read
        assert twin == read and hash(twin) == hash(read)
        assert all(getattr(twin, name) is None for name in caches)
        assert [fact(twin) for fact in facts] == [fact(read) for fact in facts]
    for name in caches:
        before = getattr(read, name)
        with pytest.raises(AttributeError):
            setattr(read, name, None)
        with pytest.raises(AttributeError):
            delattr(read, name)
        assert getattr(read, name) is before

"""Binary Laurent polynomials in the delay operator D, and rows of them.

A polynomial is stored sparsely as its exponent support: a strictly
increasing tuple of integers, each carrying coefficient 1 over GF(2).
Negative exponents are allowed (Laurent terms); the zero polynomial has
empty support and no degree. A generator X(D) or Z(D) is a
:class:`PolyMatrix`, whose value is its one row of polynomials,
``x.row``. All values are immutable and all operations are pure, so
they are safe to share across threads. A row also keeps what the other
modules derive from it, in cache slots of its own (see
:class:`PolyMatrix`).

The textual form used everywhere (CLI output, golden files) is
``1+D+D^3``: terms ascend, exponent 0 prints as ``1``, exponent 1 as
``D``, and every other exponent as ``D^k``. Rendering is byte-stable.
It is an output format only: inputs arrive as exponent supports, and
nothing parses the text back.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from contextlib import suppress

_setattr = object.__setattr__

# The one exponent type Gf2Poly.from_exponents folds.
_INT_ONLY = frozenset((int,))


class _Record:
    """Base of the package's immutable value classes.

    A subclass writes only ``__slots__``, naming its fields in order; unless
    it defines its own ``__init__``, the base writes one that takes the
    fields in that order and stores each. A record compares equal to a
    value of the same class with equal fields, hashes as the tuple of its
    field values, prints as ``Name(field=value, ...)``, and refuses to
    assign or delete a field. ``copy`` and ``pickle`` rebuild it through
    ``__init__``, so a copy passes the same checks.

    A slot whose name starts with ``_`` is a cache, not a field: equality,
    hashing, the repr and ``copy``/``pickle`` leave it out, so a copy
    starts with its caches empty.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple([n for n in cls.__slots__ if not n.startswith("_")])
        if "__init__" not in cls.__dict__:
            cls.__init__ = _written_init(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


def _written_init(cls: type):
    """A record's ``__init__(self, <fields>)``, one ``_setattr`` per field."""
    fields = cls._fields
    stores = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in fields)
    source = f"def __init__(self, {', '.join(fields)}):{stores}\n"
    qualname = f"{cls.__qualname__}.__init__"
    namespace = {"_setattr": _setattr}
    exec(compile(source, f"<{qualname}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__, init.__module__ = qualname, cls.__module__
    return init


class Gf2Poly(_Record):
    """A binary Laurent polynomial, represented by its exponent support."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[int] = ()) -> None:
        support = tuple(support)
        prev = None
        for e in support:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"exponent {e!r} is not an integer")
            if prev is not None and e <= prev:
                raise ValueError(f"support {support!r} must be strictly increasing")
            prev = e
        _setattr(self, "support", support)

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "Gf2Poly":
        """Build a polynomial from exponents, folding duplicates mod 2.

        Every exponent must be an ``int`` itself, checked before the fold:
        folding compares by equality, so ``True`` would cancel a 1, ``2.0``
        a 2, and a pair of equal strings each other, with no error. The
        check is one C-level pass, which stops at the first other type.
        The error names the least offending exponent, or the first when
        they do not sort.
        """
        exponents = list(exponents)
        if not _INT_ONLY.issuperset(map(type, exponents)):
            # Name the least, as the constructor would on a sorted support.
            bad = [e for e in exponents if type(e) is not int]
            with suppress(TypeError):
                bad.sort()
            raise ValueError(f"exponent {bad[0]!r} is not an integer")
        counts = Counter(exponents)
        return cls(sorted([e for e, c in counts.items() if c % 2]))

    @property
    def degree(self) -> int:
        """Largest exponent; the zero polynomial has none."""
        if not self.support:
            raise ValueError("degree of the zero polynomial is undefined")
        return self.support[-1]

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return len(self.support)

    def is_zero(self) -> bool:
        return not self.support

    def __bool__(self) -> bool:
        return bool(self.support)

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        # Characteristic 2: addition is the symmetric difference of supports.
        return Gf2Poly(tuple(sorted(set(self.support) ^ set(other.support))))

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly.from_exponents(a + b for a in self.support for b in other.support)

    def reverse(self, window: int) -> "Gf2Poly":
        """Reverse within the degree window [0, window]: a -> window - a.

        Applying twice with the same window is the identity. Exponents
        outside the window are rejected rather than wrapped or clipped.
        """
        for e in self.support:
            if e < 0 or e > window:
                raise ValueError(
                    f"reversal window violated: exponent {e} outside [0, {window}]"
                )
        return Gf2Poly(tuple(sorted(window - e for e in self.support)))

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return "+".join(_term(e) for e in self.support)

    def __repr__(self) -> str:
        return f"Gf2Poly({str(self)!r})"


def _term(e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return "D"
    return f"D^{e}"


ZERO = Gf2Poly()
ONE = Gf2Poly((0,))
D = Gf2Poly((1,))


class PolyMatrix(_Record):
    """One row of Gf2Poly values: a stabilizer generator X(D) or Z(D).

    The value is the row itself, ``row``, a tuple read as ``x.row[j]``.
    Every X and Z the construction builds, and every command checks, is
    one such row, so no other shape exists.

    The other slots are caches of what the library derives from the row
    and checks: the parity supports (``csoc.parity_supports``), the same
    supports once none holds a negative exponent
    (``distance._causal_supports``), the memory, the ``CsocReport`` and
    the odd-occupancy delays (``symplectic._odd_delays``). Each is None
    until its reader first computes it, and is stored only once every
    check on the way has passed, so a row that fails a check raises on
    every call.
    """

    __slots__ = ("row", "_supports", "_causal", "_memory", "_csoc", "_odd")

    def __init__(self, polys: Iterable[Gf2Poly]) -> None:
        row = tuple(polys)
        if not row:
            raise ValueError("matrix must have at least one column")
        for p in row:
            if not isinstance(p, Gf2Poly):
                raise ValueError(f"entry {p!r} is not a Gf2Poly")
        _setattr(self, "row", row)
        for cache in self.__slots__[1:]:
            _setattr(self, cache, None)

    @classmethod
    def from_supports(cls, supports: Iterable[Iterable[int]]) -> "PolyMatrix":
        """The row whose column j folds the exponents ``supports[j]`` mod 2."""
        return cls(Gf2Poly.from_exponents(cell) for cell in supports)

    @property
    def ncols(self) -> int:
        return len(self.row)

    def is_zero(self) -> bool:
        return not any(self.row)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.row) + ")"


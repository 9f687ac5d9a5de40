"""The reflection-permutation map from X-supports to Z-supports.

Reflecting every exponent a to M - a (M the family scope) preserves all
pairwise differences, so a strong family stays strong, scope and entry
weights are unchanged, and the reflected polynomials are the window
reversals D^M x(D^-1) of the originals. ``build_z`` reverses each
parity entry through ``Gf2Poly.reverse``, the one reflection.

Whether the resulting pair (X, Z) commutes symplectically depends on the
entry permutation pi: the pair commutes exactly when the mod-2 product
sum Q(D) = sum_k x_k(D) x_{pi(k)}(D) is palindromic on [0, 2M]. Any
involution whose fixed entries are themselves palindromic (reflection-
invariant) satisfies this; an arbitrary pi does not. ``build_z`` accepts
any permutation and leaves the judgement to the commutation check.

``verify_pair`` is the one verification pipeline: it runs every check on
a pair and returns the verdicts, violations and distance certificate
that the ``verify`` and ``tables`` commands render. Each row keeps its
facts, so each is computed once: X's CSOC verdict is one pass of
``dts.repeated_differences``, whose collisions also give the strong_dts
verdict, and ``certify_dfree`` reads it again from the row. The
violations are listed in the order of the checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .csoc import is_csoc, memory, parity_supports
from .distance import certify_dfree
from .dts import _below_dts, _members
from .gf2poly import ONE, PolyMatrix, _Record
from .symplectic import check_reflection_symmetry, is_commuting


def identity_permutation(streams: int) -> tuple[int, ...]:
    return tuple(range(1, streams + 1))


def _check_permutation(pi: Sequence[int], streams: int) -> tuple[int, ...]:
    pi = tuple(pi)
    if sorted(pi) != list(range(1, streams + 1)):
        raise ValueError(
            f"pi {pi!r} is not a permutation of streams 1..{streams}"
        )
    return pi


def build_z(x: PolyMatrix, pi: Sequence[int] | None = None) -> PolyMatrix:
    """Companion row: parity entry j of Z is the reversal of x_{pi(j)}.

    ``pi`` permutes the 1-based parity streams and defaults to the
    identity. The reversal window is the memory of X; the systematic
    last entry stays the constant 1, untouched by the reversal.
    """
    parity_supports(x)
    streams = x.ncols - 1
    pi = identity_permutation(streams) if pi is None else _check_permutation(pi, streams)
    window = memory(x)
    return PolyMatrix([*(x.row[k - 1].reverse(window) for k in pi), ONE])


class VerifyReport(_Record):
    """Every check on a stabilizer pair, in the order they run.

    ``checks`` maps strong_dts, csoc_x, csoc_z, memory, commuting,
    a7_symmetry and dfree to their verdicts; ``violations`` lists the
    (check, detail) pairs behind the failures, and is empty exactly when
    every check passes. ``dfree`` also fails when X is not CSOC, with no
    violation of its own: the csoc_x collisions already say why.
    ``certificate`` is None exactly then.
    """

    __slots__ = ("checks", "violations", "memory_x", "memory_z", "certificate")


def verify_pair(
    x: PolyMatrix,
    z: PolyMatrix,
    *,
    expect_m: int | None = None,
    expect_w: int | None = None,
) -> VerifyReport:
    """Run the whole verification suite on a systematic pair (X, Z).

    X must come from a strong family, both rows must be CSOC, their
    memories must agree (and equal ``expect_m`` when given), the pair must
    commute, X must satisfy the A7 sum-index identity, and when X is CSOC
    its certified free distance must be ``expect_w + 1`` when given.
    """
    members = _members(parity_supports(x))
    csoc_x = is_csoc(x)
    below = _below_dts(members, csoc_x.collisions)
    mu_x = memory(x)
    sym = check_reflection_symmetry(x)
    cert = certify_dfree(x) if csoc_x.ok else None
    csoc_z, mu_z = is_csoc(z), memory(z)
    comm = is_commuting(x, z)

    violations: list[tuple[str, str]] = []
    if below is not None:
        violations.append(("strong_dts", f"X family classifies as {below}"))
    for name, rep in (("csoc_x", csoc_x), ("csoc_z", csoc_z)):
        violations.extend((name, str(coll)) for coll in rep.collisions)

    if mu_x != mu_z:
        violations.append(("memory", f"memory differs: X={mu_x}, Z={mu_z}"))
    declared_m = expect_m is None or mu_x == expect_m
    if not declared_m:
        violations.append(
            ("memory", f"memory {mu_x} does not match declared m={expect_m}")
        )

    violations.extend(
        ("commutation", f"coefficient of D^{s} at entry ({i},{j}) is 1")
        for s, i, j in comm.violations
    )

    if not sym.ok:
        s, a, b = sym.counterexample
        violations.append(
            ("a7_symmetry", f"C_{s}[{a},{b}] differs from C_{2 * mu_x - s}[{b},{a}]")
        )

    dfree = cert is not None and (expect_w is None or cert.d_free == expect_w + 1)
    if cert is not None and not dfree:
        violations.append(("dfree", f"d_free {cert.d_free} does not match declared w+1"))

    return VerifyReport(
        checks={
            "strong_dts": below is None,
            "csoc_x": csoc_x.ok,
            "csoc_z": csoc_z.ok,
            "memory": mu_x == mu_z and declared_m,
            "commuting": comm.commuting,
            "a7_symmetry": sym.ok,
            "dfree": dfree,
        },
        violations=tuple(violations),
        memory_x=mu_x,
        memory_z=mu_z,
        certificate=cert,
    )

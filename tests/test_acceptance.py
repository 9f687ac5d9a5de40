"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion is asserted exactly as stated, at its stated tolerance.
Criteria that encode claims the implementation disproves (commutation for
arbitrary permutations, the sum-index reflection symmetry for every
catalogue row) are left to fail honestly rather than being weakened; the
verdict lines and failure messages carry the details.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time

import numpy as np

from qccdts import (
    DtsClass,
    Gf2Poly,
    PolyMatrix,
    build_systematic_x,
    build_z,
    check_reflection_symmetry,
    classify,
    column_distance,
    dfree_exact,
    dfree_upper,
    from_one_based,
    is_commuting,
    is_csoc,
    memory,
    parity_supports,
    reflect_family,
    search_strong_dts,
    sum_index_matrix,
    symplectic_sum,
)
from qccdts.cli import main
from qccdts.tables import TABLE_ROWS

from dense_arrays import block_toeplitz, coefficient_matrix


def _verdict(number: int, slug: str, failures: list[str]) -> None:
    state = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({slug}): {state}")
    for reason in failures:
        print(f"    - {reason}")
    assert not failures, f"criterion {number} ({slug}): " + "; ".join(failures)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _x_of(row) -> PolyMatrix:
    return PolyMatrix.from_supports([list(row.g_x) + [(0,)]])


def _example_pipeline():
    fam = classify([from_one_based(s) for s in ((1, 2), (1, 3))])
    x = build_systematic_x(fam)
    reflected = reflect_family(fam)
    z_swap = build_z(x, (2, 1))
    z_id = build_z(x)
    s_swap = symplectic_sum(x, z_swap)
    s_id = symplectic_sum(x, z_id)
    return x, reflected, z_swap, z_id, s_swap, s_id


def test_criterion_1_example_pair_end_to_end():
    failures: list[str] = []

    _example_pipeline()  # warm-up so the timed run measures steady state
    start = time.perf_counter()
    x, reflected, z_swap, z_id, s_swap, s_id = _example_pipeline()
    elapsed = time.perf_counter() - start

    if str(x) != "(1+D, 1+D^2, 1)":
        failures.append(f"X(D) is {x}")
    got_reflected = sorted(tuple(e + 1 for e in s.elements) for s in reflected.sets)
    if got_reflected != [(1, 3), (2, 3)]:
        failures.append(f"reflected family (1-based) is {got_reflected}")
    if str(z_swap) != "(1+D^2, D+D^2, 1)":
        failures.append(f"Z with pi=(2,1) is {z_swap}")
    if str(z_id) != "(D+D^2, 1+D^2, 1)":
        failures.append(f"Z with identity pi is {z_id}")
    if not s_swap.is_zero():
        failures.append(f"symplectic sum for pi=(2,1) is {s_swap}")
    if not s_id.is_zero():
        failures.append(f"symplectic sum for identity pi is {s_id}")
    if elapsed >= 1e-3:
        failures.append(f"pipeline took {elapsed * 1e3:.3f} ms, budget 1 ms")

    _verdict(1, "example-pair-end-to-end", failures)


def test_criterion_2_table_reproduction():
    failures: list[str] = []

    start = time.perf_counter()
    code, out = _run_cli(["tables", "--json"])
    elapsed = time.perf_counter() - start

    payload = json.loads(out)
    if len(payload["rows"]) != 14:
        failures.append(f"expected 14 rows, saw {len(payload['rows'])}")
    for entry in payload["rows"]:
        bad = [name for name, ok in entry["checks"].items() if not ok]
        if bad:
            failures.append(
                f"table {entry['table']} row {entry['row']}: {', '.join(bad)}"
            )
    if code != 0:
        failures.append(f"tables command exited {code}")
    if elapsed >= 5.0:
        failures.append(f"table run took {elapsed:.2f} s, budget 5 s")

    _verdict(2, "table-reproduction-14-rows", failures)


def test_criterion_3_free_distance():
    failures: list[str] = []

    for row in TABLE_ROWS:
        x = _x_of(row)
        if row.m <= 12:
            got = dfree_exact(x, budget=row.w + 1)
            if got != row.w + 1:
                failures.append(
                    f"table {row.table_id} row {row.row_no}: exact search gave "
                    f"{got}, expected {row.w + 1}"
                )
            if row.w + 1 not in (3, 4):
                failures.append(
                    f"table {row.table_id} row {row.row_no}: unexpected target "
                    f"{row.w + 1}"
                )
        cert = dfree_upper(x)
        if cert.d_free != row.w + 1:
            failures.append(
                f"table {row.table_id} row {row.row_no}: upper bound {cert.d_free}"
            )
            continue
        try:
            _assert_witness_valid(x, cert.witness, row.w + 1)
        except AssertionError as exc:
            failures.append(
                f"table {row.table_id} row {row.row_no}: witness invalid ({exc})"
            )

    _verdict(3, "free-distance", failures)


def _assert_witness_valid(x: PolyMatrix, witness, weight: int) -> None:
    assert witness and witness[0][0] == 0 and any(witness[0][1])
    span = witness[-1][0]
    n = x.ncols
    window = [[0] * n for _ in range(span + 1)]
    for t, bits in witness:
        window[t] = list(bits)
    assert sum(sum(f) for f in window) == weight
    stacked = np.array([b for f in window for b in f], dtype=np.uint8)
    assert not (block_toeplitz(x, span) @ stacked % 2).any()
    supports = parity_supports(x)
    for t in range(span + 1, span + memory(x) + 1):
        p = 0
        for i, sup in enumerate(supports):
            for ell in sup:
                if 0 <= t - ell <= span:
                    p ^= window[t - ell][i]
        assert p == 0


def test_criterion_4_permutation_sweep():
    failures: list[str] = []
    stats = {"pairs": 0, "csoc_failures": 0, "commute_failures": 0, "cancel_failures": 0}

    start = time.perf_counter()
    for r in (1, 2, 3):
        for w in (2, 3):
            for fam in search_strong_dts(r, w, 10):
                x = build_systematic_x(fam)
                m = memory(x)
                entries = [x.entry(0, k) for k in range(fam.size)]
                products = {}
                for a in range(fam.size):
                    for b in range(fam.size):
                        products[(a, b)] = entries[a] * entries[b]
                for pi in itertools.permutations(range(1, fam.size + 1)):
                    stats["pairs"] += 1
                    z = build_z(x, pi)
                    if not is_csoc(z).ok:
                        stats["csoc_failures"] += 1
                    if not is_commuting(x, z).commuting:
                        stats["commute_failures"] += 1
                    cancels = True
                    for k in range(fam.size):
                        prod = products[(k, pi[k] - 1)]
                        for tau in range(-m, m + 1):
                            if ((m + tau) in prod.support) != ((m - tau) in prod.support):
                                cancels = False
                                break
                        if not cancels:
                            break
                    if not cancels:
                        stats["cancel_failures"] += 1
    elapsed = time.perf_counter() - start

    if stats["csoc_failures"]:
        failures.append(
            f"{stats['csoc_failures']}/{stats['pairs']} pairs: reflected side "
            "not self-orthogonal"
        )
    if stats["commute_failures"]:
        failures.append(
            f"{stats['commute_failures']}/{stats['pairs']} (family, pi) pairs "
            "do not commute"
        )
    if stats["cancel_failures"]:
        failures.append(
            f"{stats['cancel_failures']}/{stats['pairs']} pairs: two-addend "
            "decomposition does not cancel coefficient-by-coefficient"
        )
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f} s, budget 60 s")

    _verdict(4, "every-permutation-sweep", failures)


def test_criterion_5_sum_index_symmetry():
    failures: list[str] = []

    for row in TABLE_ROWS:
        x = _x_of(row)
        report = check_reflection_symmetry(x, row.m)
        if not report.ok:
            s, a, b = report.counterexample
            failures.append(
                f"table {row.table_id} row {row.row_no}: symmetry fails at "
                f"s={s} entry ({a},{b})"
            )

    example_x = _x_of(TABLE_ROWS[0])
    got = [sum_index_matrix(example_x, s)[0][0] for s in range(5)]
    if got != [1, 0, 1, 0, 1]:
        failures.append(f"scalar sum-index sequence is {got}")

    _verdict(5, "sum-index-reflection-symmetry", failures)


def test_criterion_6_column_distance_profile():
    failures: list[str] = []

    targets = [TABLE_ROWS[0]] + [r for r in TABLE_ROWS if r.table_id == 2]
    for row in targets:
        x = _x_of(row)
        mu = memory(x)
        d_free = row.w + 1
        profile = []
        reached_at = None
        for j in range(0, 2 * mu + 1):
            value = column_distance(x, j)
            profile.append(value)
            if value > d_free:
                failures.append(
                    f"table {row.table_id} row {row.row_no}: d_c({j}) = "
                    f"{value} exceeds d_free {d_free}"
                )
                break
            if value == d_free:
                reached_at = j
                break
        if profile != sorted(profile):
            failures.append(
                f"table {row.table_id} row {row.row_no}: profile {profile} "
                "is not nondecreasing"
            )
        if reached_at is None:
            failures.append(
                f"table {row.table_id} row {row.row_no}: d_c never reaches "
                f"{d_free} within 2*mu = {2 * mu}"
            )
    example_profile = column_distance(_x_of(TABLE_ROWS[0]), 0)
    if example_profile != 2:
        failures.append(f"first column distance is {example_profile}, expected 2")

    _verdict(6, "column-distance-profile", failures)


def test_criterion_7_negative_controls(tmp_path):
    failures: list[str] = []

    # single exponent perturbed in the Z family of the first catalogue row
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(
        json.dumps(
            {"T": [[1, 2], [1, 3]], "Z": [[1, 3], [2, 4]], "one_based": True}
        )
    )
    code, out = _run_cli(["verify", "--input", str(corrupted), "--json"])
    report = json.loads(out)
    if report["commuting"]:
        failures.append("perturbed Z still reported as commuting")
    if code != 1:
        failures.append(f"perturbed Z exited {code}, expected 1")
    if not any(v["check"] == "commutation" for v in report["violations"]):
        failures.append("perturbed Z: no named commutation violation")

    repeated = tmp_path / "repeated.json"
    repeated.write_text(
        json.dumps({"T": [[0, 1], [0, 1]], "one_based": False})
    )
    code, out = _run_cli(["verify", "--input", str(repeated), "--json"])
    report = json.loads(out)
    fam = classify([(0, 1), (0, 1)])
    if fam.classification >= DtsClass.DTS:
        failures.append("repeated-difference family classified as DTS")
    if code != 1:
        failures.append(f"repeated-difference family exited {code}, expected 1")
    if not any(v["check"] == "strong_dts" for v in report["violations"]):
        failures.append("repeated-difference family: no named violation")

    _verdict(7, "negative-controls", failures)


def _random_poly(rng: random.Random, max_weight: int = 8, max_exp: int = 64) -> Gf2Poly:
    exps = rng.sample(range(0, max_exp + 1), rng.randint(0, max_weight))
    return Gf2Poly(tuple(sorted(exps)))


def _random_row(rng: random.Random, n: int, max_exp: int = 8) -> PolyMatrix:
    return PolyMatrix.from_supports(
        [
            [
                tuple(sorted(rng.sample(range(0, max_exp + 1), rng.randint(0, 3))))
                for _ in range(n)
            ]
        ]
    )


def test_criterion_8_randomized_invariants():
    failures: list[str] = []
    rng = random.Random(0x5EED)
    cases = 0

    # characteristic-2 polynomial laws: 3000 cases
    for _ in range(1000):
        p, q, r = (_random_poly(rng) for _ in range(3))
        if p + q != q + p or (p + q) + r != p + (q + r):
            failures.append(f"addition laws fail for {p}, {q}, {r}")
        cases += 1
    for _ in range(1000):
        p = _random_poly(rng)
        if p + p:
            failures.append(f"self-cancellation fails for {p}")
        cases += 1
    for _ in range(1000):
        p, q, r = (_random_poly(rng, max_weight=6, max_exp=32) for _ in range(3))
        if p * (q + r) != p * q + p * r:
            failures.append(f"distributivity fails for {p}, {q}, {r}")
        cases += 1

    # reversal involution: 2000 cases
    for _ in range(2000):
        p = _random_poly(rng)
        window = (int(p.degree) if p else 0) + rng.randint(0, 10)
        if p.reverse(window).reverse(window) != p:
            failures.append(f"reversal involution fails for {p} in [0,{window}]")
        cases += 1

    # family reflection involution: 1500 cases; reflection about the scope
    # only preserves the scope when the family touches exponent 0, so the
    # generator normalizes at family level (as every constructed family is)
    for _ in range(1500):
        w = rng.randint(1, 4)
        size = rng.randint(1, 3)
        sets = [
            sorted(rng.sample(range(0, 12), w)) for _ in range(size)
        ]
        low = min(s[0] for s in sets)
        fam = classify([tuple(e - low for e in s) for s in sets])
        if reflect_family(reflect_family(fam)).sets != fam.sets:
            failures.append(f"reflection involution fails for {fam}")
        cases += 1

    # symplectic self-commutation: 1500 cases
    for _ in range(1500):
        x = _random_row(rng, rng.randint(1, 4))
        if not symplectic_sum(x, x).is_zero():
            failures.append(f"self symplectic sum nonzero for {x}")
        cases += 1

    # coefficient-formula cross-check: 2000 cases
    for _ in range(2000):
        n = rng.randint(1, 4)
        x, z = _random_row(rng, n), _random_row(rng, n)
        s = rng.randint(-10, 10)
        direct = coefficient_matrix(symplectic_sum(x, z), s)
        conv = np.zeros((1, 1), dtype=np.uint8)
        for ell in range(0, 9):
            conv ^= (
                coefficient_matrix(x, ell) @ coefficient_matrix(z, ell + s).T % 2
            ).astype(np.uint8)
            conv ^= (
                coefficient_matrix(z, ell) @ coefficient_matrix(x, ell + s).T % 2
            ).astype(np.uint8)
        if not np.array_equal(direct, conv):
            failures.append(f"coefficient formula fails for {x}, {z} at s={s}")
        cases += 1

    if cases != 10_000:
        failures.append(f"ran {cases} cases, expected 10000")
    _verdict(8, "randomized-invariants", failures[:20])

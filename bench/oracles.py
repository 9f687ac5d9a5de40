"""Output oracles for the benchmark, written without the library.

Each ``check_*`` function takes one command's exit code and captured
output and returns a list of problems; an empty list means the output
is right. The oracles recompute every verdict from the input sets:

- strong / CSOC: all positive differences of the family are distinct
- commutation: the symplectic sum P(D) + P(D^-1), with
  P(D) = sum_k x_k(D) z_k(D^-1), vanishes; for a reflected Z this is
  Q_pi(D) = sum_k x_k x_pi(k) being palindromic on [0, 2M]
- A7: the per-delay column-occupancy parities form a palindrome
- d_free = w + 1 on CSOC rows, with a witness that satisfies the parity
  equation; column distances and non-CSOC d_free against the values in
  ``reference.json``
- search: the exact stream of an independent bitmask enumeration

``verify`` and ``tables`` exit 1 when the A7 check fails, which is the
expected verdict for most rows; an output is wrong only when it
disagrees with the oracle.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter

from workloads import CATALOGUE, Command, zero_based


def differences(sets) -> list[int]:
    return [b - a for s in sets for a, b in itertools.combinations(sorted(s), 2)]


def all_distinct(sets) -> bool:
    """True iff the family is strong, which for one parity row is CSOC."""
    diffs = differences(sets)
    return len(set(diffs)) == len(diffs)


def reflected(x: list[list[int]], pi: list[int] | None) -> list[list[int]]:
    """Z parity supports: entry j is x_{pi(j)} reflected about the memory."""
    memory = max(max(s) for s in x)
    pi = pi or list(range(1, len(x) + 1))
    return [sorted(memory - a for a in x[p - 1]) for p in pi]


def symplectic_support(x: list[list[int]], z: list[list[int]]) -> list[int]:
    """Exponents with coefficient 1 in X Z(D^-1)^T + Z X(D^-1)^T."""
    counts = Counter(a - b for xs, zs in zip(x, z) for a in xs for b in zs)
    p = {e for e, c in counts.items() if c % 2}
    return sorted(p ^ {-e for e in p})


def a7_counterexample(x: list[list[int]]) -> int | None:
    """Smallest s with C_s != C_{2M-s}^T, or None when the identity holds.

    C_s of one systematic row is the parity of the number of columns
    (the identity column included) that hold the delay s/2; odd s give 0.
    """
    memory = max(max(s) for s in x)
    occupancy = Counter(e for s in x for e in s)
    occupancy[0] += 1  # the systematic column
    parity = [occupancy[d] % 2 for d in range(memory + 1)]
    for d in range(memory + 1):
        if parity[d] != parity[memory - d]:
            return 2 * d
    return None


def witness_problems(x: list[list[int]], witness, d_free: int) -> list[str]:
    """A witness must be a codeword of weight d_free starting at time 0."""
    streams = len(x)
    frames = {}
    for t, bits in witness:
        if len(bits) != streams + 1 or not any(bits) or t in frames:
            return [f"malformed witness frame {[t, bits]}"]
        frames[t] = bits
    if not frames or min(frames) != 0 or not any(frames[0][:streams]):
        return ["witness does not start with an information bit at time 0"]
    horizon = max(frames) + max(max(s) for s in x)
    for t in range(horizon + 1):
        parity = sum(
            frames.get(t - delay, [0] * streams)[k]
            for k, s in enumerate(x) for delay in s
        ) % 2
        if parity != frames.get(t, [0] * (streams + 1))[streams]:
            return [f"witness violates the parity equation at time {t}"]
    weight = sum(sum(bits) for bits in frames.values())
    if weight != d_free:
        return [f"witness weight {weight} != d_free {d_free}"]
    return []


def _parse(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def pair(payload: dict) -> tuple[list[list[int]], list[list[int]]]:
    x, z = zero_based(payload)
    return x, reflected(x, payload.get("pi")) if z is None else z


def expected_verify(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    """The verify report fields and the non-CSOC violations, in order."""
    x, z = pair(payload)
    mu_x, mu_z = max(max(s) for s in x), max(max(s) for s in z)
    strong, csoc_z = all_distinct(x), all_distinct(z)
    violations = []
    if not strong:
        violations.append(("strong_dts", None))
    if mu_x != mu_z:
        violations.append(("memory", f"memory differs: X={mu_x}, Z={mu_z}"))
    if payload.get("m") is not None and mu_x != payload["m"]:
        violations.append(("memory", f"memory {mu_x} does not match declared m={payload['m']}"))
    sym = symplectic_support(x, z)
    violations += [("commutation", f"coefficient of D^{s} at entry (1,1) is 1") for s in sym]
    s = a7_counterexample(x)
    if s is not None:
        violations.append(("a7_symmetry", f"C_{s}[1,1] differs from C_{2 * mu_x - s}[1,1]"))
    d_free = min(len(t) for t in x) + 1 if strong else None
    if d_free is not None and payload.get("w") is not None and d_free != payload["w"] + 1:
        violations.append(("dfree", f"d_free {d_free} does not match declared w+1"))
    report = {
        "commuting": not sym,
        "csoc_x": strong,
        "csoc_z": csoc_z,
        "strong_dts": strong,
        "memory": {"x": mu_x, "z": mu_z, "equal": mu_x == mu_z},
        "a7_symmetry": s is None,
        "d_free": d_free,
    }
    return report, violations


def check_verify(payload: dict, rc: int, out: str, err: str) -> list[str]:
    got = _parse(out)
    if not isinstance(got, dict):
        return [f"verify printed no JSON object (exit {rc}): {err.strip()[:200]}"]
    report, violations = expected_verify(payload)
    problems = [f"{k}: got {got.get(k)!r}, expected {v!r}"
                for k, v in report.items() if got.get(k) != v]
    listed = got.get("violations", [])
    plain = [(v["check"], v["detail"]) for v in listed
             if v["check"] not in ("csoc_x", "csoc_z", "strong_dts")]
    expected_plain = [v for v in violations if v[0] != "strong_dts"]
    if plain != expected_plain:
        problems.append(f"violations {plain!r} != expected {expected_plain!r}")
    for name, ok in (("csoc_x", report["csoc_x"]), ("csoc_z", report["csoc_z"]),
                     ("strong_dts", report["strong_dts"])):
        if any(v["check"] == name for v in listed) == ok:
            problems.append(f"{name} violations disagree with verdict {ok}")
    if (got.get("warnings") == []) != report["strong_dts"]:
        problems.append(f"warnings {got.get('warnings')!r} disagree with strongness")
    want_rc = 1 if violations or not (report["csoc_x"] and report["csoc_z"]) else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    return problems


def expected_table_checks(row) -> dict:
    _, _, m, w, t_sets, z_sets = row
    x = [[e - 1 for e in s] for s in t_sets]
    z = [[e - 1 for e in s] for s in z_sets]
    csoc_x = all_distinct(x)
    return {
        "strong_dts": csoc_x,
        "memory": max(max(s) for s in x) == m,
        "reflect_match": sorted(map(tuple, reflected(x, None))) == sorted(map(tuple, z)),
        "csoc_x": csoc_x,
        "csoc_z": all_distinct(z),
        "commuting": not symplectic_support(x, z),
        "a7_symmetry": a7_counterexample(x) is None,
        "dfree": csoc_x and min(len(s) for s in x) == w,
    }


def check_tables(rc: int, out: str, err: str) -> list[str]:
    got = _parse(out)
    if not isinstance(got, dict) or not isinstance(got.get("rows"), list):
        return [f"tables printed no JSON report (exit {rc}): {err.strip()[:200]}"]
    if len(got["rows"]) != len(CATALOGUE):
        return [f"tables reported {len(got['rows'])} rows, expected {len(CATALOGUE)}"]
    problems = []
    passed = 0
    for row, entry in zip(CATALOGUE, got["rows"]):
        table, row_no, m, w, t_sets, z_sets = row
        checks = expected_table_checks(row)
        passed += all(checks.values())
        r = len(t_sets)
        fields = {
            "table": table, "row": row_no, "rate": f"{r - 1}/{r + 1}", "m": m, "w": w,
            "T": [list(s) for s in t_sets], "Z": [list(s) for s in z_sets],
            "g_x": [[e - 1 for e in s] for s in t_sets],
            "g_z": [[e - 1 for e in s] for s in z_sets],
            "checks": checks, "pass": all(checks.values()),
        }
        problems += [f"row {table}.{row_no} {k}: got {entry.get(k)!r}, expected {v!r}"
                     for k, v in fields.items() if entry.get(k) != v]
    failed = len(CATALOGUE) - passed
    if (got.get("passed"), got.get("failed")) != (passed, failed):
        problems.append(f"passed/failed {got.get('passed')}/{got.get('failed')}, "
                        f"expected {passed}/{failed}")
    if rc != (1 if failed else 0):
        problems.append(f"exit code {rc}, expected {1 if failed else 0}")
    return problems


def check_distance(payload: dict, meta: dict, rc: int, out: str, err: str) -> list[str]:
    got = _parse(out)
    if rc != 0 or not isinstance(got, dict):
        return [f"distance failed (exit {rc}): {err.strip()[:200]}"]
    x, _ = zero_based(payload)
    csoc = all_distinct(x)
    problems = []
    if csoc:
        want = (min(len(s) for s in x) + 1, "csoc_certificate")
    else:
        want = (meta["d_free"], "exact_search")
    if (got.get("d_free"), got.get("method")) != want:
        problems.append(f"d_free/method {got.get('d_free')!r}/{got.get('method')!r}, "
                        f"expected {want[0]!r}/{want[1]!r}")
    elif csoc or got["witness"]:
        problems += witness_problems(x, got["witness"], want[0])
    recorded = meta["column_distances"]
    profile = got.get("column_distances")
    if not isinstance(profile, list) or profile[: len(recorded)] != recorded:
        problems.append(f"column distances {profile!r} do not extend the recorded {recorded!r}")
    if (got.get("warnings") == []) != csoc:
        problems.append(f"warnings {got.get('warnings')!r} disagree with strongness")
    return problems


@functools.cache
def strong_families(r: int, w: int, scope: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every strong family of r normalized w-sets, scope <= scope, in canonical order.

    Difference sets are held as bitmasks; candidates are the w-sets
    starting at 0 in lexicographic order, and a family picks candidates
    by increasing index, which is lexicographic order of the family.
    """
    candidates = []
    for combo in itertools.combinations(range(1, scope + 1), w - 1):
        elems = (0,) + combo
        mask = 0
        for a, b in itertools.combinations(elems, 2):
            bit = 1 << (b - a)
            if mask & bit:
                break
            mask |= bit
        else:
            candidates.append((elems, mask))
    out = []
    chosen: list[tuple[int, ...]] = []

    def extend(start: int, used: int) -> None:
        if len(chosen) == r:
            out.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            elems, mask = candidates[i]
            if not used & mask:
                chosen.append(elems)
                extend(i + 1, used | mask)
                chosen.pop()

    extend(0, 0)
    return tuple(out)


def is_full_strong(family) -> bool:
    diffs = sorted(differences(family))
    return diffs == list(range(1, len(diffs) + 1))


def check_search(meta: dict, rc: int, out: str, err: str) -> list[str]:
    if rc != 0:
        return [f"search failed (exit {rc}): {err.strip()[:200]}"]
    expected = strong_families(meta["r"], meta["w"], meta["scope"])
    if meta["full_strong"]:
        expected = [f for f in expected if is_full_strong(f)]
    lines = out.splitlines()
    if len(lines) != len(expected):
        return [f"search printed {len(lines)} families, expected {len(expected)}"]
    for line, family in zip(lines, expected):
        got = _parse(line)
        want = {
            "one_based": False,
            "sets": [list(s) for s in family],
            "classification": "FULL_STRONG" if is_full_strong(family) else "STRONG",
            "scope": max(max(s) for s in family),
            "budget": max(differences(family)),
        }
        if got != want:
            return [f"search line {line!r}, expected {json.dumps(want)}"]
    return []


def check(cmd: Command, rc: int, out: str, err: str) -> list[str]:
    """Problems with one command's output; empty when it is right."""
    try:
        if cmd.kind == "verify":
            return check_verify(cmd.payload, rc, out, err)
        if cmd.kind == "tables":
            return check_tables(rc, out, err)
        if cmd.kind == "distance":
            return check_distance(cmd.payload, cmd.meta, rc, out, err)
        return check_search(cmd.meta, rc, out, err)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        return [f"{cmd.kind} output has the wrong shape: {exc!r}"]


def expected_calls(cmd: Command, out: str) -> dict[str, int]:
    """Exact call counts a traced command must show, implied by its input.

    These pin the bindings the tracer has to patch: the CLI reaches most
    layers through names it imported with ``from ... import``.
    """
    calls = {"cli.main": 1}
    if cmd.kind == "verify":
        x, _ = zero_based(cmd.payload)
        calls.update({
            "cli.load_code_input": 1,
            "symplectic.is_commuting": 1,
            "symplectic.check_reflection_symmetry": 1,
            "symplectic.sum_index_matrix": 2 * max(max(s) for s in x) + 1,
            "distance.certify_dfree": int(all_distinct(x)),
        })
    elif cmd.kind == "tables":
        calls.update({
            "tables.validate_tables": 1,
            "symplectic.is_commuting": len(CATALOGUE),
            "symplectic.check_reflection_symmetry": len(CATALOGUE),
            "symplectic.sum_index_matrix": sum(2 * row[2] + 1 for row in CATALOGUE),
            "distance.certify_dfree": sum(
                all_distinct([[e - 1 for e in s] for s in row[4]]) for row in CATALOGUE),
        })
    elif cmd.kind == "distance":
        x, _ = zero_based(cmd.payload)
        csoc = all_distinct(x)
        calls.update({
            "cli.load_code_input": 1,
            "distance.certify_dfree": int(csoc),
            "distance.column_distance": len(json.loads(out)["column_distances"]),
        })
        if not csoc:
            calls["distance.dfree_exact"] = 1
    elif cmd.kind == "search":
        m = cmd.meta
        calls.update({
            "dts.search_strong_dts": 1,
            "dts.search_strong_dts.families": len(strong_families(m["r"], m["w"], m["scope"])),
        })
    return calls

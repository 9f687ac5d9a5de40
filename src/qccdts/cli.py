"""Command-line surface: build, reflect, verify, distance, tables, search.

Exit codes are a stable contract: 0 means every requested check passed,
1 means a verification failure, 2 means a usage or input error, 3 means
an internal invariant failed (a contradicted distance certificate or an
inconsistent built-in catalogue), reported as one ``internal error:`` line.
A reader that closes stdout early (``qccdts search ... | head``) ends the
command quietly with exit 0.

``main`` parses ``qccdts <command> ...`` with that command's subparser
of the full tree, the parser ``build_parser`` returns. The tree itself
parses when there is no argument or the first is not a command (``-h``,
``--help``, ``--version``, a typo), and reports the arguments a
subparser leaves over, so those messages keep the top-level usage line.
The tree is built on first use and shared by every later ``main`` call
in the process, so a caller must not mutate it.

Input JSON schema (all commands that take ``--input``):

    {"n": int, "T": [[int], ...], "Z": [[int], ...] (optional),
     "pi": [int] (optional, 1-based), "one_based": bool (optional, true),
     "m": int (optional), "w": int (optional)}

``Z_expected`` is accepted as an alias for ``Z``, and giving both non-null
is an input error; either holds one set per set of ``T``, all of one size.
``tables`` reads each catalogue row through the same parser. The
``--one-based`` / ``--zero-based`` flags override the file's convention.
Integers must be JSON integers (``true`` is not 1, ``"3"`` is not 3) and
``one_based`` a JSON boolean; a field of the wrong type is an input error
naming it. Optional fields given as ``null`` count as absent. The parser
also puts the note for a family below STRONG in ``CodeInput.notes``;
commands print it as a ``warning:`` line, or in the ``"warnings"`` list
with ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from . import __version__
from .csoc import build_systematic_x, is_csoc, memory, parity_supports
from .distance import (
    MAX_EXACT_BUDGET,
    MAX_WINDOW_BITS,
    Method,
    certify_dfree,
    column_distance,
    dfree_exact,
    dfree_upper,
    exact_search_guard,
)
from .dts import (
    DtsClass, DtsFamily, _check_search_args, classify, search_strong_dts,
)
from .gf2poly import ONE, Gf2Poly, PolyMatrix, _Record
from .reflect import _check_permutation, build_z, identity_permutation, verify_pair
from .tables import rows_for, validate_tables

SEARCH_GUARDS = {"r": 5, "w": 5, "max_scope": 40}

# The checks `tables` prints for each row: the shared pair checks plus
# reflect_match, whether the supports of build_z(X) are the catalogue's Z.
TABLE_CHECKS = (
    "strong_dts", "memory", "reflect_match", "csoc_x", "csoc_z",
    "commuting", "a7_symmetry", "dfree",
)


class CodeInput(_Record):
    """A parsed code description."""

    __slots__ = ("family", "z_sets", "pi", "expected_m", "expected_w", "notes")


# The JSON name of each type json.load produces, for error messages.
_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "array", dict: "object",
}


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _optional_int(payload: dict, key: str) -> int | None:
    value = payload.get(key)
    if value is not None and not _is_int(value):
        raise ValueError(
            f'"{key}" must be an integer, not {_JSON_TYPES[type(value)]}'
        )
    return value


def _parse_sets(raw, one_based: bool, key: str) -> tuple[tuple[int, ...], ...]:
    """0-based support sets from ``raw``; errors quote the sets as written."""
    if not isinstance(raw, list) or not raw or not all(
        isinstance(s, list) and s and all(_is_int(e) for e in s) for s in raw
    ):
        raise ValueError(
            f'"{key}" must be a nonempty list of nonempty lists of integers'
        )
    low = int(one_based)
    for s in raw:
        if len(set(s)) != len(s):
            raise ValueError(f'"{key}" set {s} repeats an element')
        if min(s) < low:
            raise ValueError(
                f'"{key}" set {s} holds {min(s)}; {low}-based elements start at {low}'
            )
    # The checks above leave distinct integers >= low, so subtracting low
    # and sorting gives a valid support.
    return tuple([tuple(sorted([e - low for e in s])) for s in raw])


def _read_json(path: str):
    """The JSON value in the file ``path``, decoded from UTF-8 and parsed once.

    Each CRLF and lone CR becomes LF first, as a text-mode read would turn
    them (a binary read and one decode cost less than a text-mode open).
    JSON reads all three as whitespace outside strings and rejects them
    inside, so that changes no value and no verdict, and an error names
    positions in the translated text.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))


def load_code_input(path: str, one_based_override: bool | None) -> CodeInput:
    try:
        payload = _read_json(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax and bytes that are not UTF-8; too deep
        # a nesting is a RecursionError, which must not read as internal.
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    return _code_input(payload, one_based_override)


def _code_input(payload, one_based_override: bool | None) -> CodeInput:
    """The one parser of code descriptions: ``--input`` files and catalogue rows."""
    if not isinstance(payload, dict) or "T" not in payload:
        raise ValueError('input must be a JSON object with a "T" key')

    one_based = payload.get("one_based")
    if one_based is None:
        one_based = True
    elif not isinstance(one_based, bool):
        raise ValueError(
            f'"one_based" must be true or false, not {_JSON_TYPES[type(one_based)]}'
        )
    if one_based_override is not None:
        one_based = one_based_override

    family = classify(_parse_sets(payload["T"], one_based, "T"))

    if payload.get("Z") is not None and payload.get("Z_expected") is not None:
        raise ValueError('give "Z" or "Z_expected", not both')
    z_key = "Z" if payload.get("Z") is not None else "Z_expected"
    z_raw = payload.get(z_key)
    z_sets = None
    if z_raw is not None:
        z_sets = _parse_sets(z_raw, one_based, z_key)
        if len(z_sets) != family.size:
            raise ValueError(f'"{z_key}" must hold {family.size} sets, like "T"')
        if len({len(s) for s in z_sets}) > 1:
            raise ValueError(f'"{z_key}" sets must all have the same size')

    pi = payload.get("pi")
    if pi is not None:
        if not isinstance(pi, list) or not all(_is_int(e) for e in pi):
            raise ValueError('"pi" must be a list of 1-based stream indices')
        pi = _check_permutation(pi, family.size)

    n = _optional_int(payload, "n")
    if n is not None and n != family.size + 1:
        raise ValueError(
            f'"n" is {n} but the family implies n = {family.size + 1}'
        )
    return CodeInput(
        family=family,
        z_sets=z_sets,
        pi=pi,
        expected_m=_optional_int(payload, "m"),
        expected_w=_optional_int(payload, "w"),
        notes=() if family.classification >= DtsClass.STRONG else (
            f"family classifies as {family.classification}, not STRONG; "
            "self-orthogonality and distance guarantees lapse",
        ),
    )


def _pair_from_input(code: CodeInput) -> tuple[PolyMatrix, PolyMatrix]:
    x = build_systematic_x(code.family)
    if code.z_sets is not None:
        z = PolyMatrix(tuple(Gf2Poly(s) for s in code.z_sets) + (ONE,))
    else:
        z = build_z(x, code.pi)
    return x, z


def _format_sets(sets) -> str:
    return "; ".join("{" + ", ".join(str(e) for e in s) + "}" for s in sets)


def cmd_build(args: argparse.Namespace) -> int:
    code = load_code_input(args.input, args.one_based)
    x, z = _pair_from_input(code)
    params = {
        "X": str(x),
        "Z": str(z),
        "n": x.ncols,
        "memory": memory(x),
        "w": code.family.weight,
        "rate": f"{x.ncols - 2}/{x.ncols}",
        "classification": str(code.family.classification),
        "warnings": code.notes,
    }
    if args.json:
        print(json.dumps(params))
    else:
        for note in code.notes:
            print(f"warning: {note}")
        print(f"X(D) = {x}")
        print(f"Z(D) = {z}")
        print(
            f"n = {params['n']}, memory = {params['memory']}, "
            f"w = {params['w']}, rate = {params['rate']}"
        )
    return 0


def cmd_reflect(args: argparse.Namespace) -> int:
    code = load_code_input(args.input, args.one_based)
    x = build_systematic_x(code.family)
    z = build_z(x, code.pi)
    z_sets = parity_supports(z)
    payload = {
        "X": str(x),
        "Z": str(z),
        "reflected_zero_based": [list(s) for s in z_sets],
        "reflected_one_based": [[e + 1 for e in s] for s in z_sets],
        "pi": list(code.pi or identity_permutation(x.ncols - 1)),
        "warnings": code.notes,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for note in code.notes:
            print(f"warning: {note}")
        print(f"X(D) = {x}")
        print(f"Z(D) = {z}")
        print(f"Z family (0-based): {_format_sets(z_sets)}")
        print(f"Z family (1-based): {_format_sets(payload['reflected_one_based'])}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    code = load_code_input(args.input, args.one_based)
    x, z = _pair_from_input(code)
    report = verify_pair(
        x, z, expect_m=code.expected_m, expect_w=code.expected_w
    )
    checks = report.checks
    mu_x, mu_z = report.memory_x, report.memory_z
    d_free = report.certificate.d_free if report.certificate is not None else None
    ok = not report.violations
    if args.json:
        payload = {
            "commuting": checks["commuting"],
            "csoc_x": checks["csoc_x"],
            "csoc_z": checks["csoc_z"],
            "strong_dts": checks["strong_dts"],
            "memory": {"x": mu_x, "z": mu_z, "equal": mu_x == mu_z},
            "a7_symmetry": checks["a7_symmetry"],
            "d_free": d_free,
            "violations": [
                {"check": check, "detail": detail}
                for check, detail in report.violations
            ],
            "warnings": code.notes,
        }
        print(json.dumps(payload))
    else:
        for note in code.notes:
            print(f"warning: {note}")
        for key in ("strong_dts", "csoc_x", "csoc_z", "commuting", "a7_symmetry"):
            print(f"{key}: {'ok' if checks[key] else 'FAIL'}")
        print(f"memory: X={mu_x} Z={mu_z} {'ok' if mu_x == mu_z else 'FAIL'}")
        if d_free is not None:
            print(f"d_free: {d_free}")
        for check, detail in report.violations:
            print(f"violation [{check}]: {detail}")
        print("verdict: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_distance(args: argparse.Namespace) -> int:
    code = load_code_input(args.input, args.one_based)
    x = build_systematic_x(code.family)
    streams = x.ncols - 1
    mu = memory(x)
    budget = args.budget if args.budget is not None else MAX_EXACT_BUDGET
    if reason := exact_search_guard(budget):
        raise ValueError(reason)

    if is_csoc(x).ok:
        cert = certify_dfree(x)
        d_free: int | str = cert.d_free
        method = str(cert.method)
        witness = [[t, list(bits)] for t, bits in cert.witness]
    else:
        found = dfree_exact(x, budget=budget)
        d_free = found if found is not None else f">{budget}"
        method = str(Method.EXACT_SEARCH)
        upper = dfree_upper(x)
        witness = (
            [[t, list(bits)] for t, bits in upper.witness]
            if found is not None and upper.d_free == found
            else []
        )

    profile = []
    j = 0
    while j <= 2 * mu and (j + 1) * streams <= MAX_WINDOW_BITS:
        value = column_distance(x, j)
        profile.append(value)
        if isinstance(d_free, int) and value >= d_free:
            break
        j += 1

    payload = {
        "d_free": d_free,
        "method": method,
        "witness": witness,
        "column_distances": profile,
        "warnings": code.notes,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for note in code.notes:
            print(f"warning: {note}")
        print(f"d_free = {d_free} ({method})")
        print(f"column distances [0..{len(profile) - 1}]: {profile}")
        if witness:
            rendered = ", ".join(
                f"t={t}:" + "".join(str(b) for b in bits) for t, bits in witness
            )
            print(f"witness: {rendered}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    validate_tables()
    rows = rows_for(args.table, args.row)
    if not rows:
        raise ValueError("no table rows match the requested filter")

    results = []
    for row in rows:
        code = _code_input({
            "T": [list(s) for s in row.t_sets],
            "Z": [list(s) for s in row.z_sets],
            "m": row.m,
            "w": row.w,
        }, one_based_override=True)
        x, z = _pair_from_input(code)
        checks = verify_pair(
            x, z, expect_m=code.expected_m, expect_w=code.expected_w
        ).checks
        checks["reflect_match"] = sorted(parity_supports(build_z(x))) == sorted(code.z_sets)
        results.append((row, x, z, {name: checks[name] for name in TABLE_CHECKS}))

    failed = [
        (row, [k for k, ok in checks.items() if not ok])
        for row, _, _, checks in results
        if not all(checks.values())
    ]

    if args.json:
        payload = {
            "rows": [
                {
                    "table": row.table_id,
                    "row": row.row_no,
                    "rate": row.rate_label,
                    "m": row.m,
                    "w": row.w,
                    "T": [list(s) for s in row.t_sets],
                    "Z": [list(s) for s in row.z_sets],
                    "g_x": [list(s) for s in row.g_x],
                    "g_z": [list(s) for s in row.g_z],
                    "checks": checks,
                    "pass": all(checks.values()),
                }
                for row, _, _, checks in results
            ],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        print(json.dumps(payload))
    else:
        current_table = None
        for row, x, z, checks in results:
            if row.table_id != current_table:
                current_table = row.table_id
                print(f"Table {row.table_id} (rate {row.rate_label})")
            print(
                f"  row {row.row_no}: m={row.m} w={row.w}"
                f"  T: {_format_sets(row.t_sets)}"
                f"  g: {_format_sets(row.g_x)}"
            )
            print(
                f"         Z: {_format_sets(row.z_sets)}"
                f"  g: {_format_sets(row.g_z)}"
            )
            if args.row is not None:
                print(f"         X(D) = {x}")
                print(f"         Z(D) = {z}")
            verdict = "PASS" if all(checks.values()) else "FAIL"
            detail = " ".join(
                f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items()
            )
            print(f"         {detail} -> {verdict}")
        print(
            f"tables: {len(results)} rows, "
            f"{len(results) - len(failed)} passed, {len(failed)} failed"
        )
        for row, bad in failed:
            print(
                f"FAIL table {row.table_id} row {row.row_no}: {', '.join(bad)}"
            )
    return 0 if not failed else 1


class _SetTexts(dict):
    """Maps a support set to its JSON text, rendered on first use."""

    def __missing__(self, elements: tuple[int, ...]) -> str:
        text = self[elements] = str(list(elements))
        return text


class _LineTails(dict):
    """Maps ``(classification, budget)`` to the text of a line after its sets."""

    def __missing__(self, key: tuple[DtsClass, int]) -> str:
        classification, m = key
        text = self[key] = (
            f'], "classification": "{classification.name}", '
            f'"scope": {m}, "budget": {m}}}\n'
        )
        return text


def _search_lines(families: Iterable[DtsFamily]) -> Iterator[str]:
    """One JSON line per family, as ``json.dumps`` writes the object
    ``{"one_based": false, "sets": ..., "classification": ..., "scope": M,
    "budget": M}``, yielded as soon as the family is drawn.

    A line is a prefix holding the family's first r-1 sets, the last set's
    text and a tail. The search yields runs of families that share their
    first r-1 sets, so the prefix is rendered once per run: a run goes on
    while ``sets[:-1]`` equals the previous head. Each distinct set is
    rendered once per command, and each tail once per ``(classification,
    budget)``. All families hold r sets, as in one search stream. Every
    set ``search_strong_dts`` yields is normalized, so a family's scope is
    its largest difference, which is its budget M.
    """
    texts = _SetTexts()
    tails = _LineTails()
    head = prefix = None
    for f in families:
        sets = f.sets
        if sets[:-1] != head:
            head = sets[:-1]
            prefix = '{"one_based": false, "sets": [' + "".join(
                [texts[s] + ", " for s in head]
            )
        yield prefix + texts[sets[-1]] + tails[f.classification, f.budget]


def cmd_search(args: argparse.Namespace) -> int:
    guards = SEARCH_GUARDS
    override = os.environ.get("QCCDTS_MAX_SEARCH")
    if override is not None:
        try:
            cap = int(override)
        except ValueError:
            raise ValueError(
                f"QCCDTS_MAX_SEARCH must be an integer, got {override!r}"
            ) from None
        # The variable only lifts guards: a cap below a default keeps it.
        guards = {name: max(default, cap) for name, default in guards.items()}

    for name, value in (("r", args.r), ("w", args.w), ("max_scope", args.max_scope)):
        if value > guards[name]:
            raise ValueError(
                f"{name}={value} exceeds guard {guards[name]} "
                "(set QCCDTS_MAX_SEARCH to override)"
            )

    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")

    # The engine runs its argument checks only once iterated, which
    # ``--limit 0`` never does, so they run here first; main reports their
    # ValueError as an input error.
    _check_search_args(args.r, args.w, args.max_scope)
    families = search_strong_dts(args.r, args.w, args.max_scope)
    if args.full_strong:
        full_strong = DtsClass.FULL_STRONG
        families = (f for f in families if f.classification == full_strong)
    if args.limit is not None:
        # islice takes at most sys.maxsize, more families than any stream holds.
        families = itertools.islice(families, min(args.limit, sys.maxsize))
    sys.stdout.writelines(_search_lines(families))
    return 0


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="code description JSON file")
    convention = p.add_mutually_exclusive_group()
    convention.add_argument(
        "--one-based", dest="one_based", action="store_true", default=None,
        help="treat input sets as 1-based (table convention)",
    )
    convention.add_argument(
        "--zero-based", dest="one_based", action="store_false",
        help="treat input sets as 0-based exponents",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_distance(p: argparse.ArgumentParser) -> None:
    _add_io(p)
    p.add_argument(
        "--budget", type=int, default=None,
        help="weight budget for the exact search on non-self-orthogonal input",
    )


def _add_tables(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", type=int, default=None, choices=(1, 2, 3))
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--json", action="store_true")


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("r", type=int, help="number of sets")
    p.add_argument("w", type=int, help="set weight")
    p.add_argument("max_scope", type=int, help="largest allowed exponent")
    p.add_argument("--full-strong", action="store_true")
    p.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many families (0 prints none)",
    )


# name -> (help, configure, handler), in the order --help lists them.
_COMMANDS = {
    "build": ("build X(D), Z(D) and parameters", _add_io, cmd_build),
    "reflect": ("reflect a family into its Z supports", _add_io, cmd_reflect),
    "verify": ("run the full certification suite", _add_io, cmd_verify),
    "distance": ("free distance and column distances", _add_distance, cmd_distance),
    "tables": ("re-verify the built-in catalogue", _add_tables, cmd_tables),
    "search": ("enumerate strong families", _add_search, cmd_search),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with all six subparsers.

    It is built on first use and returned to every later caller, so
    callers must not add arguments to it or change its defaults. Its
    ``commands`` attribute maps each command's name to its subparser.
    A subparser holds no handler, so a shared tree cannot outlive a
    change to ``_COMMANDS``: ``main`` looks the handler up there.
    """
    parser = argparse.ArgumentParser(
        prog="qccdts",
        description=(
            "Construct and certify quantum convolutional stabilizer pairs "
            "from strong difference triangle sets."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, configure, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        configure(p)
        p.set_defaults(command=name)
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0] in _COMMANDS:
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            # The full tree reports them, with its usage line, and exits 2.
            args = parser.parse_args(argv)
    else:
        args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command][2](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        # An invariant of the library itself broke (certify_dfree's
        # cross-check, validate_tables): neither the input's fault nor a
        # verdict about it.
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader went away (``qccdts search ... | head``). Send the rest
        # of stdout to devnull so the flush at interpreter exit cannot raise
        # again; a closed pipe is not a failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""Hand-run mutation gate: each recorded mutant must fail the tests it names.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only these, named as in MUTANTS

Each record in ``MUTANTS`` names a module under ``src/qccdts``, an exact
text that must occur in it exactly once, the text that replaces it, and
the test files to run. A mutant of several edits gives a tuple of texts
and a tuple of replacements; each text must occur exactly once. The tool
copies the repository (without ``.git`` and caches) to a temporary
directory and first runs each named group of test files on the unmutated
copy, which must pass. Then, one mutant at a time, it writes the mutated
module into the copy, runs ``pytest -x -q`` on the mutant's test files
and restores the module. A mutant is ``killed`` when the tests fail or
time out, and ``SURVIVED`` when they pass. A broken record (see
``broken_records``) is an error, never a kill, and so is a failing
unmutated run.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 on a
broken record or a failing unmutated run. It uses only the standard
library and pytest. ``tests/test_mutants.py`` checks every record with
``broken_records`` but runs no mutant, so the gate itself stays a hand
run. A change that mends or adds a mutant records it here rather than
describing it in prose.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

# cli._search_lines's loop, and the mutant of it that buffers each run.
_RENDER_LOOP = '''\
    head = prefix = None
    for f in families:
        sets = f.sets
        if sets[:-1] != head:
            head = sets[:-1]
            prefix = '{"one_based": false, "sets": [' + "".join(
                [texts[s] + ", " for s in head]
            )
        yield prefix + texts[sets[-1]] + tails[f.classification, f.budget]
'''
_BUFFERED_LOOP = '''\
    head = prefix = None
    run = []
    for f in families:
        sets = f.sets
        if sets[:-1] != head:
            yield from run
            run = []
            head = sets[:-1]
            prefix = '{"one_based": false, "sets": [' + "".join(
                [texts[s] + ", " for s in head]
            )
        run.append(prefix + texts[sets[-1]] + tails[f.classification, f.budget])
    yield from run
'''

# cli.build_parser's cache, and the mutant of it that keeps the name
# cache_clear but builds the tree again on every call.
_TREE_CACHE = '''\
@functools.cache
def build_parser() -> argparse.ArgumentParser:
'''
_NO_CACHE = '''\
def _rebuilt(build):
    build.cache_clear = lambda: None
    return build


@_rebuilt
def build_parser() -> argparse.ArgumentParser:
'''

# (name, module, old text or texts, new text or texts, test files)
MUTANTS = [
    # The support check in dts.as_support.
    (
        "as_support accepts a negative element",
        "dts.py",
        "if not isinstance(e, int) or isinstance(e, bool) or e < 0:",
        "if not isinstance(e, int) or isinstance(e, bool):",
        ("tests/test_dts.py",),
    ),
    (
        "as_support accepts a bool",
        "dts.py",
        "if not isinstance(e, int) or isinstance(e, bool) or e < 0:",
        "if not isinstance(e, int) or e < 0:",
        ("tests/test_dts.py",),
    ),
    (
        "as_support accepts a repeat (e < prev)",
        "dts.py",
        "        if e <= prev:",
        "        if e < prev:",
        ("tests/test_dts.py",),
    ),
    (
        "as_support sorts before checking its elements",
        "dts.py",
        "    elements = tuple(values)\n",
        "    elements = tuple(sorted(values))\n",
        ("tests/test_dts.py",),
    ),
    (
        "as_support accepts an empty set",
        "dts.py",
        '    if not elements:\n        raise ValueError("support set must be nonempty")\n',
        "",
        ("tests/test_dts.py",),
    ),
    # The one difference check, dts.repeated_differences, and its order.
    (
        "collision order changed",
        "dts.py",
        "sorted(a & b)",
        "sorted(a & b, reverse=True)",
        ("tests/test_dts.py",),
    ),
    (
        "no collisions reported",
        "dts.py",
        "    return tuple(collisions)\n",
        "    return ()\n",
        ("tests/test_dts.py",),
    ),
    (
        "one collision per repeated run",
        "dts.py",
        "            for prev, d in zip(diffs, diffs[1:])\n"
        "            if d == prev\n",
        "            for d in sorted({d for prev, d in zip(diffs, diffs[1:]) if d == prev})\n",
        ("tests/test_dts.py",),
    ),
    # The verdict rule below DTS, dts._below_dts, shared by classify and
    # reflect.verify_pair.
    (
        "one-entry collision read as WDTS",
        "dts.py",
        "        return DtsClass.NOT_WDTS\n",
        "        return DtsClass.WDTS\n",
        ("tests/test_reflect.py",),
    ),
    (
        "weight 1 read as strong",
        "dts.py",
        "if len(members[0]) == 1 or collisions:",
        "if collisions:",
        ("tests/test_reflect.py",),
    ),
    # The input parser, cli._code_input.
    (
        "one_based null rejected again",
        "cli.py",
        '    one_based = payload.get("one_based")\n'
        "    if one_based is None:\n"
        "        one_based = True\n"
        "    elif not isinstance(one_based, bool):\n",
        '    one_based = payload.get("one_based", True)\n'
        "    if not isinstance(one_based, bool):\n",
        ("tests/test_cli.py",),
    ),
    # The --input reader, cli.load_code_input.
    (
        "too deep a JSON nesting reads as internal",
        "cli.py",
        "except (ValueError, RecursionError) as exc:",
        "except ValueError as exc:",
        ("tests/test_cli.py",),
    ),
    (
        "malformed CRLF JSON names raw positions",
        "cli.py",
        '        return json.loads(text.replace("\\r\\n", "\\n").replace("\\r", "\\n"))\n',
        "        raise\n",
        ("tests/test_cli.py",),
    ),
    (
        "CRLF translated as two newlines",
        "cli.py",
        'text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        'text.replace("\\r", "\\n")',
        ("tests/test_cli.py",),
    ),
    (
        "parsed sets left in input order",
        "cli.py",
        "tuple(sorted([e - low for e in s]))",
        "tuple([e - low for e in s])",
        ("tests/test_cli.py",),
    ),
    # The search line renderer, cli._search_lines.
    (
        "search head compared by identity",
        "cli.py",
        "if sets[:-1] != head:",
        "if sets[:-1] is not head:",
        ("tests/test_cli.py",),
    ),
    (
        "search line tail keyed by budget alone",
        "cli.py",
        "tails[f.classification, f.budget]",
        "tails.setdefault(f.budget, tails[f.classification, f.budget])",
        ("tests/test_cli.py",),
    ),
    (
        'search line drops ", " after a one-set prefix (r = 2)',
        "cli.py",
        '[texts[s] + ", " for s in head]',
        '[texts[s] + (", " if len(head) != 1 else "") for s in head]',
        ("tests/test_cli.py",),
    ),
    (
        "search lines buffered per run",
        "cli.py",
        _RENDER_LOOP,
        _BUFFERED_LOOP,
        ("tests/test_cli.py",),
    ),
    (
        "search argument checks skipped under --limit 0",
        "cli.py",
        "    _check_search_args(args.r, args.w, args.max_scope)\n",
        "",
        ("tests/test_cli.py",),
    ),
    # The tree cli.build_parser builds once per process, and main's parse.
    (
        "handler stored in the cached parser",
        "cli.py",
        (
            "        p.set_defaults(command=name)\n",
            "        code = _COMMANDS[args.command][2](args)\n",
        ),
        (
            "        p.set_defaults(func=_COMMANDS[name][2], command=name)\n",
            "        code = args.func(args)\n",
        ),
        ("tests/test_cli.py",),
    ),
    (
        "tree rebuilt on every call",
        "cli.py",
        _TREE_CACHE,
        _NO_CACHE,
        ("tests/test_cli.py",),
    ),
    (
        "full tree with one subparser",
        "cli.py",
        "    for name, (help_text, configure, _) in _COMMANDS.items():\n",
        "    for name, (help_text, configure, _) in list(_COMMANDS.items())[:1]:\n",
        ("tests/test_cli.py",),
    ),
    (
        "main parses a command with the full tree",
        "cli.py",
        "        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])\n",
        "        args, extra = parser.parse_known_args(argv)\n",
        ("tests/test_cli.py",),
    ),
    # FULL_STRONG by count in dts.search_strong_dts.
    (
        "perfect count + 1",
        "dts.py",
        "    perfect = r * (w * (w - 1) // 2)\n",
        "    perfect = r * (w * (w - 1) // 2) + 1\n",
        ("tests/test_dts.py",),
    ),
    (
        "perfect count - 1",
        "dts.py",
        "    perfect = r * (w * (w - 1) // 2)\n",
        "    perfect = r * (w * (w - 1) // 2) - 1\n",
        ("tests/test_dts.py",),
    ),
    # The strong-family engine, dts.search_strong_dts: r-combinations at
    # w = 2, candidate bitsets at w >= 3.
    (
        "w = 2 families drawn from cands[1:]",
        "dts.py",
        "        for sets in itertools.combinations(cands, r):\n",
        "        for sets in itertools.combinations(cands[1:], r):\n",
        ("tests/test_dts.py",),
    ),
    (
        "w = 2 budget read as sets[0][1]",
        "dts.py",
        "            budget = sets[-1][1]\n",
        "            budget = sets[0][1]\n",
        ("tests/test_dts.py",),
    ),
    (
        "popcount prune one tighter",
        "dts.py",
        "        if pool.bit_count() < r - len(chosen):\n",
        "        if pool.bit_count() < r - len(chosen) + 1:\n",
        ("tests/test_dts.py",),
    ),
    (
        "last level decoded in ascending bit order",
        "dts.py",
        "                top = pool.bit_length() - 1\n",
        "                top = (pool & -pool).bit_length() - 1\n",
        ("tests/test_dts.py",),
    ),
    (
        "child pool keeps clashing candidates (& ~clash dropped)",
        "dts.py",
        "        stack.append((rest & ~clash, chosen + (member,), used | mask))\n",
        "        stack.append((rest, chosen + (member,), used | mask))\n",
        ("tests/test_dts.py",),
    ),
    (
        "index row read from the neighbouring byte",
        "dts.py",
        "column = packed[width - 1 - (d >> 3)::width]",
        "column = packed[max(width - 2 - (d >> 3), 0)::width]",
        ("tests/test_dts.py",),
    ),
    (
        "index row read from the next bit",
        "dts.py",
        "_BIT_CHARS[d & 7]",
        "_BIT_CHARS[(d + 1) & 7]",
        ("tests/test_dts.py",),
    ),
    (
        "clash cache unbounded",
        "dts.py",
        "            if top < _CACHED_BITS:\n",
        "            if True:\n",
        ("tests/test_dts.py",),
    ),
    (
        "search depth capped at 4 sets",
        "dts.py",
        "    last = r - 1\n",
        "    last = min(r - 1, 3)\n",
        ("tests/test_dts.py",),
    ),
    (
        "search skips the next sibling",
        "dts.py",
        "        stack.append((rest, chosen, used))\n",
        "        stack.append((rest ^ (1 << rest.bit_length() >> 1), chosen, used))\n",
        ("tests/test_dts.py",),
    ),
    (
        "search classifies with int, not DtsClass",
        "dts.py",
        "    strong, full_strong = DtsClass.STRONG, DtsClass.FULL_STRONG\n",
        "    strong, full_strong = int(DtsClass.STRONG), int(DtsClass.FULL_STRONG)\n",
        ("tests/test_dts.py",),
    ),
    # The one depth-first search, distance._lightest, and its callers.
    (
        "flush-only search also completes at last",
        "distance.py",
        "if not nxt or (window and t == last):",
        "if not nxt or t == last:",
        ("tests/test_distance.py",),
    ),
    (
        "search descends at t == last",
        "distance.py",
        "            elif t < last:",
        "            elif t <= last:",
        ("tests/test_distance.py",),
    ),
    (
        "dfree_exact seeded with budget",
        "distance.py",
        "depth - 1, budget + 1, window=False)",
        "depth - 1, budget, window=False)",
        ("tests/test_distance.py",),
    ),
    (
        "zero first frame allowed",
        "distance.py",
        "for u in inputs[1:] if t == 0 else inputs:",
        "for u in inputs:",
        ("tests/test_distance.py",),
    ),
    (
        "column seed counts t < j",
        "distance.py",
        "map(bisect_right, supports, repeat(j))",
        "map(bisect_right, supports, repeat(j - 1))",
        ("tests/test_distance.py",),
    ),
    (
        "column seed taken with bisect_left",
        "distance.py",
        ("from bisect import bisect_right\n", "map(bisect_right, supports, repeat(j))"),
        ("from bisect import bisect_left, bisect_right\n", "map(bisect_left, supports, repeat(j))"),
        ("tests/test_distance.py",),
    ),
    (
        "column seed of 3 returned without a search",
        "distance.py",
        "    if seed <= 2:\n",
        "    if seed <= 3:\n",
        ("tests/test_distance.py",),
    ),
    (
        "dfree_exact accepts horizon 0",
        "distance.py",
        "if horizon is not None and horizon < 1:",
        "if horizon is not None and horizon < 0:",
        ("tests/test_distance.py",),
    ),
    (
        "register not masked to its frames",
        "distance.py",
        "nxt = ((state << streams) | u) & keep",
        "nxt = (state << streams) | u",
        ("tests/test_distance.py",),
    ),
    (
        "register masked before the OR",
        "distance.py",
        "nxt = ((state << streams) | u) & keep",
        "nxt = ((state << streams) & keep) | u",
        ("tests/test_distance.py",),
    ),
    (
        "register taps one delay off",
        "distance.py",
        "taps |= 1 << (streams * (ell - 1) + i)",
        "taps |= 1 << (streams * ell + i)",
        ("tests/test_distance.py",),
    ),
    (
        "stored frames' parity ignored",
        "distance.py",
        "        p = (state & taps).bit_count() & 1\n",
        "        p = 0\n",
        ("tests/test_distance.py",),
    ),
    # The zero-tail walk in distance._lightest.
    (
        "zero-tail walk runs past last",
        "distance.py",
        "for s in range(t + 1, last + 1):",
        "for s in range(t + 1, last + frames + 2):",
        ("tests/test_distance.py",),
    ),
    (
        "zero-tail walk ignores the window end",
        "distance.py",
        "if not nxt or (window and s == last):",
        "if not nxt:",
        ("tests/test_distance.py",),
    ),
    (
        "zero-tail walk from best - 2",
        "distance.py",
        "if w2 < best - 1:",
        "if w2 < best - 2:",
        ("tests/test_distance.py",),
    ),
    (
        "zero-tail walk shifts before its first parity test",
        "distance.py",
        "                    if (nxt & taps).bit_count() & 1:\n"
        "                        break\n"
        "                    nxt = (nxt << streams) & keep\n",
        "                    nxt = (nxt << streams) & keep\n"
        "                    if (nxt & taps).bit_count() & 1:\n"
        "                        break\n",
        ("tests/test_distance.py",),
    ),
    (
        "distance accepts a negative exponent",
        "distance.py",
        "if sup and sup[0] < 0:",
        "if False:",
        ("tests/test_distance.py",),
    ),
    # The one row shape, gf2poly.PolyMatrix, and the Gf2Poly it holds.
    (
        "PolyMatrix accepts a second row",
        "gf2poly.py",
        "            if not isinstance(p, Gf2Poly):\n",
        "            if not isinstance(p, (Gf2Poly, tuple)):\n",
        ("tests/test_gf2poly.py", "tests/test_csoc.py"),
    ),
    (
        "PolyMatrix keeps a list row",
        "gf2poly.py",
        "        row = tuple(polys)\n",
        "        row = polys if isinstance(polys, list) else tuple(polys)\n",
        ("tests/test_gf2poly.py",),
    ),
    (
        "Gf2Poly accepts a bool exponent",
        "gf2poly.py",
        "if not isinstance(e, int) or isinstance(e, bool):",
        "if not isinstance(e, int):",
        ("tests/test_gf2poly.py",),
    ),
    (
        "degree of zero returns a value",
        "gf2poly.py",
        "        if not self.support:\n"
        '            raise ValueError("degree of the zero polynomial is undefined")\n'
        "        return self.support[-1]\n",
        "        return self.support[-1] if self.support else -1\n",
        ("tests/test_gf2poly.py",),
    ),
    (
        "from_exponents checks types after the fold",
        "gf2poly.py",
        "_INT_ONLY.issuperset(map(type, exponents))",
        "_INT_ONLY.issuperset(map(type, Counter(exponents)))",
        ("tests/test_gf2poly.py",),
    ),
    (
        "from_exponents accepts an int subclass",
        "gf2poly.py",
        "_INT_ONLY.issuperset(map(type, exponents))",
        "all(isinstance(e, int) for e in exponents)",
        ("tests/test_gf2poly.py",),
    ),
    # The facts each row keeps in its own cache slots, and their readers.
    (
        "a new row inherits the last row's facts",
        "gf2poly.py",
        "            _setattr(self, cache, None)\n",
        "            _setattr(self, cache, getattr(getattr(PolyMatrix, '_last', None), cache, None))\n"
        "        PolyMatrix._last = self\n",
        ("tests/test_symplectic.py",),
    ),
    (
        "CSOC verdict cached before the systematic check passes",
        "csoc.py",
        "        collisions = repeated_differences(parity_supports(x))\n"
        "        report = CsocReport(ok=not collisions, collisions=collisions)\n"
        '        _setattr(x, "_csoc", report)\n',
        "        collisions = repeated_differences([p.support for p in x.row[:-1]])\n"
        "        report = CsocReport(ok=not collisions, collisions=collisions)\n"
        '        _setattr(x, "_csoc", report)\n'
        "        parity_supports(x)\n",
        ("tests/test_symplectic.py",),
    ),
    (
        "parity supports cached before the systematic check passes",
        "csoc.py",
        "        row = x.row\n",
        "        row = x.row\n"
        '        _setattr(x, "_supports", tuple([p.support for p in row[:-1]]))\n',
        ("tests/test_symplectic.py",),
    ),
    (
        "causal supports cached before the negative-exponent check",
        "distance.py",
        "        supports = parity_supports(x)\n",
        "        supports = parity_supports(x)\n"
        '        _setattr(x, "_causal", supports)\n',
        ("tests/test_symplectic.py",),
    ),
    # The A7 check: the one-row kernel, its odd-delay set and the scan over s.
    (
        "A7 kernel halves abs(s)",
        "symplectic.py",
        "    return _ONE_1X1 if s >> 1 in delays else _ZERO_1X1\n",
        "    return _ONE_1X1 if abs(s) >> 1 in delays else _ZERO_1X1\n",
        ("tests/test_symplectic.py",),
    ),
    (
        "A7 kernel reads a count as its parity",
        "symplectic.py",
        "s >> 1 in delays",
        "any(s >> 1 in p.support for p in x.row)",
        ("tests/test_symplectic.py",),
    ),
    (
        "A7 kernel skips the identity column",
        "symplectic.py",
        "s >> 1 in delays",
        "(s >> 1 in delays) != (s == 0)",
        ("tests/test_symplectic.py",),
    ),
    (
        "A7 kernel reads the parity supports' slot",
        "symplectic.py",
        "    delays = x._odd\n    if delays is None:\n        delays = _odd_delays(x)\n",
        "    delays = x._supports\n    if delays is None:\n        delays = _odd_delays(x)\n",
        ("tests/test_symplectic.py",),
    ),
    (
        "odd-delay set is a union",
        "symplectic.py",
        "odd.symmetric_difference_update(p.support)",
        "odd.update(p.support)",
        ("tests/test_symplectic.py",),
    ),
    (
        "odd-delay set skips the systematic column",
        "symplectic.py",
        "        for p in x.row:\n",
        "        for p in x.row[:-1]:\n",
        ("tests/test_symplectic.py",),
    ),
    (
        "A7 scan stops at M / 2",
        "symplectic.py",
        "zip(matrices[: window + 1], mirrored)",
        "zip(matrices[: window // 2 + 1], mirrored)",
        ("tests/test_symplectic.py",),
    ),
    # The reflect command.
    (
        "reflect prints the identity-pi family",
        "cli.py",
        "    z_sets = parity_supports(z)\n",
        "    z_sets = parity_supports(build_z(x))\n",
        ("tests/test_cli.py",),
    ),
    # The half sum, symplectic.symplectic_sum: P folded once, XOR its mirror.
    (
        "symplectic sum's (z, x) half unmirrored",
        "symplectic.py",
        "    odd ^= {-e for e in odd}\n",
        "    odd ^= {e for e in odd}\n",
        ("tests/test_gf2poly.py", "tests/test_symplectic.py"),
    ),
    (
        "symplectic sum adds t + u",
        "symplectic.py",
        "{t - u for u in right}",
        "{t + u for u in right}",
        ("tests/test_gf2poly.py", "tests/test_symplectic.py"),
    ),
    (
        "symplectic sum takes abs(t - u)",
        "symplectic.py",
        "{t - u for u in right}",
        "{abs(t - u) for u in right}",
        ("tests/test_gf2poly.py", "tests/test_symplectic.py"),
    ),
    (
        "symplectic sum without its mirror",
        "symplectic.py",
        "    odd ^= {-e for e in odd}\n",
        "",
        ("tests/test_gf2poly.py", "tests/test_symplectic.py"),
    ),
    (
        "symplectic sum's halves joined by union",
        "symplectic.py",
        "    odd ^= {-e for e in odd}\n",
        "    odd |= {-e for e in odd}\n",
        ("tests/test_gf2poly.py", "tests/test_symplectic.py"),
    ),
    # The violations of symplectic.is_commuting.
    (
        "is_commuting drops a violation",
        "symplectic.py",
        "symplectic_sum(x, z).row[0].support)",
        "symplectic_sum(x, z).row[0].support[1:])",
        ("tests/test_symplectic.py",),
    ),
    # The record base, gf2poly._Record.
    (
        "records compare across classes",
        "gf2poly.py",
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n",
        "",
        ("tests/test_records.py",),
    ),
    (
        "a cache slot counted as a field",
        "gf2poly.py",
        '[n for n in cls.__slots__ if not n.startswith("_")]',
        "list(cls.__slots__)",
        ("tests/test_records.py",),
    ),
    (
        "records accept assignment",
        "gf2poly.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")',
        "        object.__setattr__(self, name, value)",
        ("tests/test_records.py",),
    ),
    # The __init__ that _Record writes from a record's __slots__.
    (
        "written __init__ leaves out a field",
        "gf2poly.py",
        "for n in fields)",
        "for n in fields[:-1])",
        ("tests/test_records.py",),
    ),
    (
        "written __init__ replaces the checking constructors",
        "gf2poly.py",
        '        if "__init__" not in cls.__dict__:\n',
        "        if True:\n",
        ("tests/test_gf2poly.py", "tests/test_records.py"),
    ),
    (
        "written __init__ swaps two parameters",
        "gf2poly.py",
        "{', '.join(fields)}",
        "{', '.join(fields[1::-1] + fields[2:])}",
        ("tests/test_records.py",),
    ),
]


def _edits(old: str | tuple[str, ...], new: str | tuple[str, ...]) -> list[tuple[str, str]]:
    """A record's (old text, new text) pairs: one, or one per tuple element."""
    if isinstance(old, str):
        return [(old, new)]
    return list(zip(old, new, strict=True))


def _mutate(source: str, edits: list[tuple[str, str]]) -> str:
    for before, after in edits:
        source = source.replace(before, after)
    return source


def broken_records(records: list[tuple]) -> list[str]:
    """Why each broken record is broken, empty when none is.

    A record is broken when its name repeats, when one of its texts does
    not occur exactly once in its module, or when its mutated module does
    not compile.
    """
    names = [name for name, *_ in records]
    broken = [f"{name}: named {names.count(name)} times"
              for name in sorted(set(names)) if names.count(name) > 1]
    for name, module, old, new, _ in records:
        source = (ROOT / "src" / "qccdts" / module).read_text()
        edits = _edits(old, new)
        counts = [source.count(before) for before, _ in edits]
        if counts != [1] * len(edits):
            broken.append(f"{name}: texts occur {counts} times in {module}")
            continue
        try:
            compile(_mutate(source, edits), module, "exec")
        except SyntaxError as exc:
            broken.append(f"{name}: mutated {module} does not compile: {exc}")
    return broken


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, float]:
    """pytest's exit code on ``tests`` in ``tree`` (None on timeout), and seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)

    unknown = set(args.names) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    broken = broken_records(chosen)
    if broken:
        print("error: broken records\n  " + "\n  ".join(broken), file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="qccdts-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
        ))
        for tests in sorted({m[4] for m in chosen}):
            code, seconds = _pytest(tree, tests)
            if code != 0:
                print(f"error: unmutated {' '.join(tests)} fail (exit {code})",
                      file=sys.stderr)
                return 2
            print(f"baseline  {' '.join(tests)} pass ({seconds:.1f} s)")

        survived = []
        for name, module, old, new, tests in chosen:
            path = tree / "src" / "qccdts" / module
            source = path.read_text()
            path.write_text(_mutate(source, _edits(old, new)))
            try:
                code, seconds = _pytest(tree, tests)
            finally:
                path.write_text(source)
            if code == 0:
                survived.append(name)
            verdict = "SURVIVED" if code == 0 else "killed"
            how = "timeout" if code is None else f"{seconds:.1f} s"
            print(f"{verdict:<9} {name} ({' '.join(tests)}, {how})")

    print(f"{len(chosen)} mutants: {len(chosen) - len(survived)} killed, "
          f"{len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

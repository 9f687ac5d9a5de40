"""Seeded command lists for the four benchmark workloads.

Every workload is a fixed list of CLI commands that the client cycles
through. The list depends only on the seed: the same seed yields the
same commands and byte-identical ``--input`` files. Each command is
stratified into a slot (a shape class and a memory range, or a cost
band for ``search``) so that per-command costs are spread the same way
for every seed; the seed only picks the member of each slot.

This module does not import the library. The catalogue below is the
benchmark's own copy of the 14 published rows, used as input data.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("certify", "wide", "distance", "search")
CLASSES = tuple(itertools.product((2, 3, 4), (2, 3, 4)))  # (r, w)
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# (table, row, m, w, T, Z) with 1-based support sets, as published.
CATALOGUE = (
    (1, 1, 2, 2, ((1, 2), (1, 3)), ((1, 3), (2, 3))),
    (1, 2, 3, 2, ((1, 2), (1, 4)), ((1, 4), (3, 4))),
    (1, 3, 9, 3, ((1, 2, 4), (1, 5, 10)), ((1, 6, 10), (7, 9, 10))),
    (1, 4, 10, 3, ((1, 2, 4), (1, 5, 11)), ((1, 7, 11), (8, 10, 11))),
    (1, 5, 22, 4, ((1, 2, 4, 8), (1, 6, 14, 23)),
     ((1, 10, 18, 23), (16, 20, 22, 23))),
    (2, 1, 5, 2, ((1, 2), (1, 3), (1, 6)), ((4, 6), (5, 6), (1, 6))),
    (2, 2, 6, 2, ((1, 2), (1, 3), (1, 7)), ((5, 7), (6, 7), (1, 7))),
    (2, 3, 7, 2, ((1, 2), (1, 3), (1, 8)), ((6, 8), (7, 8), (1, 8))),
    (2, 4, 8, 2, ((1, 2), (1, 3), (1, 9)), ((7, 9), (8, 9), (1, 9))),
    (2, 5, 9, 2, ((1, 2), (1, 3), (1, 10)), ((8, 10), (9, 10), (1, 10))),
    (3, 1, 18, 3, ((1, 2, 4), (1, 5, 10), (1, 7, 14), (1, 9, 19)),
     ((10, 15, 19), (16, 18, 19), (1, 11, 19), (6, 13, 19))),
    (3, 2, 19, 3, ((1, 2, 4), (1, 5, 10), (1, 7, 14), (1, 9, 20)),
     ((11, 16, 20), (17, 19, 20), (1, 12, 20), (7, 14, 20))),
    (3, 3, 39, 4, ((1, 2, 4, 8), (1, 6, 14, 24), (1, 10, 25, 39), (1, 12, 28, 40)),
     ((17, 27, 35, 40), (33, 37, 39, 40), (1, 13, 29, 40), (2, 16, 31, 40))),
    (3, 4, 39, 4, ((1, 2, 4, 8), (1, 6, 14, 24), (1, 10, 25, 39), (1, 13, 29, 40)),
     ((17, 27, 35, 40), (33, 37, 39, 40), (1, 12, 28, 40), (2, 16, 31, 40))),
)

SEARCH_FAMILIES = (400, 11000)  # stream sizes the search table covers
SEARCH_GROUP = 2  # a search cycle takes one stream per pair of size neighbours
DISTANCE_PICKS = {"strong": 5, "colliding": 3}  # pool entries per slot and cycle


@dataclass
class Command:
    """One CLI invocation plus what the oracles need to judge its output."""

    kind: str  # verify | tables | distance | search
    argv: list[str]
    payload: dict | None = None  # the --input file contents
    meta: dict = field(default_factory=dict)


def counting_floor(r: int, w: int) -> int:
    """Smallest memory a strong (r, w) family can have: r * C(w, 2)."""
    return r * w * (w - 1) // 2


def low_memory(r: int, w: int) -> int:
    """Lowest memory drawn for (r, w): the floor plus slack, so draws finish."""
    floor = counting_floor(r, w)
    return floor + max(2, floor // 2)


def _draw_set(rng, w, memory, used, with_top):
    """One w-set in [0, memory] whose differences avoid ``used``, or None."""
    elems = [0, memory] if with_top else [0]
    diffs = {memory} if with_top else set()
    if diffs & used:
        return None
    while len(elems) < w:
        for _ in range(32):
            e = rng.randint(1, memory)
            new = {abs(e - a) for a in elems}
            if len(new) == len(elems) and not (new & (used | diffs)):
                elems.append(e)
                diffs |= new
                break
        else:
            return None
    return sorted(elems), diffs


def strong_family(rng: random.Random, r: int, w: int, memory: int) -> list[list[int]]:
    """r sets of w exponents in [0, memory], all r*C(w,2) differences distinct.

    Sets are built one at a time with a bounded number of draws; when a
    memory is too tight for the draws to succeed, the next memory up is
    tried, so generation always terminates. The largest exponent is
    exactly the returned family's memory.
    """
    for mem in range(memory, memory + 64):
        for _ in range(64):
            used: set[int] = set()
            sets = []
            for i in range(r):
                for _ in range(64):
                    got = _draw_set(rng, w, mem, used, with_top=(i == 0))
                    if got is not None:
                        break
                else:
                    break
                sets.append(got[0])
                used |= got[1]
            if len(sets) == r:
                rng.shuffle(sets)
                return sets
    raise RuntimeError(f"no strong ({r}, {w}) family near memory {memory}")


def colliding_family(rng: random.Random, r: int, w: int, memory: int) -> list[list[int]]:
    """r sets of w exponents in [0, memory] with at least one repeated difference."""
    while True:
        sets = [sorted({0, memory} | set(rng.sample(range(1, memory), w - 2)))]
        for _ in range(r - 1):
            sets.append(sorted([0] + rng.sample(range(1, memory + 1), w - 1)))
        diffs = [b - a for s in sets for a, b in itertools.combinations(s, 2)]
        if len(set(diffs)) < len(diffs):
            rng.shuffle(sets)
            return sets


def _pi(rng: random.Random, r: int, involution: bool) -> tuple[str, list[int] | None]:
    """A random fixed-point-free involution (even r only) or the identity."""
    if involution:
        streams = list(range(1, r + 1))
        rng.shuffle(streams)
        pi = [0] * r
        for a, b in zip(streams[::2], streams[1::2]):
            pi[a - 1], pi[b - 1] = b, a
        return "involution", pi
    if rng.random() < 0.5:
        return "identity", list(range(1, r + 1))
    return "identity", None  # omitted: the CLI default


def _one_based(sets) -> list[list[int]]:
    return [[e + 1 for e in s] for s in sets]


def _verify_payload(sets, pi, w) -> dict:
    payload = {"n": len(sets) + 1, "T": _one_based(sets), "one_based": True,
               "m": max(max(s) for s in sets), "w": w}
    if pi is not None:
        payload["pi"] = pi
    return payload


def _catalogue_payload(row) -> dict:
    _, _, m, w, t_sets, z_sets = row
    return {"n": len(t_sets) + 1, "T": [list(s) for s in t_sets],
            "Z": [list(s) for s in z_sets], "one_based": True, "m": m, "w": w}


def split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into ``parts`` consecutive ranges of nearly equal size."""
    edges = [lo + (hi - lo + 1) * i // parts for i in range(parts + 1)]
    return [(edges[i], max(edges[i], edges[i + 1] - 1)) for i in range(parts)]


def _generated_verify(rng, r, w, strata) -> list[Command]:
    """One verify per memory stratum; even r alternates involution and identity."""
    phase = rng.randrange(2)
    out = []
    for j, (lo, hi) in enumerate(strata):
        sets = strong_family(rng, r, w, rng.randint(lo, hi))
        kind, pi = _pi(rng, r, involution=r % 2 == 0 and (j + phase) % 2 == 0)
        out.append(Command("verify", ["verify", "--json"], _verify_payload(sets, pi, w),
                           {"pi_kind": kind}))
    return out


def certify_commands(rng: random.Random) -> list[Command]:
    """Six small strong families per (r, w) class, 14 catalogue rows, tables.

    Each class spans its memory range in six strata. Classes whose floor
    allows it get two families with memory <= 12, so that verify's exact
    d_free cross-check runs on them.
    """
    out = []
    for r, w in CLASSES:
        lo = low_memory(r, w)
        if lo <= 10:
            strata = split_range(lo, 12, 2) + split_range(13, 36, 2) + split_range(37, 60, 2)
        else:
            strata = split_range(lo, 60, 6)
        out += _generated_verify(rng, r, w, strata)
    for row in CATALOGUE:
        out.append(Command("verify", ["verify", "--json"], _catalogue_payload(row),
                           {"pi_kind": "explicit Z"}))
    out.append(Command("tables", ["tables", "--json"]))
    return out


def wide_commands(rng: random.Random) -> list[Command]:
    """27 strong families with memory 1000..8000, one per memory stratum.

    The strata form three tiers of nine, and the k-th (r, w) class takes
    the k-th stratum of every tier. The class-to-stratum map is fixed
    so that the costliest commands are the same shapes for every seed.
    """
    strata = split_range(1000, 8000, 3 * len(CLASSES))
    out = []
    for k, (r, w) in enumerate(CLASSES):
        out += _generated_verify(rng, r, w, strata[k::len(CLASSES)])
    return out


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def distance_commands(rng: random.Random, reference: dict) -> list[Command]:
    """The catalogue rows and a seeded sample of every slot of the recorded pool."""
    out = []
    for entry in reference["distance"]["catalogue"]:
        out.append(_distance_command(entry, None))
    for slot in reference["distance"]["strong"]:
        for entry in rng.sample(slot, DISTANCE_PICKS["strong"]):
            out.append(_distance_command(entry, None))
    for slot in reference["distance"]["colliding"]:
        for entry in rng.sample(slot, DISTANCE_PICKS["colliding"]):
            out.append(_distance_command(entry, rng.choice(sorted(entry["budgets"]))))
    rng.shuffle(out)
    return out


def _distance_command(entry: dict, budget: str | None) -> Command:
    """``distance`` on a pool entry; its recorded values travel as meta."""
    argv = ["distance", "--json"]
    recorded = entry
    if budget is not None:
        argv += ["--budget", budget]
        recorded = entry["budgets"][budget]
    payload = {"n": len(entry["T"]) + 1, "T": _one_based(entry["T"]), "one_based": True}
    return Command("distance", argv, payload, {
        "column_distances": recorded["column_distances"],
        "d_free": recorded["d_free"]})


def search_commands(rng: random.Random, reference: dict) -> list[Command]:
    """One stream from each pair of neighbours in the size-sorted table.

    Stratifying by size keeps the spread of command costs the same for
    every seed. Each picked stream runs twice per cycle, plain and with
    --full-strong, which skips most of the output; the two costs fill
    the gaps between neighbouring stream sizes.
    """
    table = sorted(reference["search"],
                   key=lambda c: (c["families"], c["r"], c["w"], c["scope"]))
    out = []
    for i in range(0, len(table), SEARCH_GROUP):
        pick = rng.choice(table[i:i + SEARCH_GROUP])
        argv = ["search", str(pick["r"]), str(pick["w"]), str(pick["scope"])]
        for full in (False, True):
            out.append(Command("search", argv + ["--full-strong"] * full, None, {
                "r": pick["r"], "w": pick["w"], "scope": pick["scope"],
                "full_strong": full, "families": pick["families"]}))
    rng.shuffle(out)
    return out


def build(workload: str, seed: int) -> list[Command]:
    """The cycle of commands for ``workload``; deterministic in ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return certify_commands(rng)
    if workload == "wide":
        return wide_commands(rng)
    if workload == "distance":
        return distance_commands(rng, load_reference())
    if workload == "search":
        return search_commands(rng, load_reference())
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(commands: list[Command], directory: Path) -> None:
    """Write each command's --input file and point its argv at it."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, cmd in enumerate(commands):
        if cmd.payload is None:
            continue
        path = directory / f"input_{i:03d}.json"
        path.write_text(json.dumps(cmd.payload, sort_keys=True) + "\n", encoding="utf-8")
        cmd.argv = cmd.argv + ["--input", str(path)]


def zero_based(payload: dict) -> tuple[list[list[int]], list[list[int]] | None]:
    """The X sets, and the explicit Z sets if any, as 0-based exponents."""
    shift = 1 if payload.get("one_based", True) else 0
    x = [[e - shift for e in s] for s in payload["T"]]
    z = payload.get("Z")
    return x, None if z is None else [[e - shift for e in s] for s in z]


def shape_summary(workload: str, commands: list[Command], commuting: int | None) -> str:
    """One line: command kinds, r, w, memory range, pi kinds, expected commuting."""
    kinds = Counter(cmd.kind for cmd in commands)
    parts = [f"{workload}: {len(commands)} commands per cycle ("
             + ", ".join(f"{n} {k}" for k, n in kinds.items()) + ")"]
    shapes = []
    for cmd in commands:
        if cmd.payload is not None:
            x, _ = zero_based(cmd.payload)
            shapes.append((len(x), len(x[0]), max(max(s) for s in x)))
        elif cmd.kind == "search":
            shapes.append((cmd.meta["r"], cmd.meta["w"], cmd.meta["scope"]))
    if shapes:
        rs, ws, ms = zip(*shapes)
        label = "scope" if workload == "search" else "memory"
        parts.append(f"r {min(rs)}..{max(rs)}, w {min(ws)}..{max(ws)}, "
                     f"{label} {min(ms)}..{max(ms)}")
    pis = Counter(cmd.meta["pi_kind"] for cmd in commands if "pi_kind" in cmd.meta)
    if pis:
        parts.append("pi " + ", ".join(f"{n} {k}" for k, n in sorted(pis.items())))
    if commuting is not None:
        parts.append(f"{commuting} of {kinds['verify']} verify expected to commute")
    budgets = sum("--budget" in cmd.argv for cmd in commands)
    if budgets:
        parts.append(f"{budgets} colliding families under --budget")
    if workload == "search":
        total = sum(c.meta["families"] for c in commands)
        full = sum(c.meta["full_strong"] for c in commands)
        parts.append(f"{total} families per cycle, {full} with --full-strong")
    return "; ".join(parts)

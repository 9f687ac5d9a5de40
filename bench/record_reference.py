"""Regenerate reference.json: the distance input pool and the search size table.

    python3 bench/record_reference.py

The distance pool is a fixed set of families (the 14 catalogue rows,
strong families with memory <= 40, and colliding families with memory
<= 12 under budgets 4, 5 and 6). Their column-distance profiles and
non-CSOC free distances are recorded by running the library once; the
benchmark then checks every later output against these values. The
search table lists each (r, w, scope) stream whose size lies in the
bands the search workload draws from, counted by the oracle enumerator.

Run it only when the pool itself has to change: the recorded values are
the reference later versions of the library are held to.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import oracles
import workloads
from workloads import CATALOGUE, CLASSES

POOL_SEED = "distance-pool"
CANDIDATES = 10  # pool entries per slot; a cycle samples some of them
SEARCH_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3))
MAX_SCOPE = 40  # the CLI's search guard


def run_distance(cli, sets, budget, scratch: Path) -> dict:
    path = scratch / "input.json"
    path.write_text(json.dumps({"T": sets, "one_based": False}))
    argv = ["distance", "--json", "--input", str(path)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"distance {sets} budget {budget} exited {rc}")
    got = json.loads(out.getvalue())
    return {"d_free": got["d_free"], "column_distances": got["column_distances"]}


def distance_pool(cli, scratch: Path) -> dict:
    rng = random.Random(POOL_SEED)
    catalogue = []
    for row in CATALOGUE:
        sets = [[e - 1 for e in s] for s in row[4]]
        catalogue.append({"T": sets, **run_distance(cli, sets, None, scratch)})
    strong = []
    for r, w in CLASSES:
        for lo, hi in workloads.split_range(workloads.low_memory(r, w), 40, 2):
            slot = []
            for _ in range(CANDIDATES):
                sets = workloads.strong_family(rng, r, w, rng.randint(lo, hi))
                slot.append({"T": sets, **run_distance(cli, sets, None, scratch)})
            strong.append(slot)
    colliding = []
    for r, w in CLASSES:
        slot = []
        for _ in range(CANDIDATES):
            sets = workloads.colliding_family(rng, r, w, rng.randint(6, 12))
            budgets = {str(b): run_distance(cli, sets, b, scratch) for b in (4, 5, 6)}
            slot.append({"T": sets, "budgets": budgets})
        colliding.append(slot)
    return {"catalogue": catalogue, "strong": strong, "colliding": colliding}


def search_table() -> list[dict]:
    lo, hi = workloads.SEARCH_FAMILIES
    table = []
    for r, w in SEARCH_SHAPES:
        for scope in range(w - 1, MAX_SCOPE + 1):
            families = len(oracles.strong_families(r, w, scope))
            if families >= hi:
                break
            if families >= lo:
                table.append({"r": r, "w": w, "scope": scope, "families": families})
    return table


def dumps(value, indent: int = 0) -> str:
    """JSON with every value that fits in 100 characters on one line."""
    flat = json.dumps(value)
    if len(flat) <= 100 or not isinstance(value, (list, dict)):
        return flat
    pad = " " * (indent + 1)
    if isinstance(value, list):
        items = [pad + dumps(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in value.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from qccdts import cli

    scratch = root / ".bench_work" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        reference = {"distance": distance_pool(cli, scratch), "search": search_table()}
    finally:
        shutil.rmtree(scratch)
    workloads.REFERENCE_FILE.write_text(dumps(reference) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

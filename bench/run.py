"""The qccdts benchmark: one seeded CLI workload, timed, checked and reported.

Usage, from the root of a checkout:
    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Steps: generate the workload's commands from the seed and write their
``--input`` files; time ``setup_s`` over fresh interpreters; run the
commands in one fresh worker process (``worker.py``) that drives
``qccdts.cli.main`` in-process for ``--seconds``; check every output
with the library-independent oracles; print one line per metric and,
last, a JSON object. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SPAWNS = 10  # half before the workload, half after it
SETUP_CODE = (
    "import time\n"
    "import qccdts.cli\n"
    "qccdts.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
MODULES = ("cli", "csoc", "distance", "dts", "gf2poly", "reflect", "symplectic", "tables")

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "cli.build_parser.self_ms": "ms",
    "cli.load_code_input.self_ms": "ms",
    "tables.validate_tables.self_ms": "ms",
    "dts.classify.calls": "count",
    "dts.classify.self_ms": "ms",
    "dts.search_strong_dts.self_ms": "ms",
    "dts.search_strong_dts.families": "count",
    "csoc.is_csoc.self_ms": "ms",
    "csoc.build_systematic_x.self_ms": "ms",
    "reflect.build_z.self_ms": "ms",
    "reflect.reflect_family.self_ms": "ms",
    "symplectic.is_commuting.self_ms": "ms",
    "symplectic.check_reflection_symmetry.self_ms": "ms",
    "symplectic.sum_index_matrix.calls": "count",
    "symplectic.sum_index_matrix.self_ms": "ms",
    "gf2poly.mat_mul_transpose.calls": "count",
    "gf2poly.mat_mul_transpose.self_ms": "ms",
    "distance.column_distance.calls": "count",
    "distance.column_distance.self_ms": "ms",
    "distance.dfree_exact.calls": "count",
    "distance.dfree_exact.self_ms": "ms",
    "distance.certify_dfree.self_ms": "ms",
    **{f"{m}.share": "fraction" for m in MODULES},
    "unattributed.share": "fraction",
    "trace_overhead_ms": "ms",
}


def measure_setup(env: dict, spawns: int) -> list[float]:
    """Seconds from spawning an interpreter to qccdts.cli imported, parser built.

    One extra spawn first is not counted. Set-up time is not scaled by
    the reference loop: unlike command times, it does not follow it.
    """
    samples = []
    for i in range(spawns + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout) - start)
    return samples


def timings(loop: dict) -> tuple[dict, dict]:
    """p50, p90 (ms), throughput and busy time of a timed loop: scaled, then raw."""
    scaled = hostspeed.scale(loop["times_ns"], loop["starts_ns"], loop["loops_ns"])
    out = []
    for times_ns in (scaled, loop["times_ns"]):
        ms = [t / 1e6 for t in times_ns]
        p90 = statistics.quantiles(ms, n=10)[8]
        busy_s = sum(ms) / 1e3
        out.append({"p50": statistics.median(ms), "p90": p90, "busy_s": busy_s,
                    "ops": len(ms) / busy_s, "beyond": sum(t > p90 for t in ms)})
    return out[0], out[1]


def failures(ok, runs, mismatches, broken=()) -> int:
    """Runs of wrong commands plus runs that did not repeat the checked output."""
    return sum(n if not ok[i] or i in broken else mismatches[i] for i, n in enumerate(runs))


def self_check(commands, ok, outputs, per_command) -> dict[int, list[str]]:
    """Right commands whose traced call counts disagree with what their input implies."""
    bad = {}
    for i, cmd in enumerate(commands):
        if not ok[i]:
            continue
        want = oracles.expected_calls(cmd, outputs[i][1])
        got = per_command[i]
        wrong = [f"{k}: {got.get(k, 0)} calls, expected {v}"
                 for k, v in want.items() if got.get(k, 0) != v]
        if wrong:
            bad[i] = wrong
    return bad


def layer_metrics(trace: dict) -> tuple[dict, list[str]]:
    """Per-command self time and calls of every traced function, module shares.

    Self times are scaled to the reference host by the run's median
    reference-loop time.
    """
    n = sum(trace["runs"])
    total_ns = sum(trace["times_ns"])
    per_ms = hostspeed.REFERENCE_NS / statistics.median(trace["loops_ns"]) / 1e6 / n
    values = {}
    rows = []
    for key in sorted(trace["self_ns"]):
        calls, self_ns = trace["counts"][key], trace["self_ns"][key]
        values[f"{key}.calls"] = calls / n
        values[f"{key}.self_ms"] = self_ns * per_ms
        if calls:
            rows.append(f"  {key:<44} {calls / n:12.2f} calls {self_ns * per_ms:10.4f} ms "
                        f"{self_ns / total_ns:8.2%}")
    for key, count in trace["counts"].items():
        if key.endswith(".families"):
            values[key] = count / n
    modules = sorted({key.split(".")[0] for key in trace["self_ns"]})
    for module in modules:
        own = sum(v for k, v in trace["self_ns"].items() if k.split(".")[0] == module)
        values[f"{module}.share"] = own / total_ns
    values["unattributed.share"] = 1 - sum(trace["self_ns"].values()) / total_ns
    return values, rows


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<46} {value:14.6f} {unit:<8} {note}".rstrip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "qccdts" / "cli.py").is_file():
        print(f"error: no qccdts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    commands = workloads.build(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(commands, work / "inputs")
    pairs = [oracles.pair(c.payload) for c in commands if c.kind == "verify"]
    commuting = sum(not oracles.symplectic_support(x, z) for x, z in pairs) if pairs else None
    print(workloads.shape_summary(args.workload, commands, commuting))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup = measure_setup(env, SETUP_SPAWNS // 2)

    (work / "commands.json").write_text(json.dumps([c.argv for c in commands]))
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
         "--commands", str(work / "commands.json"), "--outdir", str(work / "out"),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", str(work / "result.json")],
        cwd=ROOT, env=env, timeout=args.seconds + 120)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    setup += measure_setup(env, SETUP_SPAWNS - len(setup))
    result = json.loads((work / "result.json").read_text())

    outputs = []
    ok = []
    for i, cmd in enumerate(commands):
        rc = result["exit_codes"][i]
        out = (work / "out" / f"{i:03d}.out").read_text(encoding="utf-8")
        err = (work / "out" / f"{i:03d}.err").read_text(encoding="utf-8")
        problems = oracles.check(cmd, rc, out, err)
        for problem in problems[:3]:
            print(f"WRONG command {i} ({' '.join(cmd.argv)}): {problem}")
        outputs.append((rc, out))
        ok.append(not problems)

    attempted = len(result["times_ns"])
    failed = failures(ok, result["runs"], result["mismatches"])
    scaled, raw = timings(result)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms.p50": scaled["p50"],
        "op_ms.p90": scaled["p90"],
        "ops_per_s": scaled["ops"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    units = END_TO_END
    loop_us = statistics.median(result["loops_ns"]) / 1e3
    print(f"host: reference loop {loop_us:.1f} us here, {hostspeed.REFERENCE_NS / 1e3:.1f} us "
          "on the reference host; command times are scaled to it (raw in brackets)")
    print(line("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh interpreters"))
    print(line("op_ms.p50", scaled["p50"], "ms", f"n={attempted} [{raw['p50']:.4f}]"))
    print(line("op_ms.p90", scaled["p90"], "ms",
               f"n={attempted}, {scaled['beyond']} beyond p90 [{raw['p90']:.4f}]"))
    print(line("ops_per_s", scaled["ops"], "1/s",
               f"{attempted} commands in {raw['busy_s']:.3f} s inside main [{raw['ops']:.4f}]"))
    if args.workload == "search":
        families = sum(c.meta["families"] for c in commands)
        emitted = sum(n * out.count("\n") for n, (_, out) in zip(result["runs"], outputs))
        print(line("families_per_s", emitted / scaled["busy_s"], "1/s",
                   f"{emitted} families emitted; {families} enumerated per cycle "
                   f"[{emitted / raw['busy_s']:.4f}]"))
    print(line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "worker process"))

    if args.trace:
        trace = result["trace"]
        bad = self_check(commands, ok, outputs, trace["per_command"])
        for i, wrong in bad.items():
            print(f"SELF-CHECK command {i} ({' '.join(commands[i].argv)}): {wrong[0]}")
        if trace["inconsistent"]:
            print(f"SELF-CHECK totals disagree with per-command counts: {trace['inconsistent']}")
        changed = {i for i, c in enumerate(trace["changed_by_tracing"]) if c}
        broken = set(bad) | changed
        if trace["inconsistent"]:
            broken = set(range(len(commands)))
        attempted += sum(trace["runs"])
        failed += failures(ok, trace["runs"], trace["mismatches"], broken)
        values, rows = layer_metrics(trace)
        traced_p50 = timings(trace)[0]["p50"]
        values["trace_overhead_ms"] = traced_p50 - scaled["p50"]
        print(f"traced run: n={sum(trace['runs'])}, op_ms.p50 {traced_p50:.4f} ms traced "
              f"vs {scaled['p50']:.4f} ms untraced; self-check "
              + ("passed" if not bad and not trace["inconsistent"] else "FAILED"))
        print(f"  {'function':<44} {'per command':>18} {'self':>13} {'share':>8}")
        print("\n".join(rows))
        metrics = {k: values.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
        for key in PER_LAYER:
            if key.endswith(".share") or key == "trace_overhead_ms":
                print(line(key, metrics[key], PER_LAYER[key]))

    print(line("failed_ratio", failed / attempted, "fraction", f"{failed} of {attempted}"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

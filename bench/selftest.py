"""Self-tests of the benchmark: inputs, oracles, short runs, the metric contract.

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose: the short runs start
several interpreters and take about a minute.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import oracles
import run
import workloads

ROOT = run.ROOT
SCRATCH = ROOT / ".bench_work" / "selftest"


def library_output(cmd: workloads.Command) -> tuple[int, str]:
    """Run one command through the library in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from qccdts import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(cmd.argv)
    return rc, out.getvalue()


def written(workload: str, seed: int, name: str) -> tuple[list[list[str]], dict[str, bytes]]:
    commands = workloads.build(workload, seed)
    directory = SCRATCH / name
    shutil.rmtree(directory, ignore_errors=True)
    workloads.write_inputs(commands, directory)
    argv = [[a.replace(str(directory), "<dir>") for a in c.argv] for c in commands]
    return argv, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def first(workload: str, seed: int, test) -> workloads.Command:
    commands = workloads.build(workload, seed)
    workloads.write_inputs(commands, SCRATCH / f"{workload}-{seed}")
    return next(c for c in commands if test(c))


class Inputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(written(workload, 7, "a"), written(workload, 7, "b"))
                self.assertNotEqual(written(workload, 7, "a"), written(workload, 8, "b"))

    def test_generated_families_have_their_declared_shape(self):
        for seed in range(40):
            for workload in ("certify", "wide"):
                for cmd in workloads.build(workload, seed):
                    if cmd.payload is None or "Z" in cmd.payload:
                        continue
                    x, _ = workloads.zero_based(cmd.payload)
                    self.assertTrue(oracles.all_distinct(x))
                    self.assertEqual({len(s) for s in x}, {cmd.payload["w"]})
                    self.assertEqual(max(max(s) for s in x), cmd.payload["m"])

    def test_every_search_cycle_spans_the_size_range(self):
        lo, hi = workloads.SEARCH_FAMILIES
        for seed in range(6):
            sizes = [c.meta["families"] for c in workloads.build("search", seed)]
            self.assertLess(min(sizes), 2 * lo)
            self.assertGreater(max(sizes), hi / 2)

    def test_tight_scope_generation_terminates(self):
        import random

        rng = random.Random(0)
        sets = workloads.strong_family(rng, 4, 4, workloads.counting_floor(4, 4))
        self.assertTrue(oracles.all_distinct(sets))


class Oracles(unittest.TestCase):
    """Each oracle accepts the library's output and rejects a corrupted copy."""

    def assert_rejects(self, cmd, rc, payload):
        out = payload if isinstance(payload, str) else json.dumps(payload)
        self.assertNotEqual(oracles.check(cmd, rc, out, ""), [], out[:200])

    def test_verify(self):
        cmd = first("certify", 3, lambda c: c.meta.get("pi_kind") == "involution")
        rc, out = library_output(cmd)
        self.assertEqual(oracles.check(cmd, rc, out, ""), [])
        good = json.loads(out)
        for key, value in (("commuting", not good["commuting"]),
                           ("a7_symmetry", not good["a7_symmetry"]),
                           ("d_free", good["d_free"] + 1),
                           ("csoc_z", False),
                           ("violations", good["violations"][:-1])):
            bad = dict(good, **{key: value})
            self.assert_rejects(cmd, rc, bad)
        self.assert_rejects(cmd, 1 - rc, good)

    def test_verify_identity_pi_fails_to_commute(self):
        cmd = first("certify", 3, lambda c: c.kind == "verify" and c.meta["pi_kind"] == "identity"
                    and oracles.symplectic_support(*oracles.pair(c.payload)))
        rc, out = library_output(cmd)
        self.assertEqual(oracles.check(cmd, rc, out, ""), [])
        self.assert_rejects(cmd, rc, dict(json.loads(out), commuting=True))

    def test_tables(self):
        cmd = workloads.Command("tables", ["tables", "--json"])
        rc, out = library_output(cmd)
        self.assertEqual(oracles.check(cmd, rc, out, ""), [])
        good = json.loads(out)
        bad = copy.deepcopy(good)
        bad["rows"][0]["checks"]["a7_symmetry"] = False
        self.assert_rejects(cmd, rc, bad)
        self.assert_rejects(cmd, rc, dict(good, passed=good["passed"] + 1))
        self.assert_rejects(cmd, 0, good)

    def test_distance(self):
        for pick in (lambda c: "--budget" not in c.argv, lambda c: "--budget" in c.argv):
            cmd = first("distance", 5, pick)
            rc, out = library_output(cmd)
            self.assertEqual(oracles.check(cmd, rc, out, ""), [])
            good = json.loads(out)
            if isinstance(good["d_free"], int):
                self.assert_rejects(cmd, rc, dict(good, d_free=good["d_free"] + 1))
            profile = good["column_distances"][:-1] + [good["column_distances"][-1] + 1]
            self.assert_rejects(cmd, rc, dict(good, column_distances=profile))
            if good["witness"]:
                witness = copy.deepcopy(good["witness"])
                witness[-1][1][-1] ^= 1
                self.assert_rejects(cmd, rc, dict(good, witness=witness))

    def test_search(self):
        cmd = first("search", 2, lambda c: not c.meta["full_strong"])
        rc, out = library_output(cmd)
        self.assertEqual(oracles.check(cmd, rc, out, ""), [])
        lines = out.splitlines()
        self.assert_rejects(cmd, rc, "\n".join(lines[:-1]) + "\n")
        self.assert_rejects(cmd, rc, "\n".join([lines[1], lines[0]] + lines[2:]) + "\n")
        wrong = json.loads(lines[0])
        wrong["classification"] = {"STRONG": "FULL_STRONG"}.get(wrong["classification"], "STRONG")
        self.assert_rejects(cmd, rc, "\n".join([json.dumps(wrong)] + lines[1:]) + "\n")

    def test_enumerator_agrees_on_a_known_count(self):
        # counts printed by `qccdts search 2 3 15` and `qccdts search 2 2 2`
        self.assertEqual(len(oracles.strong_families(2, 3, 15)), 2200)
        self.assertEqual(len(oracles.strong_families(2, 2, 2)), 1)


class Runs(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_short_runs_report_no_failures(self):
        for workload in workloads.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = self.run_bench(ROOT, "--workload", workload, "--seed", "11",
                                          "--seconds", "1", "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    names = run.PER_LAYER if trace == "1" else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(names))
                    if trace == "1":
                        self.assertIn("self-check passed", done.stdout)

    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_sources(self):
        stripped = SCRATCH / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(ROOT / "bench", stripped / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        done = self.run_bench(stripped, "--workload", "certify", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

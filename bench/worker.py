"""Closed-loop client: runs CLI commands in-process through ``qccdts.cli.main``.

One process, one thread: each command starts only after the previous
one returned. Only the ``main(argv)`` call is timed; stdout and stderr
are captured, and the reference loop of ``hostspeed`` is timed after
each command. A first, untimed pass over the cycle is the warm-up; its
outputs are written to ``--outdir`` for the oracles, and every timed
repetition must reproduce them byte for byte.

With ``--trace 1`` the time is split: half untraced, then the tracer is
installed, one untimed pass records each command's call counts, and the
other half is timed with spans.

Usage (normally started by run.py):
    python3 bench/worker.py --root . --commands cmds.json --outdir out \
        --seconds 10 --trace 0 --result result.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import hostspeed
from tracer import Tracer


def run_once(cli, argv: list[str]) -> tuple[int, int, str, str]:
    """Exit code, nanoseconds inside main, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        elapsed = perf_counter_ns() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def digest(rc: int, out: str, err: str) -> bytes:
    return hashlib.blake2b(f"{rc}\0{out}\0{err}".encode()).digest()


def timed_loop(cli, commands, expected, seconds):
    """Cycle through the commands for ``seconds``, then finish the cycle.

    Ending on a cycle boundary gives every command the same weight in
    the percentiles.

    Returns each sample's time, start and the reference-loop time taken
    right after it, plus per-command runs and output mismatches.
    """
    times_ns: list[int] = []
    starts_ns: list[int] = []
    loops_ns: list[int] = []
    runs = [0] * len(commands)
    mismatches = [0] * len(commands)
    deadline = perf_counter() + seconds
    i = 0
    while i or perf_counter() < deadline:  # whole cycles only
        starts_ns.append(perf_counter_ns())
        rc, elapsed, out, err = run_once(cli, commands[i])
        loops_ns.append(hostspeed.measure())
        times_ns.append(elapsed)
        runs[i] += 1
        mismatches[i] += digest(rc, out, err) != expected[i]
        i = (i + 1) % len(commands)
    return {"times_ns": times_ns, "starts_ns": starts_ns, "loops_ns": loops_ns,
            "runs": runs, "mismatches": mismatches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--commands", required=True, type=Path)
    parser.add_argument("--outdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import qccdts
    from qccdts import cli

    if not Path(qccdts.__file__).resolve().is_relative_to(src):
        print(f"error: qccdts imported from {qccdts.__file__}, not {src}", file=sys.stderr)
        return 2

    commands = json.loads(args.commands.read_text(encoding="utf-8"))
    args.outdir.mkdir(parents=True, exist_ok=True)
    expected = []
    codes = []
    for i, argv in enumerate(commands):
        rc, _, out, err = run_once(cli, argv)
        (args.outdir / f"{i:03d}.out").write_text(out, encoding="utf-8")
        (args.outdir / f"{i:03d}.err").write_text(err, encoding="utf-8")
        expected.append(digest(rc, out, err))
        codes.append(rc)

    span = args.seconds / 2 if args.trace else args.seconds
    result = {"exit_codes": codes, **timed_loop(cli, commands, expected, span)}

    if args.trace:
        tracer = Tracer(qccdts)
        tracer.install()
        per_command = []
        changed = []
        for i, argv in enumerate(commands):
            before = tracer.snapshot()
            rc, _, out, err = run_once(cli, argv)
            after = tracer.snapshot()
            per_command.append({k: after[k] - before[k] for k in after if after[k] != before[k]})
            changed.append(digest(rc, out, err) != expected[i])
        tracer.reset()
        traced = timed_loop(cli, commands, expected, span)
        tracer.uninstall()
        totals = tracer.snapshot()
        implied = {k: sum(c.get(k, 0) * n for c, n in zip(per_command, traced["runs"]))
                   for k in totals}
        result["trace"] = {
            **traced,
            "per_command": per_command,
            "changed_by_tracing": changed,
            "counts": totals,
            "self_ns": tracer.self_ns,
            "inconsistent": sorted(k for k in totals if totals[k] != implied[k]),
        }

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

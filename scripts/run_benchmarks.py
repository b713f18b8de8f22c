#!/usr/bin/env python3
"""Record one traced end-to-end benchmark run in a JSON history file.

Runs ``benchmarks/e2e/run.py --trace 1 --results TMP``, passing every
argument except ``--history`` through (``--workload``, ``--seed``,
``--seconds``, ``--epochs``), and appends one record to the history
(default ``BENCH_e2e.json``, a JSON list, oldest first): the commit,
the UTC time, ``run.py``'s machine dict, the seed, the seconds, and for
each workload whether it was correct, failed/attempted, the output
digest, q1/median/q3/n of every untraced metric and the traced layer
values.  A speed claim appends a parent record and a change record
made on one machine.

A run that is not correct is still appended, and the script exits 1.
If ``run.py`` itself exits non-zero, nothing is appended and its exit
code is returned.

Run:  python scripts/run_benchmarks.py [--history PATH] [run.py options]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
sys.path.insert(0, str(RUN.parent))
from run import quartiles  # noqa: E402  (benchmarks/e2e is not a package)


def commit() -> str:
    """The checked-out commit, suffixed ``-dirty`` when the tree has edits."""
    cmd = ["git", "describe", "--always", "--dirty", "--abbrev=40"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def condense(results: dict) -> dict:
    """The part of one ``run.py --results`` file worth keeping per commit."""
    workloads = {
        name: {
            "correct": result["correct"],
            "failed": result["failed"],
            "attempted": result["attempted"],
            "output_digest": result["output_digest"],
            "untraced": {
                metric: dict(
                    zip(("q1", "median", "q3"), quartiles(entry["samples"])),
                    n=len(entry["samples"]),
                    unit=entry["unit"],
                )
                for metric, entry in result["untraced"].items()
            },
            "per_layer": {
                metric: entry["value"] for metric, entry in result.get("per_layer", {}).items()
            },
        }
        for name, result in results["workloads"].items()
    }
    return {
        "commit": commit(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": results["machine"],
        "seed": results["seed"],
        "seconds": results["seconds"],
        "correct": all(w["correct"] for w in workloads.values()),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument(
        "--history", type=pathlib.Path, default=pathlib.Path("BENCH_e2e.json"),
        help="JSON list to append the record to (default: BENCH_e2e.json)",
    )
    args, passthrough = parser.parse_known_args(argv)
    try:
        history = json.loads(args.history.read_text()) if args.history.exists() else []
    except (OSError, ValueError):
        history = None
    if not isinstance(history, list):
        print(f"error: {args.history} is not a JSON list of records", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results_path = pathlib.Path(tmp) / "results.json"
        trace = ["--trace", "1", "--results", str(results_path)]
        code = subprocess.call([sys.executable, str(RUN), *passthrough, *trace], cwd=ROOT)
        if code != 0:
            print(f"run.py exited {code}; nothing recorded", file=sys.stderr)
            return code
        record = condense(json.loads(results_path.read_text()))
    history.append(record)
    partial = args.history.with_name(f".{args.history.name}.tmp")
    partial.write_text(json.dumps(history, indent=1) + "\n")
    os.replace(partial, args.history)
    print(f"appended record {len(history)} ({record['commit']}) to {args.history}")
    for name, workload in record["workloads"].items():
        print(
            f"  {name}: correct={workload['correct']},"
            f" {workload['failed']}/{workload['attempted']} failed"
        )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

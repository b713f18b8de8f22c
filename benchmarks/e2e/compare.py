"""Compare benchmark results of a parent commit and a change, metric by metric.

    python benchmarks/e2e/compare.py --base BASE.json... --cand CAND.json...

Each file is one ``run.py --results`` output; pass one file per run,
base and candidate runs in the order they were paired.  For every
workload it prints in how many pairs both sides wrote the same output
digest, then one row per metric measured on the untraced reps, with
both medians and quartiles over the runs and a verdict.

The end-to-end metrics of ``BENCHMARK.json`` have a bound:

* ``unresolved`` - the base runs spread (q3 - q1, over the median) by
  more than the metric's bound, unless every candidate run beats every
  base run;
* ``regressed`` - the candidate median is worse than the base median by
  more than the bound;
* ``improved`` - the candidate wins at least 9 of 10 pairs and the
  medians differ by more than the base quartile distance;
* ``unchanged`` - otherwise.

The whole-job ``job.*`` per-layer metrics have none, so the pairs alone
decide: ``improved`` or ``regressed`` when one side wins at least 9 of
10 pairs and the medians differ by more than the base quartile
distance, ``unchanged`` when every pair ties, else ``unresolved``.

Exit status 1 when any metric regressed or the candidate failed more
operations than the base, else 0.
"""

import argparse
import json
import pathlib
import sys

from run import SPEC, quartiles


def verdict(base: list[float], cand: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = quartiles(base)
    _c1, c2, _c3 = quartiles(cand)
    pairs = [sign * (c - b) for b, c in zip(base, cand)]
    apart = abs(c2 - b2) > b3 - b1
    if bound is not None:
        if (b3 - b1) / b2 > bound and not all(sign * (c - b) < 0 for b in base for c in cand):
            return "unresolved"
        if sign * (c2 - b2) / b2 > bound:
            return "regressed"
    elif sum(d > 0 for d in pairs) >= 0.9 * len(pairs) and apart:
        return "regressed"
    if sum(d < 0 for d in pairs) >= 0.9 * len(pairs) and apart:
        return "improved"
    if bound is None and any(pairs):
        return "unresolved"
    return "unchanged"


def load(paths: list[pathlib.Path]) -> list[dict]:
    return [json.loads(path.read_text())["workloads"] for path in paths]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run[workload]["untraced"][metric]["value"]
        for run in runs
        if metric in run[workload]["untraced"]
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=pathlib.Path, required=True)
    parser.add_argument("--cand", nargs="+", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    metrics = SPEC["end_to_end"] + [
        {**metric, "bound": None} for metric in SPEC["per_layer"]
        if metric["name"].startswith("job.")
    ]
    base, cand = load(args.base), load(args.cand)
    workloads = [w for w in base[0] if all(w in run for run in base + cand)]
    status = 0
    print(
        f"{'workload':<16} {'metric':<18} {'base median [q1, q3]':>32} "
        f"{'cand median [q1, q3]':>32} {'change':>8}  verdict"
    )
    for workload in workloads:
        failed_base = sum(run[workload]["failed"] for run in base)
        failed_cand = sum(run[workload]["failed"] for run in cand)
        if failed_cand > failed_base:
            print(f"{workload:<16} failed operations {failed_base} -> {failed_cand}")
            status = 1
        same = sum(
            b[workload]["output_digest"] == c[workload]["output_digest"]
            for b, c in zip(base, cand)
        )
        print(f"{workload:<16} output digests equal in {same} of {min(len(base), len(cand))} pairs")
        for metric in metrics:
            b, c = values(base, workload, metric["name"]), values(cand, workload, metric["name"])
            if not b or not c:
                continue
            b1, b2, b3 = quartiles(b)
            c1, c2, c3 = quartiles(c)
            label = verdict(b, c, metric["better"], metric["bound"])
            status = max(status, int(label == "regressed"))
            bound = "no bound" if metric["bound"] is None else f"bound {metric['bound']:.0%}"
            print(
                f"{workload:<16} {metric['name']:<18} "
                f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
                f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>32} "
                f"{(c2 - b2) / b2:>+8.1%}  {label} ({metric['unit']}, {bound})"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

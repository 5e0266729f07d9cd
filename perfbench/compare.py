#!/usr/bin/env python3
"""Compare two result sets, parent against change, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --pairs 10 --seconds 30 --out DIR [--workload NAME ...]

A result set is a directory of the untraced records run.py writes under its
``--out``. Runs of the two sides with the same workload and seed form a pair.
With ``--run`` the pairs are made first: this copy of the benchmark runs in
each checkout in turn (so both sides are measured by identical benchmark
code), the parent first in even pairs and the change first in odd ones, and
the records go to DIR/parent and DIR/change.

For each workload and end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles, the change's win share over the pairs (ties
count for neither) and a verdict:

- improved: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
- unresolved: the parent's interquartile range, as a share of its median, is
  wider than the metric's bound, and not every change run beats every parent
  run;
- regressed: the change's median is worse than the parent's by more than the
  bound times the parent's median;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict:
    """``{workload: {seed: {metric: value}}}`` from untraced records."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") != 0:
            continue
        metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        out.setdefault(record["workload"], {})[record["seed"]] = metrics
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple], better: str,
            bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if pairs and share >= 0.9 and gain > p3 - p1:
        return "improved", share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", share
    if -gain > bound * abs(pm):
        return "regressed", share
    return "unchanged", share


def compare(parent_dir: Path, change_dir: Path) -> int:
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_results(parent_dir), load_results(change_dir)
    regressions = 0
    header = (f"{'workload':<14} {'metric':<12} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'pairs':>5} {'wins':>5}  verdict")
    print(header)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r[name] for r in p_runs.values() if r.get(name) is not None]
            c_vals = [r[name] for r in c_runs.values() if r.get(name) is not None]
            if not p_vals or not c_vals:
                print(f"{workload:<14} {name:<12} missing on one side")
                continue
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds
                     if p_runs[s].get(name) is not None and c_runs[s].get(name) is not None]
            result, share = verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
            regressions += result == "regressed"
            p, c = quartiles(p_vals), quartiles(c_vals)
            print(f"{workload:<14} {name:<12} {'/'.join(f'{v:.4g}' for v in p):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in c):>32} {len(pairs):>5} {share:>5.0%}  {result}")
    return 1 if regressions else 0


def run_pairs(parent_root: Path, change_root: Path, pairs: int, seconds: float,
              workloads: list[str], out: Path) -> None:
    sides = {"parent": parent_root.resolve(), "change": change_root.resolve()}
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(i + 1), "--seconds", str(seconds), "--trace", "0",
                       "--out", str((out / side).resolve())]
                done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
                print(f"pair {i + 1} {workload} {side}: {status}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--run", action="store_true",
                        help="PARENT and CHANGE are checkouts: make the pairs first")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", default=".perfbench_compare")
    args = parser.parse_args(argv)
    if not args.run:
        return compare(Path(args.parent), Path(args.change))
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    run_pairs(Path(args.parent), Path(args.change), args.pairs, seconds, workloads, out)
    return compare(out / "parent", out / "change")


if __name__ == "__main__":
    sys.exit(main())

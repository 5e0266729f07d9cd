#!/usr/bin/env python3
"""End-to-end synthetic experiment: generate the structured scenarios, run
every method across its hyperparameter grid, and report trade-off tables.

Writes per-dataset solutions.csv / pareto.csv / hv_table.csv under --out and
prints the hypervolume table for a quick look.

    python scripts/run_synthetic_sweep.py --out results --seed 7
"""

import argparse
import sys
from pathlib import Path

from feir.cli import cmd_report, cmd_run


def experiment_config(family: str, seed: int) -> dict:
    return {
        "seed": seed,
        "dataset": {"family": family, "seed": seed},
        "ks": [10],
        "methods": {
            "naive": {},
            "feir": {},
            "shuffle": {},
            "ca": {"epsilons": [0.0003, 0.001, 0.003, 0.01, 0.03, 0.1]},
            # exclusive allocation needs m*k <= n, and at k=10 every family
            # has m*k > n (200 vs 100 for the group families, 500 vs 50 for su_pair)
            "rr": {"tau": 0.3, "exclusive": False},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--families", nargs="+", default=["item_groups", "user_groups", "su_pair"]
    )
    args = parser.parse_args()

    for family in args.families:
        out_dir = Path(args.out) / family
        print(f"== {family} ==")
        solutions = cmd_run(experiment_config(family, args.seed), out_dir)
        pareto_path, hv_path = cmd_report(solutions, None, out_dir)
        print(f"solutions: {solutions}")
        print(f"fronts:    {pareto_path}")
        print(hv_path.read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())

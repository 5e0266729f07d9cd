#!/usr/bin/env python3
"""How competition pressure grows with the user/item ratio.

Generates random shared-score matrices at several m:n ratios, evaluates the
naive recommendation, and prints how inferiority and the competition
indicators respond as items become scarcer.

    python scripts/ratio_study.py --items 20 --k 5
"""

import argparse
import sys

from feir.baselines import naive
from feir.datagen import GenSpec, generate
from feir.metrics import competition_metrics, gini_index, system_metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=20)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--ratios", nargs="+", type=float,
                        default=[0.25, 0.5, 1.0, 2.0, 5.0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'m':>5} {'n':>5} {'utility':>9} {'envy':>7} {'inferiority':>12} "
          f"{'mean_rank':>10} {'mean_gap':>9} {'gini':>6}")
    for ratio in args.ratios:
        m = max(2, int(round(ratio * args.items)))
        pair = generate(GenSpec(family="random", m=m, n=args.items, seed=args.seed))
        counts = naive(pair, args.k)
        sys_m = system_metrics(pair.U, pair.S, counts)
        comp = competition_metrics(pair.S, counts, args.k)
        print(f"{m:>5} {args.items:>5} {sys_m.utility:>9.3f} {sys_m.envy:>7.3f} "
              f"{sys_m.inferiority:>12.3f} {comp.mean_rank:>10.3f} "
              f"{comp.mean_gap:>9.4f} {gini_index(counts):>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

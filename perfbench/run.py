#!/usr/bin/env python3
"""Run one benchmark workload against the feir sources in ./src.

    python3 perfbench/run.py --workload ug-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the run's metadata. The full record
(and, when traced, the spans) is written under ``--out``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Named here rather than imported from workloads.py, which loads numpy, and
# numpy must not load before the BLAS thread count is pinned.
WORKLOADS = ("ug-sweep", "ig-fit-large", "su-eval-csv")


def pin_blas_threads() -> None:
    """Pin BLAS to the machine's processor count before numpy loads it.

    The count stays at the default on purpose: a lower one would hide how the
    default behaves, and an explicit one keeps runs comparable.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for the result record (default: %(default)s)")
    args = parser.parse_args(argv)

    pin_blas_threads()
    root = Path.cwd()
    if not (root / "src" / "feir" / "__init__.py").is_file():
        print(f"no feir sources under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from harness import run_workload

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          root=root, out_dir=root / args.out)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if record["untraced_hooks"]:
        print(f"untraced (hook not found): {', '.join(record['untraced_hooks'])}",
              file=sys.stderr)
    print(json.dumps({"meta": record["meta"], "summary": {
        k: v for k, v in record["summary"].items() if k not in ("iterations", "setup_s")}}))
    result = record["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write reference.json: the outputs of each workload's fixed reference
instance at the current sources. Run from the root of a checkout:

    python3 perfbench/make_reference.py

Regenerate it only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from harness import REFERENCE_PATH, reference_outcome
    from workloads import REFERENCE_SPECS

    reference = {}
    workdir = root / ".perfbench_tmp" / "make_reference"
    try:
        for name, spec in REFERENCE_SPECS.items():
            _, outcome = reference_outcome(name, spec, workdir / name)
            if outcome.failures:
                print(f"{name}: {outcome.failures}", file=sys.stderr)
                return 1
            reference[name] = {"spec": spec, "expected": outcome.observed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

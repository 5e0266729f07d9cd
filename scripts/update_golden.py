#!/usr/bin/env python3
"""Rewrite tests/golden.json from the outputs of the current code.

Runs the config set of tests/test_golden.py in a temporary directory and
writes the SHA-256 of every output file to the manifest, then prints the
files whose digest was added, changed or removed. Run it only for a change
that is meant to alter outputs, and name those files in the change notes.

    PYTHONPATH=src python scripts/update_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_golden  # noqa: E402 - found through the path set above


def main() -> int:
    manifest = test_golden.MANIFEST
    old = json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = test_golden.digests(test_golden.build(Path(tmp)))
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(new, fh, indent=2)
        fh.write("\n")
    changed = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    print(f"wrote {manifest}: {len(new)} files, {len(changed)} changed")
    for name in changed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identity of the command line's outputs: the SHA-256 of every file
that a fixed, reduced config set writes, pinned in tests/golden.json.

The set generates the four synthetic families, runs naive, shuffle, CA, RR
and FEIR (three grid points, one with a zero weight) with their matrices
saved, adds a `minibatch` FEIR point to the same solutions.csv by a second
run, and reports on it. solutions.csv and pareto.csv print metrics to 12
significant digits, so the set also writes points.json: every solution
point that the runs evaluate, its metrics at full precision. A change that
alters any output bit or metric bit fails the test, which names the files
that differ; `scripts/update_golden.py` rewrites the manifest when a change
to the outputs is meant.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from feir import pareto
from feir.cli import cmd_generate, cmd_report, cmd_run

MANIFEST = Path(__file__).with_name("golden.json")

GENERATE_CONFIGS = [
    {"seed": 3, "dataset": {"family": "random", "m": 6, "n": 9}},
    {"seed": 4, "dataset": {"family": "su_pair"}},
    {"seed": 5, "dataset": {"family": "item_groups", "m": 12, "n": 40,
                            "group_fraction": 0.25, "group_boost": 0.7}},
    {"seed": 6, "dataset": {"family": "user_groups"}},
]

# su_pair keeps U and S apart; an integer learning rate and epsilon check that
# a setting's int and float give one run. RR at k=3 needs m*k = 24 > n, so
# it writes an error row.
RUN_CONFIG = {
    "seed": 7,
    "ks": [2, 3],
    "dataset": {"family": "su_pair", "m": 8, "n": 20},
    "methods": {
        "naive": {},
        "shuffle": {},
        "ca": {"epsilons": [0.01, 1]},
        "rr": {"tau": 0.3},
        "feir": {"weight_grid": [[1, 1, 1], [0, 3, 1], [1, 0.5, 1, 0.1]],
                 "learning_rate": 10, "max_steps": 40},
    },
}

MINIBATCH_CONFIG = {
    **RUN_CONFIG,
    "methods": {"feir": {"weight_grid": [[1, 2, 1]], "max_steps": 40,
                         "scaling": {"kind": "minibatch", "b": 3}}},
}


def build(root: Path) -> Path:
    """Write the set's outputs, and points.json, under root and return root."""
    for config in GENERATE_CONFIGS:
        cmd_generate(config, root / "data")
    run_dir = root / "run"
    points = []
    make_solution = pareto.make_solution

    def recording(*args):
        point = make_solution(*args)
        points.append(asdict(point))
        return point

    pareto.make_solution = recording
    try:
        cmd_run(RUN_CONFIG, run_dir, save_matrices=True)
        solutions = cmd_run(MINIBATCH_CONFIG, run_dir, save_matrices=True)
    finally:
        pareto.make_solution = make_solution
    cmd_report(solutions, None, run_dir)
    # json writes each float as its shortest repr, which reads back bit-exact
    (root / "points.json").write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return root


def digests(root: Path) -> dict:
    """The SHA-256 of every file under root, by its POSIX path relative to root."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_match_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = digests(build(tmp_path))
    differ = sorted(name for name in expected.keys() | actual.keys()
                    if expected.get(name) != actual.get(name))
    assert not differ, f"outputs differ from {MANIFEST.name}: {differ}"

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

The digests hold only where the outputs were pinned: numpy dispatches the
float64 ufuncs in DISPATCHED to a kernel for the widest SIMD target the CPU
has, and two targets disagree in the last bit of some results (on 10^6
inputs, exp on 45,920 and power on 53,317). So the manifest also records
the environment (`environment()`), and elsewhere the test skips, naming
each difference.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy

from feir import pareto
from feir.cli import cmd_generate, cmd_report, cmd_run

MANIFEST = Path(__file__).with_name("golden.json")

# the float64 ufuncs behind the outputs whose kernel numpy picks by SIMD target
DISPATCHED = ("exp", "log", "log1p", "power")

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


def environment() -> dict:
    """numpy's and scipy's versions and, for each float64 loop of the
    ufuncs in DISPATCHED, the SIMD target it runs on (not recorded by numpy
    before 2.0, which cannot say)."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return env
    info = opt_func_info(func_name=f"^({'|'.join(DISPATCHED)})$", signature="float64")
    for name, loops in sorted(info.items()):
        for signature, loop in sorted(loops.items()):
            env[f"{name} {signature}"] = loop["current"]
    return env


def digests(root: Path) -> dict:
    """The SHA-256 of every file under root, by its POSIX path relative to root."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_match_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    pinned, here = manifest["environment"], environment()
    off = sorted(key for key in pinned.keys() | here.keys() if pinned.get(key) != here.get(key))
    if off:
        pytest.skip("digests pinned in another environment: " + "; ".join(
            f"{key} is {here.get(key)}, pinned {pinned.get(key)}" for key in off))
    expected = manifest["files"]
    actual = digests(build(tmp_path))
    differ = sorted(name for name in expected.keys() | actual.keys()
                    if expected.get(name) != actual.get(name))
    assert not differ, f"outputs differ from {MANIFEST.name}: {differ}"

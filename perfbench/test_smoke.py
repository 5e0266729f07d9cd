"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted reference trips the output check, and that a trace hook whose
target is gone is reported without failing the run.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
from spans import Hook  # noqa: E402

with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "ug-sweep": {"m": 6, "n": 30, "grid": [[1.0, 1.0, 1.0, 0.0], [0.0, 10.0, 1.0, 0.0]],
                 "ca_epsilons": (0.01, 0.1)},
    "ig-fit-large": {"m": 12, "n": 40, "full_steps": 2, "minibatch_steps": 2, "batch": 4},
    "su-eval-csv": {"m": 12, "n": 40, "ca_epsilons": (0.01, 0.1)},
}


def run(name, trace, **kwargs):
    return harness.run_workload(name, 3, 0.0, trace, root=ROOT, params=TINY[name], **kwargs)


def assert_emitted(record, declared):
    metrics = record["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name):
    record = run(name, trace=False)
    assert record["result"]["correct"], record["failures"]
    assert_emitted(record, SPEC["end_to_end"])
    assert record["result"]["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(name):
    record = run(name, trace=True)
    assert record["result"]["correct"], record["failures"]
    assert_emitted(record, SPEC["per_layer"])
    assert record["untraced_hooks"] == []
    assert record["meta"]["traced"] is True


def _scale_first_float(tree, factor):
    for key in sorted(tree):
        if isinstance(tree[key], dict):
            if _scale_first_float(tree[key], factor):
                return True
        elif isinstance(tree[key], float) and tree[key] != 0.0:
            tree[key] *= factor
            return True
    return False


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_reference_trips_the_check(name):
    reference = copy.deepcopy(harness.load_reference())
    # just outside the tolerance the workload allows
    tolerance = harness.workloads.WORKLOADS[name].rel_tol
    assert _scale_first_float(reference[name]["expected"], 1.0 + 10 * tolerance)
    record = run(name, trace=False, reference=reference)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] >= 1
    assert record["result"]["metrics"]["ok_frac"]["value"] < 1.0
    assert any(f.startswith("reference:") for f in record["failures"])


def test_missing_hook_is_reported_not_fatal():
    hooks = layers.HOOKS + [Hook("feir.optim", "_merged_away_loss_term", "losses.gone")]
    record = run("ig-fit-large", trace=True, hooks=hooks)
    assert record["result"]["correct"], record["failures"]
    assert record["untraced_hooks"] == ["feir.optim._merged_away_loss_term"]
    assert record["result"]["metrics"]["trace.untraced_hooks"]["value"] == 1

"""The benchmark's three workloads.

Each workload makes its inputs from a seed in ``setup`` and runs a timed
``body`` on them that calls feir only through its module functions and the
``cli.cmd_run`` / ``cli.cmd_report`` entry points. A body returns an
``Outcome``: the units of work it did (the denominator of the per-unit time),
the operations it attempted and those that failed, and ``observed``, the
outputs compared against the stored reference and, through a digest, across
repeats of one input.

- ug-sweep: the paper's synthetic trade-off study on ``user_groups``. Tens of
  thousands of tiny gradient steps, so per-step Python overhead shows here
  and nowhere else. Unit: one gradient step.
- ig-fit-large: full and minibatch fits on ``item_groups``, where every user
  chases the same scarce items and the O(m^2 n) inferiority term dominates.
  Step counts are fixed. Unit: one pass of the whole body.
- su-eval-csv: baselines and evaluation on a ``su_pair`` instance read from
  CSV, with every solution's matrices written back. No training, so a change
  to the loss kernels should leave it unchanged. Unit: one solution row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from feir import cli, core, datagen, metrics, optim, pareto
from feir.losses import LossWeights

K = 10
RR_CONFIG = {"tau": 0.3, "exclusive": False}  # exclusive needs m*k <= n, false here
SOLUTION_NUMERIC = ["utility", "utility_norm", "envy", "inferiority", "inferiority_norm",
                    "overall_norm", "mean_rank", "mean_gap", "gini"]
HV_AXIS = "inferiority_norm_vs_utility_norm"

# Relative tolerance of the reference comparison. Reordered float sums agree
# to about 1e-14 relative after a few gradient steps, and solutions.csv keeps
# 12 significant digits; a wrong kernel moves these values by far more.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class Outcome:
    units: int
    attempted: int
    failures: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.observed, sort_keys=True).encode()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row_failures(rows: list[dict]) -> list[str]:
    return [f"{r['method']} row status {r['status']!r}" for r in rows if r["status"] != "ok"]


def _row_key(row: dict) -> str:
    params = ",".join(f"{c}={row[c]}" for c in ("w1", "w2", "w3", "w4", "d", "epsilon", "tau")
                      if row[c])
    return f"{row['method']}[{params}]k={row['k']}"


def _number(cell: str):
    return float(cell) if cell else None


def _hv_cell(hv_path: Path, method: str) -> float | None:
    for row in _read_csv(hv_path):
        if row["axis"] == HV_AXIS:
            cell = row.get(f"hv_{method}", "")
            try:
                return float(cell)
            except ValueError:
                return None
    return None


@dataclass
class UgSweep:
    """``cmd_run`` then ``cmd_report`` on ``user_groups`` with naive, FEIR over
    a fixed subset of the default weight grid, shuffle, CA and RR."""

    name = "ug-sweep"
    setup_reps = 50
    probe = "python"  # time goes to the interpreter driving tiny arrays
    # A reordered float sum may move a convergence step and flip a top-k
    # entry, so only the row statuses and the FEIR front's hypervolume are
    # compared, the latter within 5%.
    rel_tol = 0.05
    m: int = 20
    n: int = 100
    # None: every fifth of the 36 default points, which is both corners and
    # the anti-diagonal of the (w1, w2) grid
    grid: list | None = None
    ca_epsilons: tuple = (0.0003, 0.001, 0.003, 0.01, 0.03, 0.1)

    def weight_grid(self) -> list[list[float]]:
        if self.grid is not None:
            return [list(w) for w in self.grid]
        return [[w.w1, w.w2, w.w3, w.w4] for w in optim.default_weight_grid()[::5]]

    def setup(self, seed: int, workdir: Path) -> dict:
        datagen.generate(datagen.GenSpec("user_groups", self.m, self.n, seed=seed))
        return {
            "seed": seed,
            "dataset": {"family": "user_groups", "m": self.m, "n": self.n, "seed": seed},
            "ks": [K],
            "methods": {
                "naive": {},
                "feir": {"weight_grid": self.weight_grid(), "learning_rate": 10.0,
                         "max_steps": 2000, "convergence_tol": 1e-6,
                         "parametrization": "logits"},
                "shuffle": {},
                "ca": {"epsilons": list(self.ca_epsilons)},
                "rr": dict(RR_CONFIG),
            },
        }

    def expected_rows(self) -> int:
        return 3 + len(self.weight_grid()) + len(self.ca_epsilons)

    def body(self, config: dict, out: Path, tracer, fit_steps) -> Outcome:
        with tracer.span("cli.cmd_run"):
            solutions = cli.cmd_run(config, out)
        with tracer.span("cli.cmd_report"):
            _, hv_path = cli.cmd_report(solutions, None, out)
        rows = _read_csv(solutions)
        failures = _row_failures(rows)
        if len(rows) != self.expected_rows():
            failures.append(f"{len(rows)} solution rows, expected {self.expected_rows()}")
        hv = _hv_cell(hv_path, "feir")
        return Outcome(
            units=fit_steps(),
            attempted=len(rows),
            failures=failures,
            observed={"all_ok": not failures, "rows": len(rows), "feir_hv_inferiority": hv},
            info={"feir_hv_inferiority": hv},
        )


@dataclass
class IgFitLarge:
    """A fixed-step full fit and a minibatch fit on ``item_groups``, then
    ``top_k`` and ``pareto.make_solution`` on the full fit's policy."""

    name = "ig-fit-large"
    setup_reps = 15
    probe = "numpy"  # time goes to passes over arrays of hundreds of MB
    rel_tol = REL_TOL
    m: int = 200
    n: int = 1000
    full_steps: int = 8
    minibatch_steps: int = 10
    batch: int = 20

    def setup(self, seed: int, workdir: Path):
        scores = datagen.generate(datagen.GenSpec("item_groups", self.m, self.n, seed=seed))
        full = optim.TrainConfig(
            k=K, weights=LossWeights(1.0, 3.0, 1.0, 0.0), learning_rate=10.0,
            max_steps=self.full_steps, convergence_tol=0.0, parametrization="logits",
        )
        minibatch = replace(full, max_steps=self.minibatch_steps,
                            scaling=optim.Scaling("minibatch", b=self.batch))
        return scores, full, minibatch

    def body(self, inputs, out: Path, tracer, fit_steps) -> Outcome:
        scores, full, minibatch = inputs
        failures = []
        traces = {}
        for label, config in (("full", full), ("minibatch", minibatch)):
            trace = optim.fit(scores, config)
            traces[label] = trace
            if trace.step_count != config.max_steps:
                failures.append(f"{label} fit ran {trace.step_count} of {config.max_steps} steps")
        naive_sys = metrics.system_metrics(scores.U, scores.S, core.top_k(scores.U, K))
        counts = core.top_k(traces["full"].final_policy.P, K)
        point = pareto.make_solution("feir", {"w1": 1.0, "w2": 3.0, "w3": 1.0, "w4": 0.0},
                                     K, 0, scores, counts, naive_sys)
        if point.status != "ok":
            failures.append(f"solution status {point.status!r}")
        observed = {label: t.steps[-1].as_dict() for label, t in traces.items()}
        observed["solution"] = {name: point.metric(name) for name in pareto.METRIC_FIELDS}
        return Outcome(units=1, attempted=3, failures=failures, observed=observed)



@dataclass
class SuEvalCsv:
    """``cmd_run`` with ``u_path``/``s_path`` inputs written from a ``su_pair``
    instance at set-up, naive, shuffle, CA and RR at k=10 with
    ``save_matrices=True``, then ``cmd_report``."""

    name = "su-eval-csv"
    setup_reps = 5
    probe = "numpy"  # time goes to whole-matrix numpy passes and formatting
    rel_tol = REL_TOL
    m: int = 400
    n: int = 1000
    ca_epsilons: tuple = (0.001, 0.003, 0.01, 0.03, 0.1)

    def setup(self, seed: int, workdir: Path) -> dict:
        scores = datagen.generate(datagen.GenSpec("su_pair", self.m, self.n, seed=seed))
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        core.save_matrix(scores.U, inputs / "U.csv")
        core.save_matrix(scores.S, inputs / "S.csv")
        return {
            "seed": seed,
            "dataset": {"u_path": str(inputs / "U.csv"), "s_path": str(inputs / "S.csv")},
            "ks": [K],
            "methods": {"naive": {}, "shuffle": {}, "ca": {"epsilons": list(self.ca_epsilons)},
                        "rr": dict(RR_CONFIG)},
        }

    def body(self, config: dict, out: Path, tracer, fit_steps) -> Outcome:
        with tracer.span("cli.cmd_run"):
            solutions = cli.cmd_run(config, out, save_matrices=True)
        with tracer.span("cli.cmd_report"):
            cli.cmd_report(solutions, None, out)
        rows = _read_csv(solutions)
        expected = 3 + len(self.ca_epsilons)
        failures = _row_failures(rows)
        if len(rows) != expected:
            failures.append(f"{len(rows)} solution rows, expected {expected}")
        # one count matrix per solution, plus a policy matrix per CA solution
        saved = len(list((out / "matrices").glob("*.csv")))
        if saved != expected + len(self.ca_epsilons):
            failures.append(f"{saved} matrices saved, expected {expected + len(self.ca_epsilons)}")
        observed = {"rows": {
            _row_key(r): {"status": r["status"], **{c: _number(r[c]) for c in SOLUTION_NUMERIC}}
            for r in rows
        }}
        return Outcome(units=len(rows), attempted=len(rows), failures=failures, observed=observed)



WORKLOADS = {w.name: w for w in (UgSweep, IgFitLarge, SuEvalCsv)}

# The fixed instances whose outputs are stored in reference.json. They run
# the same bodies as the timed workloads, at sizes small enough to check on
# every run.
REFERENCE_SPECS = {
    "ug-sweep": {"seed": 7, "params": {"grid": [[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 1.0, 0.0],
                                                [3.0, 1.0, 1.0, 0.0], [10.0, 10.0, 1.0, 0.0]]}},
    "ig-fit-large": {"seed": 7, "params": {"m": 100, "n": 500, "full_steps": 3,
                                           "minibatch_steps": 4}},
    "su-eval-csv": {"seed": 7, "params": {"m": 100, "n": 300}},
}


def compare(observed, expected, rel_tol: float, path: str = "") -> list[str]:
    """Differences between observed outputs and the stored reference."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path or 'outputs'}: keys differ from the reference"]
        return [d for key in sorted(expected)
                for d in compare(observed[key], expected[key], rel_tol, f"{path}.{key}")]
    if isinstance(expected, float) and isinstance(observed, float):
        if math.isclose(observed, expected, rel_tol=rel_tol, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {observed!r} vs reference {expected!r} (rel tol {rel_tol:g})"]
    if observed != expected:
        return [f"{path}: {observed!r} vs reference {expected!r}"]
    return []

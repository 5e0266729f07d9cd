"""Experiment harness: config-driven subcommands that chain dataset
generation, training, baselines, evaluation, and trade-off reporting.

    generate  write synthetic score matrices (CSV + JSON sidecar)
    run       evaluate every configured method into solutions.csv
    report    Pareto fronts, hypervolumes, and min(phi | t) tables
    check     fast self-validation of the closed forms and oracles
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, datagen, losses, metrics, pareto
from .core import (COUNT, INTEGER, INTEGERS, LIST, NUMBER, NUMBERS, OBJECT, PATH, TWO_FINITE,
                   WEIGHT_GRID, Policy, Rule, ScorePair, _logsumexp, _replacing, checked,
                   load_scores, one_of, save_matrix, top_k, write_sidecar)
from .losses import LossWeights
from .optim import Scaling, TrainConfig, default_weight_grid, fit, loss_and_grad

PARAM_COLUMNS = ("w1", "w2", "w3", "w4", "d", "epsilon", "tau")
KEY_COLUMNS = ["method", *PARAM_COLUMNS, "k", "seed"]
METRIC_COLUMNS = [f for f in pareto.METRIC_FIELDS if f != "overall_fairness"]
METRIC = one_of(METRIC_COLUMNS)
KS = Rule("a non-empty list of integers", lambda v: INTEGERS.test(v) and len(v) > 0, list)
SOLUTION_COLUMNS = [*KEY_COLUMNS, *METRIC_COLUMNS, "status"]

DEFAULT_KS = [1, 5, 10, 20, 50, 100]

DEFAULT_REPORT_AXES = [
    {"x": "overall_norm", "y": "utility_norm", "ref": [1.0, 0.95], "threshold": 0.95},
    {"x": "inferiority_norm", "y": "utility_norm", "ref": [1.0, 0.95], "threshold": 0.95},
    {"x": "mean_rank", "y": "utility_norm", "ref": [50.0, 0.9], "threshold": 0.9},
    {"x": "mean_gap", "y": "utility_norm", "ref": [0.03, 0.9], "threshold": 0.9},
]

UNDEFINED_CELL = "—"  # em dash for no-qualifying-point, distinct from 0


def derive_seed(master_seed: int, method: str, params: dict, k: int) -> int:
    """Reproducible but decorrelated per-run seed."""
    payload = json.dumps(
        {"seed": master_seed, "method": method, "params": params, "k": k},
        sort_keys=True, separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _reject_unknown(what: str, cfg, valid) -> dict:
    """cfg, a JSON object whose keys are all in valid; anything else raises ValueError."""
    cfg = checked(OBJECT, f"{what} config", cfg)
    extra = sorted(set(cfg) - set(valid))
    if extra:
        raise ValueError(f"unknown {what} config keys {extra}; valid keys are {list(valid)}")
    return cfg


def _settings_keys(cls, *run_owned) -> tuple:
    """The config keys of a settings dataclass: its fields, in order, less
    those the run sets itself."""
    return tuple(f.name for f in fields(cls) if f.name not in run_owned)


# The keys of a config, which one file may give both generate and run;
# main also reads output_dir from it.
TOP_LEVEL_KEYS = ("seed", "output_dir", "dataset", "ks", "methods")

# The two dataset forms: score files, or a synthetic generator's GenSpec.
DATASET_FILE_KEYS = ("u_path", "s_path")
DATASET_GEN_KEYS = _settings_keys(datagen.GenSpec)

# The keys of a report config and of each of its axes.
REPORT_KEYS = ("axes",)
AXIS_KEYS = ("x", "y", "ref", "threshold")


def _dataset_scores(config: dict) -> ScorePair:
    ds = checked(OBJECT, "dataset config", config.get("dataset", {}))
    if "u_path" not in ds:
        return datagen.generate(_gen_spec(config))
    _reject_unknown("dataset", ds, DATASET_FILE_KEYS)
    u_path = checked(PATH, "u_path", ds["u_path"])
    s_path = None if ds.get("s_path") is None else checked(PATH, "s_path", ds["s_path"])
    for path in (u_path, s_path):
        if path is not None and not path.exists():
            raise FileNotFoundError(f"dataset file {path} does not exist")
    return load_scores(u_path, s_path)


def _gen_spec(config: dict) -> datagen.GenSpec:
    ds = config.get("dataset", {})  # its callers check that it is an object
    if "family" not in ds:
        raise ValueError(
            f"dataset needs 'u_path' (keys {list(DATASET_FILE_KEYS)}) or 'family' "
            f"(keys {list(DATASET_GEN_KEYS)})"
        )
    _reject_unknown("dataset", ds, DATASET_GEN_KEYS)
    return datagen.GenSpec(**{"seed": config.get("seed", 0), **ds})


def cmd_generate(config: dict, out_dir: Path) -> list[Path]:
    """Write the configured synthetic dataset as CSV files plus sidecars."""
    _reject_unknown("top-level", config, TOP_LEVEL_KEYS)
    checked(INTEGER, "seed", config.get("seed", 0))  # as cmd_run, even if the dataset sets its own
    if "family" not in checked(OBJECT, "dataset config", config.get("dataset", {})):
        raise ValueError("generate needs a dataset with a 'family' entry")
    spec = _gen_spec(config)
    scores = datagen.generate(spec)
    written = []
    for name, M in (("U", scores.U), ("S", scores.S))[:1 if scores.shared else 2]:
        path = out_dir / f"{spec.family}_{name}.csv"
        save_matrix(M, path)
        write_sidecar(path, scores.m, scores.n, seed=spec.seed, generator=spec.label())
        written.append(path)
    return written


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _solution_row(p: pareto.SolutionPoint) -> dict:
    """The solutions.csv row of a point; a blank cell is an absent value."""
    cells = {"method": p.method, "k": p.k, "seed": p.seed, "status": p.status}
    cells.update((c, float(p.params[c])) for c in PARAM_COLUMNS if c in p.params)
    cells.update((c, getattr(p, c)) for c in METRIC_COLUMNS)
    return {c: _format_cell(cells.get(c)) for c in SOLUTION_COLUMNS}


def _solution_point(row: dict) -> pareto.SolutionPoint:
    """The point a solutions.csv row holds, the inverse of _solution_row."""

    def num(col):
        return float(row[col]) if row[col] else None

    return pareto.SolutionPoint(
        method=row["method"], params={c: num(c) for c in PARAM_COLUMNS if row[c]},
        k=int(row["k"]), seed=int(row["seed"]), status=row["status"],
        **{c: num(c) for c in METRIC_COLUMNS},
    )


def _row_key(row: dict) -> tuple:
    return tuple(row[c] for c in KEY_COLUMNS)


def _read_solutions_csv(path: Path) -> list[dict]:
    """The rows of a solutions.csv whose header holds exactly SOLUTION_COLUMNS,
    in any order; any other header raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = set(reader.fieldnames or ())
        missing = sorted(set(SOLUTION_COLUMNS) - header)
        if missing:
            raise ValueError(f"solutions file lacks columns: {missing}")
        unknown = sorted(header - set(SOLUTION_COLUMNS))
        if unknown:
            raise ValueError(f"solutions file has unknown columns: {unknown}")
        return list(reader)


def _write_solutions_csv(path: Path, rows: list[dict]) -> None:
    rows = sorted(rows, key=lambda r: (int(r["k"]), _row_key(r)))
    with _replacing(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=SOLUTION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _naive_runs(scores, cfg, k):
    return [({}, lambda seed: baselines.naive(scores, k))]


def _feir_runs(scores, cfg, k):
    settings = {key: value for key, value in cfg.items() if key != "weight_grid"}
    if "scaling" in settings:
        settings["scaling"] = Scaling(**_reject_unknown("feir scaling", settings["scaling"],
                                                        _settings_keys(Scaling)))
    grid_cfg = cfg.get("weight_grid")
    grid = default_weight_grid() if grid_cfg is None else [
        LossWeights(*w) for w in checked(WEIGHT_GRID, "feir weight_grid", grid_cfg)]
    base = TrainConfig(k=k, weights=grid[0], **settings)
    return [(asdict(weights), lambda seed, weights=weights:
             fit(scores, replace(base, weights=weights, seed=seed)).final_policy)
            for weights in grid]


def _shuffle_runs(scores, cfg, k):
    d = cfg.get("d")
    d = min(3 * k, scores.n) if d is None else checked(COUNT, "shuffle d", d)
    return [({"d": d}, lambda seed: baselines.shuffle(scores, k, d=d, seed=seed))]


def _ca_runs(scores, cfg, k):
    settings = {key: value for key, value in cfg.items() if key != "epsilons"}
    epsilons = checked(NUMBERS, "ca epsilons", cfg.get("epsilons", [0.001, 0.003, 0.01, 0.03, 0.1]))
    ca_cfgs = [baselines.CAConfig(epsilon=eps, **settings) for eps in epsilons]
    return [({"epsilon": ca_cfg.epsilon}, lambda seed, ca_cfg=ca_cfg:
             baselines.congestion_alleviation(scores, k, ca_cfg)) for ca_cfg in ca_cfgs]


def _rr_runs(scores, cfg, k):
    rr_cfg = baselines.RRConfig(**cfg)
    return [({"tau": rr_cfg.tau}, lambda seed:
             baselines.round_robin(scores.U, scores.S, k, replace(rr_cfg, seed=seed)))]


# Method name -> (adapter, the config keys it reads), in run order. An
# adapter(scores, method_cfg, k) builds its settings objects and returns one
# (params, solve) pair per run, so a setting that is invalid whatever the data
# raises before anything is solved. solve(seed) returns a CountMatrix, or a
# Policy that cmd_run rounds to its top-k lists; only solve's failures become
# error rows. Any other key in a method's config is an error. A method's keys
# are its grid key and the fields of its settings dataclass, less those the
# run sets per solve.
METHODS = {
    "naive": (_naive_runs, ()),
    "feir": (_feir_runs, ("weight_grid", *_settings_keys(TrainConfig, "k", "weights", "seed"))),
    "shuffle": (_shuffle_runs, ("d",)),
    "ca": (_ca_runs, ("epsilons", *_settings_keys(baselines.CAConfig, "epsilon"))),
    "rr": (_rr_runs, _settings_keys(baselines.RRConfig, "seed")),
}


def _save_artifacts(save_dir, point, counts, policy):
    if save_dir is None:
        return
    stem = f"{point.method}_k{point.k}_" + hashlib.sha256(
        point.params_json().encode()
    ).hexdigest()[:8]
    save_matrix(counts.C, save_dir / f"{stem}_counts.csv")
    if policy is not None:
        save_matrix(policy.P, save_dir / f"{stem}_policy.csv")


def cmd_run(config: dict, out_dir: Path, save_matrices: bool = False) -> Path:
    """Evaluate every configured (method, hyperparameters, k) combination.

    Rows are keyed by method, params, k, and seed. The key of each run is
    derived before it is solved, and a run whose key is already in
    solutions.csv (or earlier in this call) is skipped, keeping the old row;
    a re-run only computes the missing rows. The key does not cover the
    dataset or the method's other settings, so a changed config keeps the
    old rows. solutions.csv is replaced atomically after each new row, so an
    interrupted run keeps the rows it finished and a re-run of a finished
    config does not write it; a directory is made as its first file is
    committed. Data-dependent failures become error-status rows and the run
    goes on. A failed matrix save (`save_matrices`) is not one: it stops
    the run before that row is written, keeping the earlier rows, so a
    re-run solves and saves it. Every config value is held to its rule by
    `core.checked`, so a config that is wrong whatever the data (a
    non-object section, a family or scaling kind that is not one of its
    names, a path that is not a string, an integer too large for a float,
    an empty `ks`, say), or an existing solutions.csv whose header is not
    SOLUTION_COLUMNS in some order, raises ValueError before anything is
    solved, and no file or directory is written; the README's "Command line" section lists each
    refusal and the settings table. Without `ks`, the DEFAULT_KS up to n run.
    """
    _reject_unknown("top-level", config, TOP_LEVEL_KEYS)
    master_seed = checked(INTEGER, "seed", config.get("seed", 0))
    ks = None if config.get("ks") is None else checked(KS, "ks", config["ks"])
    methods = config.get("methods", {})
    if not methods:
        raise ValueError("config enables no methods")
    _reject_unknown("methods", methods, METHODS)
    for method, cfg in methods.items():
        _reject_unknown(method, cfg, METHODS[method][1])
    scores = _dataset_scores(config)
    if ks is None:
        ks = [k for k in DEFAULT_KS if k <= scores.n]
    else:
        outside = [k for k in ks if not 1 <= k <= scores.n]
        if outside:
            raise ValueError(f"ks {outside} outside [1, {scores.n}]")
    ks = sorted({int(k) for k in ks})
    plan = []
    for k in ks:
        for method, (adapter, _) in METHODS.items():
            if method in methods:
                for params, solve in adapter(scores, methods[method], k):
                    # the naive list is deterministic; its row carries the master seed
                    seed = master_seed if method == "naive" else derive_seed(
                        master_seed, method, params, k
                    )
                    key = _row_key(_solution_row(pareto.SolutionPoint(method, params, k, seed)))
                    plan.append((key, method, params, k, seed, solve))

    solutions_path = out_dir / "solutions.csv"
    rows = _read_solutions_csv(solutions_path) if solutions_path.exists() else []
    seen = {_row_key(r) for r in rows}
    save_dir = out_dir / "matrices" if save_matrices else None
    naive_k = naive_sys = None
    for key, method, params, k, seed, solve in plan:
        if key in seen:
            continue
        seen.add(key)
        try:
            solved = solve(seed)
            policy = solved if isinstance(solved, Policy) else None
            counts = solved if policy is None else top_k(policy.P, k)
            if naive_k != k:  # the normaliser, once per k that has a row to solve;
                # naive runs first at each k, so a new naive row lends its list
                naive = counts if method == "naive" else baselines.naive(scores, k)
                naive_k, naive_sys = k, metrics.system_metrics(scores.U, scores.S, naive)
            point = pareto.make_solution(method, params, k, seed, scores, counts, naive_sys)
        except Exception as exc:  # noqa: BLE001 - recorded as a row, the run continues
            point = pareto.SolutionPoint(method, params, k, seed, status=f"error: {exc}")
        else:
            # a failed save stops the run before the row is written, so a
            # re-run solves and saves it
            _save_artifacts(save_dir, point, counts, policy)
        rows.append(_solution_row(point))
        _write_solutions_csv(solutions_path, rows)

    if not solutions_path.exists():  # a config with no runs still gets its header
        _write_solutions_csv(solutions_path, rows)
    return solutions_path


def cmd_report(solutions_path: Path, report_config: dict | None, out_dir: Path) -> tuple[Path, Path]:
    """Summarize solutions.csv into pareto.csv and hv_table.csv.

    For each k and configured axis pair the report holds every method's
    Pareto front, its hypervolume against the configured reference point, and
    the minimum unfairness among solutions whose y metric exceeds the
    threshold. Both files are written in one pass and replace their targets
    together once both are whole, so an interrupted report leaves the earlier
    pair, or none, as it was. A report config or axis that is not an object
    or has an unknown key, `axes` that is not a list, an axis metric that
    solutions.csv does not hold (see METRIC_COLUMNS), a `ref` that is not two
    finite numbers, a `threshold` that is not a finite number, or a
    solutions.csv whose header is not SOLUTION_COLUMNS in some order raises
    ValueError before any write.
    """
    report_config = {} if report_config is None else report_config
    _reject_unknown("report", report_config, REPORT_KEYS)
    axes = []  # (x, y, ref, threshold) of each axis, ref and threshold None if absent
    for axis in checked(LIST, "report axes", report_config.get("axes", DEFAULT_REPORT_AXES)):
        axis = _reject_unknown("report axis", axis, AXIS_KEYS)
        x_m, y_m = (checked(METRIC, f"report axis {key}", axis.get(key)) for key in ("x", "y"))
        name = f"report axis {x_m}_vs_{y_m}: "
        ref, threshold = (None if axis.get(key) is None else checked(rule, name + key, axis[key])
                          for key, rule in (("ref", TWO_FINITE), ("threshold", NUMBER)))
        axes.append((x_m, y_m, ref, threshold))
    groups = {}  # (k, method) -> that method's points at k, in file order
    for row in _read_solutions_csv(Path(solutions_path)):
        p = _solution_point(row)
        groups.setdefault((p.k, p.method), []).append(p)
    ks = sorted({k for k, _ in groups})
    methods = sorted({method for _, method in groups})

    pareto_path = out_dir / "pareto.csv"
    hv_path = out_dir / "hv_table.csv"
    with _replacing(pareto_path) as fh, _replacing(hv_path) as hv_fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x_metric", "y_metric", "method", "x", "y", "params", "seed"])
        hv_fh.write(",".join(["k", "axis", *(f"{cell}_{method}" for method in methods
                                             for cell in ("hv", "min"))]) + "\n")
        for k in ks:
            for x_m, y_m, ref, threshold in axes:
                cells = [str(k), f"{x_m}_vs_{y_m}"]
                for method in methods:
                    mine = groups.get((k, method), [])
                    try:
                        front = pareto.pareto_front(mine, x_m, y_m)
                    except ValueError:  # no point of this method defines both metrics
                        cells += [UNDEFINED_CELL, UNDEFINED_CELL]
                        continue
                    for p in front.points:
                        writer.writerow([
                            k, x_m, y_m, method,
                            _format_cell(p.metric(x_m)), _format_cell(p.metric(y_m)),
                            p.params_json(), p.seed,
                        ])
                    hv = pareto.hypervolume_2d(front, ref) if ref else None
                    phi = None if threshold is None else pareto.min_fairness_above_threshold(
                        mine, x_m, threshold, y_m)
                    cells += [UNDEFINED_CELL if v is None else _format_cell(v) for v in (hv, phi)]
                hv_fh.write(",".join(cells) + "\n")
    return pareto_path, hv_path


def cmd_check(fast: bool = False) -> int:
    """Quick self-validation: closed forms vs Monte Carlo, analytic gradients
    vs finite differences, hypervolume vs area sampling, transport marginals,
    the CSV matrix writer vs per-value `%.17g`, whose exactness rests on
    the platform's float64 arithmetic, and the synthetic-data sampler and
    the log-sum-exp it shares with congestion alleviation vs the installed
    scipy's `truncnorm.ppf` and `logsumexp`, whose steps they copy. Prints
    one line per check; returns a process exit code."""
    results = []

    def report(name: str, ok: bool, detail: str = ""):
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
        results.append(ok)

    rng = np.random.default_rng(2024)
    samples = 20_000 if fast else 100_000

    # closed-form expectations vs Monte Carlo
    worst = 0.0
    for _ in range(2 if fast else 5):
        m, n, k = 3, 5, 2
        pair = ScorePair(rng.uniform(0.05, 0.95, (m, n)), rng.uniform(0.05, 0.95, (m, n)))
        P = np.apply_along_axis(lambda r: r / r.sum(), 1, rng.uniform(0.05, 1.0, (m, n)))
        est = losses.mc_estimate(pair.U, pair.S, P, k, samples, seed=int(rng.integers(2**31)))
        envy = losses.pair_envy_matrix(pair.U, P, k)  # the envy that training runs
        for i in range(m):
            z = abs(est.utility_mean[i] - losses.expected_user_utility(i, pair.U, P, k))
            se = max(est.utility_se[i], 1e-12)
            worst = max(worst, z / se)
            for t in range(m):
                if t == i:
                    continue
                z = abs(est.envy_mean[i, t] - envy[i, t])
                worst = max(worst, z / max(est.envy_se[i, t], 1e-12))
                z = abs(
                    est.inferiority_mean[i, t]
                    - losses.expected_pair_inferiority(i, t, pair.S, P, k)
                )
                worst = max(worst, z / max(est.inferiority_se[i, t], 1e-12))
    ok = worst < 4.0
    report("closed-form expectations within 4 std errors of Monte Carlo", ok, f"worst z={worst:.2f}")

    # analytic gradient vs central differences
    weights = LossWeights(1.0, 1.0, 1.0, 0.5)
    max_rel = 0.0
    for parametrization in ("logits", "direct"):
        U = rng.uniform(0.05, 0.95, (4, 6))
        S = rng.uniform(0.05, 0.95, (4, 6))
        params = rng.normal(0.0, 1.0, (4, 6)) if parametrization == "logits" else (
            np.apply_along_axis(lambda r: r / r.sum(), 1, rng.uniform(0.05, 1.0, (4, 6)))
        )

        def loss_fn(x, _p=parametrization):
            return loss_and_grad(U, S, x, 2, weights, _p)[0].total

        analytic = loss_and_grad(U, S, params, 2, weights, parametrization)[1]
        numeric = losses.finite_diff_grad(loss_fn, params, 1e-5)
        scale = max(np.abs(numeric).max(), 1e-12)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3 * scale)
        max_rel = max(max_rel, float(rel.max()))
    report("analytic gradients match finite differences", max_rel < 1e-5, f"max rel={max_rel:.2e}")

    # hypervolume vs Monte-Carlo area
    hv_ok = True
    for _ in range(3):
        pts = rng.uniform(0.0, 1.0, (6, 2))
        ref = (1.0, 0.0)
        hv = pareto.hypervolume_2d(pts, ref)
        samples_xy = rng.uniform(0.0, 1.0, (200_000, 2))
        covered = np.zeros(len(samples_xy), dtype=bool)
        for x, y in pts:
            covered |= (samples_xy[:, 0] >= x) & (samples_xy[:, 1] <= y)
        hv_mc = covered.mean()
        hv_ok &= abs(hv - hv_mc) < 5e-3
    report("hypervolume matches Monte-Carlo area estimate", hv_ok)

    # transport marginals and dual ascent
    pair = ScorePair.single(rng.uniform(0.05, 0.95, (8, 12)))
    policy, info = baselines.congestion_alleviation(
        pair, 3, baselines.CAConfig(epsilon=0.01), return_info=True
    )
    rows_ok = np.abs(policy.P.sum(axis=1) - 1.0).max() < 1e-6
    cols_ok = np.abs(policy.P.sum(axis=0) - 8 / 12).max() < 1e-6
    dual_ok = bool(np.all(np.diff(info.dual_history) >= -1e-9))
    report("transport marginals satisfied and dual non-decreasing", rows_ok and cols_ok and dual_ok)

    # the matrix writer vs per-value formatting: random magnitudes over every
    # layout and the values left to `%`, ties, and the floats around 10**p
    powers = 10.0 ** np.arange(-6, 18)
    values = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 9999999999999998.0],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
        rng.integers(26215, 262144, 900) / 2.0**18,
        rng.uniform(-1.0, 1.0, 9000) * 10.0 ** rng.integers(-7, 18, 9000),
    ])
    M = values[:10_000].reshape(100, 100)
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in M.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        save_matrix(M, Path(tmp) / "m.csv")
        written = (Path(tmp) / "m.csv").read_bytes()
    report("matrix writer matches %.17g", written == expected.encode(), f"{M.size} values")

    # the sampler vs scipy.stats, imported here only: both mass cases (the
    # boosts 0.5 and up put b <= 0), at the clipped uniforms' edges too
    import scipy
    from scipy.special import logsumexp
    from scipy.stats import truncnorm

    q = np.concatenate([[datagen._EDGE, 1.0 - datagen._EDGE], rng.random(998)])
    loc = datagen.BASE_LOC + np.array([0.0, 0.3, 0.5, 0.7, 5.0])
    scale = np.array(sorted({family[1] for family in datagen.FAMILIES.values()}))
    q, loc, scale = np.broadcast_arrays(q[:, None, None], loc[:, None], scale)
    alpha, beta = (0.0 - loc) / scale, (1.0 - loc) / scale
    log_cdf_a, log_mass = datagen._truncnorm_log_terms(alpha, beta)
    ours = datagen._truncnorm_ppf(q, log_cdf_a, log_mass) * scale + loc
    theirs = truncnorm.ppf(q, alpha, beta, loc=loc, scale=scale)
    same = np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
    report("sampler matches truncnorm.ppf bit for bit", same,
           f"scipy {scipy.__version__}, {q.size} values")

    # the log-sum-exp that the sampler and congestion alleviation share vs
    # scipy's: the sampler's (2, B) pairs with ties appended, and both axes
    # of a matrix whose lines tie at their maximum outside the noisy corner
    pairs = np.stack([log_cdf_a.ravel(), (np.log(q) + log_mass).ravel()])
    pairs = np.concatenate([pairs, pairs[:1].repeat(2, axis=0)], axis=1)
    tied = rng.integers(0, 4, (40, 60)) * 7.0
    tied[:20, :30] += rng.random((20, 30))
    same = all(np.array_equal(_logsumexp(a, axis).view(np.uint64),
                              logsumexp(a, axis=axis).view(np.uint64))
               for a, axis in ((pairs, 0), (tied, 0), (tied, 1)))
    report("log-sum-exp matches scipy.special.logsumexp bit for bit", same,
           f"scipy {scipy.__version__}, {pairs.shape[1] + tied.shape[0] + tied.shape[1]} sums")

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="feir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic dataset CSVs")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None, help="output directory (overrides config)")
    p_gen.add_argument("--seed", type=int, default=None, help="master seed override")

    p_run = sub.add_parser("run", help="run configured methods into solutions.csv")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--save-matrices", action="store_true",
                       help="also write count/policy CSVs per solution")

    p_rep = sub.add_parser("report", help="summarize solutions.csv")
    p_rep.add_argument("--solutions", required=True)
    p_rep.add_argument("--config", default=None, help="report config JSON (axes/refs)")
    p_rep.add_argument("--out", default=None)

    p_chk = sub.add_parser("check", help="run the oracle validation suite")
    p_chk.add_argument("--fast", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "check":
        return cmd_check(fast=args.fast)

    if args.command == "report":
        report_config = load_config(args.config) if args.config else None
        out_dir = Path(args.out) if args.out else Path(args.solutions).parent
        pareto_path, hv_path = cmd_report(Path(args.solutions), report_config, out_dir)
        print(f"wrote {pareto_path} and {hv_path}")
        return 0

    config = checked(OBJECT, "top-level config", load_config(args.config))
    if args.seed is not None:
        config["seed"] = args.seed
    output_dir = checked(PATH, "output_dir", config.get("output_dir", "out"))
    out_dir = Path(args.out) if args.out else output_dir

    if args.command == "generate":
        for path in cmd_generate(config, out_dir):
            print(f"wrote {path}")
        return 0

    solutions = cmd_run(config, out_dir, save_matrices=args.save_matrices)
    print(f"wrote {solutions}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

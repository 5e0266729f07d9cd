"""Every key of a full run config, of a generate config and of a report
axis, set to each wrong JSON type in turn. A command either runs, with no
error row but those the README documents, or raises a ValueError that names
the key and leaves no directory behind; a dataset file that does not exist
raises FileNotFoundError instead. The keys come from the schema that
`feir.cli` declares, so a new key is covered as soon as a section reads it."""

import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from feir.cli import (AXIS_KEYS, DATASET_FILE_KEYS, DATASET_GEN_KEYS, METHODS, TOP_LEVEL_KEYS,
                      cmd_run, main)
from feir.core import save_matrix
from feir.optim import Scaling

# a value of every JSON type, 0, which a falsy check would read as absent, and -1
WRONG = [None, True, "x", 1.5, 10**400, float("nan"), float("inf"), [], [1], {}, {"a": 1}, 0, -1]
WRONG_IDS = ["null", "true", "string", "real", "huge", "nan", "inf", "empty_list", "list",
             "empty_object", "object", "zero", "negative"]

GENERATED = {"family": "user_groups", "m": 4, "n": 6, "seed": 1, "group_fraction": 0.5,
             "group_boost": 0.3}
FILES = {"u_path": "U.csv", "s_path": "S.csv"}
METHOD_CONFIGS = {
    "naive": {},
    "feir": {"weight_grid": [[1, 1, 1, 0]], "learning_rate": 1.0, "max_steps": 5,
             "convergence_tol": 1e-6, "parametrization": "logits",
             "scaling": {"kind": "minibatch", "b": 2}},
    "shuffle": {"d": 3},
    "ca": {"epsilons": [0.1], "max_iters": 1000, "marginal_tol": 1e-6},
    "rr": {"tau": 0.0, "exclusive": False},
}
AXIS = {"x": "inferiority_norm", "y": "utility_norm", "ref": [1.0, 0.95], "threshold": 0.9}

# the error rows that the README lists as failures that depend on the data
DOCUMENTED_ERRORS = re.compile("|".join([
    r"m\*k = \d+ exceeds n = \d+: exclusive allocation is infeasible",  # rr exclusive
    r"need k <= d <= n",  # shuffle with d > n
    r"(batch size|user sample|item sample) \w+=\d+ exceeds [mn]=\d+",  # a scaling size
    r"no convergence in \d+ sweeps",  # ca
    r"\w+ became \S+ at step \d+",  # a fit that diverges
]))


def run_key_paths():
    """(path, dataset form) of every key that a full run config reads."""
    paths = [((key,), "generated") for key in TOP_LEVEL_KEYS]
    paths += [(("dataset", key), "generated") for key in DATASET_GEN_KEYS]
    paths += [(("dataset", key), "files") for key in DATASET_FILE_KEYS]
    for method, (_, keys) in METHODS.items():
        paths += [(("methods", method), "generated")]
        paths += [(("methods", method, key), "generated") for key in keys]
    paths += [(("methods", "feir", "scaling", f.name), "generated") for f in fields(Scaling)]
    return paths


def with_value(config, path, value):
    """A deep copy of config with value set at path, adding the key if absent."""
    config = json.loads(json.dumps(config))
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return config


def names_key(message, key):
    return re.search(rf"\b{re.escape(key)}\b", message) is not None


def statuses(path):
    with open(path, encoding="utf-8") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


def run_main(tmp_path, argv, key, value, out_dir):
    """main(argv) in tmp_path: either it succeeds, or it refuses with a
    ValueError naming key (or FileNotFoundError for a missing dataset file)
    and leaves tmp_path as it was. Returns whether it succeeded."""
    before = sorted(tmp_path.iterdir())
    try:
        main(argv)
    except ValueError as err:
        assert names_key(str(err), key), str(err)[:300]
    except FileNotFoundError as err:
        assert key in DATASET_FILE_KEYS and value == "x", err
    else:
        assert out_dir.is_dir()
        return True
    assert sorted(tmp_path.iterdir()) == before
    return False


@pytest.fixture
def score_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    for name in FILES.values():
        save_matrix(rng.uniform(0.05, 0.95, (4, 6)), tmp_path / name)


@pytest.mark.parametrize("value", WRONG, ids=WRONG_IDS)
@pytest.mark.parametrize("path, form", run_key_paths(),
                         ids=[".".join(path) + ("@files" if form == "files" else "")
                              for path, form in run_key_paths()])
def test_run_config_value(tmp_path, score_files, path, form, value):
    config = {"seed": 3, "output_dir": "out", "ks": [2],
              "dataset": GENERATED if form == "generated" else FILES,
              "methods": METHOD_CONFIGS}
    (tmp_path / "config.json").write_text(json.dumps(with_value(config, path, value)))
    out_dir = tmp_path / (value if path == ("output_dir",) and value == "x" else "out")
    if run_main(tmp_path, ["run", "--config", "config.json"], path[-1], value, out_dir):
        errors = [s for s in statuses(out_dir / "solutions.csv") if s != "ok"]
        assert all(DOCUMENTED_ERRORS.match(s.removeprefix("error: ")) for s in errors), errors


def test_full_run_config_runs_clean(tmp_path, score_files):
    for form, dataset in (("generated", GENERATED), ("files", FILES)):
        config = {"ks": [2], "dataset": dataset, "methods": METHOD_CONFIGS}
        rows = statuses(cmd_run(config, tmp_path / form))
        assert rows == ["ok"] * 5


GENERATE_KEY_PATHS = [("seed",), ("output_dir",)] + [("dataset", key) for key in DATASET_GEN_KEYS]


@pytest.mark.parametrize("value", WRONG, ids=WRONG_IDS)
@pytest.mark.parametrize("path", GENERATE_KEY_PATHS,
                         ids=[".".join(path) for path in GENERATE_KEY_PATHS])
def test_generate_config_value(tmp_path, monkeypatch, path, value):
    # a config that generate writes, run accepts too: the top-level seed is
    # checked even where the dataset's own seed is the one drawn from
    monkeypatch.chdir(tmp_path)
    config = with_value({"seed": 3, "output_dir": "out", "dataset": GENERATED}, path, value)
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["generate", "--config", "config.json", "--out", "data"]
    if run_main(tmp_path, argv, path[-1], value, tmp_path / "data"):
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == [
            "user_groups_U.csv", "user_groups_U.meta.json"]
        cmd_run({**config, "ks": [2], "methods": {"naive": {}}}, tmp_path / "run")


@pytest.fixture(scope="module")
def solutions(tmp_path_factory):
    config = {"ks": [2], "dataset": GENERATED, "methods": METHOD_CONFIGS}
    return cmd_run(config, tmp_path_factory.mktemp("run") / "out")


@pytest.mark.parametrize("value", WRONG, ids=WRONG_IDS)
@pytest.mark.parametrize("key", AXIS_KEYS)
def test_report_axis_value(tmp_path, monkeypatch, solutions, key, value):
    monkeypatch.chdir(tmp_path)
    axes = [{**AXIS, key: value}]
    (tmp_path / "report.json").write_text(json.dumps({"axes": axes}))
    argv = ["report", "--solutions", str(solutions), "--config", "report.json", "--out", "rep"]
    if run_main(tmp_path, argv, key, value, tmp_path / "rep"):
        assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [
            "hv_table.csv", "pareto.csv"]

import csv
import json
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import feir.baselines
import feir.cli
from feir.baselines import CAConfig, RRConfig
from feir.cli import (
    DEFAULT_REPORT_AXES,
    SOLUTION_COLUMNS,
    UNDEFINED_CELL,
    cmd_check,
    cmd_generate,
    cmd_report,
    cmd_run,
    derive_seed,
    main,
)
from feir.core import load_matrix, save_matrix, top_k
from feir.datagen import GenSpec
from feir.optim import Scaling, TrainConfig


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def intro_dataset(tmp_path):
    u_path = tmp_path / "intro_u.csv"
    save_matrix(np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]]), u_path)
    return u_path


class TestDeriveSeed:
    def test_stable(self):
        a = derive_seed(1, "feir", {"w1": 1.0}, 10)
        b = derive_seed(1, "feir", {"w1": 1.0}, 10)
        assert a == b

    def test_decorrelated(self):
        seeds = {
            derive_seed(1, m, {"w1": w}, k)
            for m in ("feir", "ca")
            for w in (0.0, 1.0)
            for k in (1, 5)
        }
        assert len(seeds) == 8


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        config = {"seed": 3, "dataset": {"family": "user_groups"}}
        written = cmd_generate(config, tmp_path / "out")
        assert len(written) == 1
        M = load_matrix(written[0])
        assert M.shape == (20, 100)
        meta = json.loads(written[0].with_suffix(".meta.json").read_text())
        assert meta["m"] == 20 and meta["generator"].startswith("user_groups(")

    def test_su_pair_writes_two_files(self, tmp_path):
        config = {"dataset": {"family": "su_pair", "seed": 5}}
        written = cmd_generate(config, tmp_path / "out")
        assert [p.name for p in written] == ["su_pair_U.csv", "su_pair_S.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        config = {"dataset": {"family": "random", "m": 8, "n": 6, "seed": 11}}
        first = cmd_generate(config, tmp_path / "a")[0].read_bytes()
        second = cmd_generate(config, tmp_path / "b")[0].read_bytes()
        assert first == second

    def test_numpy_integer_seed_writes_a_plain_sidecar(self, tmp_path):
        def written(seed, out):
            paths = cmd_generate({"seed": seed, "dataset": {"family": "su_pair", "m": 4}}, out)
            return [(p.read_bytes(), p.with_suffix(".meta.json").read_bytes()) for p in paths]

        assert written(np.int64(7), tmp_path / "numpy") == written(7, tmp_path / "int")

    @pytest.mark.parametrize("seed", ["7", True, 1.5])
    def test_dataset_seed_must_be_an_integer(self, tmp_path, seed):
        config = {"dataset": {"family": "user_groups", "m": 4, "n": 6, "seed": seed}}
        with pytest.raises(ValueError) as err:
            cmd_generate(config, tmp_path / "out")
        assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_first_write_leaves_no_directory(self, tmp_path, cut_second_write, error):
        cut_second_write(feir.core, "_U.csv", error, at=1)
        with pytest.raises(error):
            cmd_generate({"seed": 3, "dataset": {"family": "user_groups", "m": 4, "n": 6}},
                         tmp_path / "data" / "fresh")
        assert not (tmp_path / "data").exists()
        assert list(tmp_path.rglob(".*.tmp")) == []

    def test_needs_family(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset)}}
        with pytest.raises(ValueError):
            cmd_generate(config, tmp_path / "out")


class TestRun:
    def test_naive_only(self, tmp_path, intro_dataset):
        config = {
            "seed": 1,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}},
        }
        path = cmd_run(config, tmp_path / "out")
        rows = read_rows(path)
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "naive"
        assert float(row["envy"]) == 0.0
        assert float(row["utility_norm"]) == 1.0
        assert row["status"] == "ok"
        assert list(row) == SOLUTION_COLUMNS

    def test_row_counting_contract(self, tmp_path, intro_dataset):
        grid = [[0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0],
                [1, 1, 1, 0], [0, 3, 1, 0], [3, 0, 1, 0]]
        config = {
            "seed": 2,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1, 2],
            "methods": {
                "naive": {},
                "feir": {"weight_grid": grid, "max_steps": 40},
            },
        }
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        feir_rows = [r for r in rows if r["method"] == "feir"]
        naive_rows = [r for r in rows if r["method"] == "naive"]
        assert len(feir_rows) == 12 and len(naive_rows) == 2

    def test_resume_without_duplicates(self, tmp_path, intro_dataset):
        config = {
            "seed": 3,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}, "shuffle": {"d": 2}},
        }
        out = tmp_path / "out"
        first = read_rows(cmd_run(config, out))
        second = read_rows(cmd_run(config, out))
        assert first == second

    def test_rerun_skips_done_rows_before_solving(self, tmp_path, intro_dataset, monkeypatch):
        config = {
            "seed": 3,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1, 2],
            "methods": {"naive": {}, "feir": {"weight_grid": [[0, 1, 1, 0], [1, 0, 1, 0]],
                                              "max_steps": 20}},
        }
        out = tmp_path / "out"
        first = cmd_run(config, out).read_bytes()
        inode = (out / "solutions.csv").stat().st_ino
        fits = []
        real_fit = feir.cli.fit
        monkeypatch.setattr(feir.cli, "fit", lambda *a, **kw: fits.append(a) or real_fit(*a, **kw))
        # nor is the naive normaliser evaluated, as no k has a row to solve
        evaluations = []
        real_system_metrics = feir.cli.metrics.system_metrics
        monkeypatch.setattr(feir.cli.metrics, "system_metrics",
                            lambda *a, **kw: evaluations.append(a) or real_system_metrics(*a, **kw))
        second = cmd_run(config, out).read_bytes()
        assert fits == []
        assert evaluations == []
        assert second == first
        # not rewritten either: a replaced file would have a new inode
        assert (out / "solutions.csv").stat().st_ino == inode

    def test_interrupted_run_resumes_to_the_uninterrupted_file(self, tmp_path, monkeypatch):
        grid = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 0], [0, 3, 1, 0]]
        config = {
            "seed": 4,
            "dataset": {"family": "user_groups", "m": 8, "n": 20},
            "ks": [5],
            "methods": {"naive": {}, "feir": {"weight_grid": grid, "max_steps": 30},
                        "ca": {"epsilons": [0.01]}},
        }
        whole = cmd_run(config, tmp_path / "whole").read_bytes()
        fits = []
        real_fit = feir.cli.fit

        def interrupted_fit(*args, **kwargs):
            fits.append(args)
            if len(fits) == 3:
                raise KeyboardInterrupt
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(feir.cli, "fit", interrupted_fit)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            cmd_run(config, out)
        # the naive row and the first two fits were saved as each finished
        assert [r["method"] for r in read_rows(out / "solutions.csv")] == ["feir", "feir", "naive"]
        monkeypatch.setattr(feir.cli, "fit", real_fit)
        assert cmd_run(config, out).read_bytes() == whole
        assert [p.name for p in out.iterdir()] == ["solutions.csv"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_rewrite_keeps_earlier_rows(self, tmp_path, intro_dataset, cut_second_write,
                                              error):
        config = {
            "seed": 3,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}},
        }
        out = tmp_path / "out"
        before = cmd_run(config, out).read_bytes()
        cut_second_write(feir.cli, "solutions.csv", error)
        config["methods"]["shuffle"] = {"d": 2}
        with pytest.raises(error):
            cmd_run(config, out)
        assert (out / "solutions.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["solutions.csv"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_first_write_leaves_no_directory(self, tmp_path, intro_dataset,
                                                    cut_second_write, error):
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1], "methods": {"naive": {}}}
        cut_second_write(feir.cli, "solutions.csv", error)
        with pytest.raises(error):
            cmd_run(config, tmp_path / "fresh" / "out")
        assert not (tmp_path / "fresh").exists()
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_first_matrix_write_leaves_no_matrices_directory(
            self, tmp_path, intro_dataset, cut_second_write, error):
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1], "methods": {"naive": {}}}
        cut_second_write(feir.core, "_counts.csv", error, at=1)
        out = tmp_path / "out"
        # a failed save stops the run before its row is written
        with pytest.raises(error):
            cmd_run(config, out, save_matrices=True)
        assert not out.exists()
        assert list(tmp_path.rglob(".*.tmp")) == []

    def test_failed_save_stops_the_run_and_a_rerun_saves_its_row(self, tmp_path, intro_dataset,
                                                                 monkeypatch):
        config = {"seed": 4, "dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"naive": {}, "shuffle": {"d": 2}, "rr": {"tau": 0.3}}}
        whole = tmp_path / "whole"
        cmd_run(config, whole, save_matrices=True)
        real_save = feir.cli.save_matrix
        calls = []

        def full_once(M, path):
            calls.append(path.name)
            if len(calls) == 2:  # the shuffle row's counts
                raise OSError("disk full")
            real_save(M, path)

        monkeypatch.setattr(feir.cli, "save_matrix", full_once)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            cmd_run(config, out, save_matrices=True)
        # the rows before the failed save are kept, the failed row is not written
        assert [r["method"] for r in read_rows(out / "solutions.csv")] == ["naive"]
        assert [p.name for p in (out / "matrices").iterdir()] == [calls[0]]
        # the re-run solves and saves the failed row, and the rows after it
        assert cmd_run(config, out, save_matrices=True).read_bytes() == (
            whole / "solutions.csv").read_bytes()
        assert len(calls) == 4
        assert sorted(p.name for p in (out / "matrices").iterdir()) == sorted(calls[:1] + calls[2:])
        for path in (whole / "matrices").iterdir():
            assert (out / "matrices" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [r + ["note" if i == 0 else "x"] for i, r in enumerate(rows)],
         "solutions file has unknown columns: ['note']"),
        (lambda rows: [r[:7] + r[8:] for r in rows], "solutions file lacks columns: ['tau']"),
        (lambda rows: [["method", "k", "foo"]],
         f"solutions file lacks columns: {sorted(set(SOLUTION_COLUMNS) - {'method', 'k'})}"),
    ], ids=["extra_column", "missing_key_column", "foreign_header_only"])
    def test_foreign_header_refused_before_solving(self, tmp_path, monkeypatch, edit, message):
        config = {
            "seed": 5,
            "dataset": {"family": "random", "m": 6, "n": 8},
            "ks": [2],
            "methods": {"naive": {}, "feir": {"weight_grid": [[1, 1, 1, 0]], "max_steps": 5},
                        "ca": {"epsilons": [0.01]}},
        }
        path = cmd_run(config, tmp_path / "out")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][7] == "tau"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        before = path.read_bytes()
        solves = []
        real_fit, real_ca = feir.cli.fit, feir.baselines.congestion_alleviation
        monkeypatch.setattr(feir.cli, "fit", lambda *a, **kw: solves.append(a) or real_fit(*a, **kw))
        monkeypatch.setattr(feir.baselines, "congestion_alleviation",
                            lambda *a, **kw: solves.append(a) or real_ca(*a, **kw))
        # a new FEIR point and a new CA row, so the re-run has work to refuse
        config["methods"]["feir"]["weight_grid"].append([0, 1, 1, 0])
        config["methods"]["ca"]["epsilons"].append(0.1)
        with pytest.raises(ValueError) as err:
            cmd_run(config, tmp_path / "out")
        assert str(err.value) == message
        assert solves == []
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["solutions.csv"]

    def test_reordered_header_is_read(self, tmp_path, intro_dataset):
        config = {"seed": 3, "dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"naive": {}}}
        path = cmd_run(config, tmp_path / "out")
        first = path.read_bytes()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(row[::-1] for row in rows)
        config["methods"]["shuffle"] = {"d": 2}
        cmd_run(config, tmp_path / "out")
        # rewritten in the documented order, the earlier row kept as it was
        assert path.read_bytes().startswith(first)
        assert [r["method"] for r in read_rows(path)] == ["naive", "shuffle"]

    def test_config_without_runs_writes_the_header(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"ca": {"epsilons": []}}}
        path = cmd_run(config, tmp_path / "out")
        # the documented header, whose metric columns follow SolutionPoint's fields
        assert path.read_text().splitlines() == [
            "method,w1,w2,w3,w4,d,epsilon,tau,k,seed,utility,utility_norm,envy,inferiority,"
            "inferiority_norm,overall_norm,mean_rank,mean_gap,gini,status"]

    def test_failures_become_rows(self, tmp_path, intro_dataset):
        # rr with m*k > n under exclusivity cannot allocate; a shuffle pool
        # cannot hold more than n items
        config = {
            "seed": 4,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [2],
            "methods": {"rr": {"tau": 0.0}, "shuffle": {"d": 4}},
        }
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        assert len(rows) == 2
        for row in rows:
            assert row["status"].startswith("error:")
            assert row["utility"] == ""

    def test_default_ks_stop_at_n(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset)}, "methods": {"naive": {}}}
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        assert [r["k"] for r in rows] == ["1"]

    @pytest.mark.parametrize("top_level, message", [
        ({"sed": 9}, r"unknown top-level config keys \['sed'\]"),
        ({"kss": [2]}, r"unknown top-level config keys \['kss'\]"),
        ({"ks": [0]}, r"ks \[0\] outside \[1, 3\]"),
        ({"ks": [1, 4]}, r"ks \[4\] outside \[1, 3\]"),
        ({"seed": 1.5}, r"seed must be an integer, got 1\.5"),
        ({"seed": "7"}, r"seed must be an integer, got '7'"),
        ({"seed": True}, r"seed must be an integer, got True"),
        ({"ks": [True]}, r"ks must be a non-empty list of integers, got \[True\]"),
        ({"ks": [2.0]}, r"ks must be a non-empty list of integers, got \[2\.0\]"),
    ], ids=["sed", "kss", "ks_zero", "ks_above_n", "seed_float", "seed_str", "seed_bool",
            "ks_bool", "ks_float"])
    def test_bad_top_level_config_raises_before_solving(self, tmp_path, intro_dataset,
                                                         monkeypatch, top_level, message):
        fits = []
        monkeypatch.setattr(feir.cli, "fit", lambda *a: fits.append(a))
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"naive": {}, "feir": {"weight_grid": [[0, 1, 1, 0]]}},
                  **top_level}
        with pytest.raises(ValueError, match=message):
            cmd_run(config, tmp_path / "out")
        assert fits == []
        assert not (tmp_path / "out").exists()

    def test_methods_required(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1], "methods": {}}
        with pytest.raises(ValueError):
            cmd_run(config, tmp_path / "out")

    def test_unknown_method_rejected(self, tmp_path, intro_dataset):
        config = {
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naiv": {}, "FEIR": {}, "naive": {}},
        }
        with pytest.raises(ValueError, match=r"\['FEIR', 'naiv'\].*'naive', 'feir'"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_weight_grid_rejected(self, tmp_path, intro_dataset):
        config = {
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}, "feir": {"weight_grid": []}},
        }
        with pytest.raises(ValueError, match="weight_grid"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_file(self, tmp_path):
        config = {"dataset": {"u_path": str(tmp_path / "ghost.csv")}, "methods": {"naive": {}}}
        with pytest.raises(FileNotFoundError):
            cmd_run(config, tmp_path / "out")

    def test_missing_suitability_file(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset), "s_path": str(tmp_path / "ghost.csv")},
                  "methods": {"naive": {}}}
        with pytest.raises(FileNotFoundError, match="ghost.csv does not exist"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, files", [("su_pair", 2), ("user_groups", 1)])
    def test_generated_files_run_as_their_generator(self, tmp_path, family, files):
        dataset = {"family": family, "m": 12, "n": 30, "seed": 4}
        paths = cmd_generate({"dataset": dataset}, tmp_path / "data")
        assert len(paths) == files
        run = {"seed": 3, "ks": [1, 2], "methods": {
            "naive": {}, "shuffle": {}, "ca": {"epsilons": [0.05]}, "rr": {},
            "feir": {"weight_grid": [[1, 1, 1, 0]], "max_steps": 50}}}
        expected = cmd_run({**run, "dataset": dataset}, tmp_path / "generated").read_bytes()
        from_files = {**run, "dataset": dict(zip(("u_path", "s_path"), map(str, paths)))}
        solutions = cmd_run(from_files, tmp_path / "files")
        assert solutions.read_bytes() == expected
        assert [r["status"] for r in read_rows(solutions)] == ["ok"] * 10

    def test_empty_ks_rejected(self, tmp_path, intro_dataset):
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [], "methods": {"naive": {}}}
        with pytest.raises(ValueError, match=r"^ks must be a non-empty list of integers, got \[\]$"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_save_matrices(self, tmp_path, intro_dataset):
        config = {
            "seed": 5,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}, "ca": {"epsilons": [0.01]}},
        }
        cmd_run(config, tmp_path / "out", save_matrices=True)
        files = sorted(p.name for p in (tmp_path / "out" / "matrices").iterdir())
        assert any("naive" in f and "counts" in f for f in files)
        assert any("ca" in f and "policy" in f for f in files)

    def test_saved_matrices_read_back_exactly(self, tmp_path, intro_dataset, monkeypatch):
        config = {
            "seed": 5,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1, 2],
            "methods": {"naive": {}, "feir": {"weight_grid": [[0, 1, 1, 0]], "max_steps": 20},
                        "ca": {"epsilons": [0.01, 0.1]}},
        }
        saved = {}
        real_save = feir.cli.save_matrix

        def record(M, path):
            saved[path.name] = M
            real_save(M, path)

        monkeypatch.setattr(feir.cli, "save_matrix", record)
        cmd_run(config, tmp_path / "out", save_matrices=True)
        matrices = tmp_path / "out" / "matrices"
        assert sorted(p.name for p in matrices.iterdir()) == sorted(saved)
        assert len(saved) == 2 * (1 + 2 + 2 * 2)  # per k: naive counts, feir and ca both
        U = load_matrix(intro_dataset)
        for name in saved:
            back = load_matrix(matrices / name)
            if name.endswith("_policy.csv"):
                assert np.array_equal(back.view(np.uint64), saved[name].view(np.uint64))
                continue
            k = int(name.split("_")[1][1:])
            policy_name = name.replace("_counts.csv", "_policy.csv")
            P = saved[policy_name] if policy_name in saved else U  # naive: top_k of U
            np.testing.assert_array_equal(back, top_k(P, k).C)

    def test_integer_spelled_params_share_one_row(self, tmp_path, intro_dataset):
        out = tmp_path / "out"
        spellings = (
            {"feir": {"weight_grid": [[1, 3, 1, 0]], "max_steps": 20},
             "ca": {"epsilons": [1]}, "rr": {"tau": 0}},
            {"feir": {"weight_grid": [[1.0, 3.0, 1.0, 0.0]], "max_steps": 20},
             "ca": {"epsilons": [1.0]}, "rr": {"tau": 0.0}},
        )
        for methods in spellings:
            config = {"seed": 8, "dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                      "methods": methods}
            rows = read_rows(cmd_run(config, out))
        assert sorted(r["method"] for r in rows) == ["ca", "feir", "rr"]

    @pytest.mark.parametrize("method, cfg, unknown", [
        ("feir", {"learning_rat": 0.5, "max_step": 5}, ["learning_rat", "max_step"]),
        ("ca", {"epsilon": [0.5]}, ["epsilon"]),
        ("rr", {"tau": 0.1, "seed": 3}, ["seed"]),
        ("shuffle", {"D": 2}, ["D"]),
        ("naive", {"k": 1}, ["k"]),
    ])
    def test_unknown_method_keys_rejected(self, tmp_path, intro_dataset, monkeypatch,
                                          method, cfg, unknown):
        fits = []
        monkeypatch.setattr(feir.cli, "fit", lambda *a: fits.append(a))
        config = {
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"feir": {"weight_grid": [[0, 1, 1, 0]]}, method: cfg},
        }
        valid = list(feir.cli.METHODS[method][1])
        with pytest.raises(ValueError) as err:
            cmd_run(config, tmp_path / "out")
        assert str(err.value) == f"unknown {method} config keys {unknown}; valid keys are {valid}"
        assert fits == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset, unknown, valid", [
        ({"family": "random", "m": 4, "n": 5, "sead": 3}, ["sead"],
         ["family", "m", "n", "seed", "group_fraction", "group_boost"]),
        ({"family": "user_groups", "group_fractoin": 0.2, "loc": 0.4}, ["group_fractoin", "loc"],
         ["family", "m", "n", "seed", "group_fraction", "group_boost"]),
        ({"u_path": None, "s_paht": "S.csv"}, ["s_paht"], ["u_path", "s_path"]),
    ])
    def test_unknown_dataset_keys_rejected(self, tmp_path, intro_dataset, dataset, unknown,
                                           valid):
        if "u_path" in dataset:
            dataset = {**dataset, "u_path": str(intro_dataset)}
        config = {"dataset": dataset, "ks": [1], "methods": {"naive": {}}}
        with pytest.raises(ValueError) as err:
            cmd_run(config, tmp_path / "out")
        assert str(err.value) == f"unknown dataset config keys {unknown}; valid keys are {valid}"
        assert not (tmp_path / "out").exists()

    def test_dataset_needs_a_form(self, tmp_path):
        config = {"dataset": {"m": 4, "n": 5}, "ks": [1], "methods": {"naive": {}}}
        with pytest.raises(ValueError, match=r"'u_path'.*'family'"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unknown_scaling_keys_rejected(self, tmp_path, intro_dataset, monkeypatch):
        fits = []
        monkeypatch.setattr(feir.cli, "fit", lambda *a: fits.append(a))
        config = {
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}, "feir": {"weight_grid": [[0, 1, 1, 0]],
                                              "scaling": {"kind": "none", "bb": 3}}},
        }
        with pytest.raises(ValueError) as err:
            cmd_run(config, tmp_path / "out")
        assert str(err.value) == ("unknown feir scaling config keys ['bb']; "
                                  "valid keys are ['kind', 'b', 'm_s', 'n_s']")
        assert fits == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, bad, fixed", [
        ("ca", {"epsilons": [0.01], "marginal_tol": 0}, {"epsilons": [0.01], "marginal_tol": 1e-9}),
        ("ca", {"epsilons": [-1]}, {"epsilons": [0.01]}),
        ("ca", {"epsilons": [0.01], "max_iters": 0}, {"epsilons": [0.01], "max_iters": 100}),
        ("rr", {"tau": 1.5}, {"tau": 0.5}),
        ("shuffle", {"d": 0}, {"d": 2}),
    ])
    def test_invalid_settings_raise_before_solving(self, tmp_path, intro_dataset, monkeypatch,
                                                   method, bad, fixed):
        fits = []
        real_fit = feir.cli.fit
        monkeypatch.setattr(feir.cli, "fit", lambda s, c: fits.append(c) or real_fit(s, c))
        out = tmp_path / "out"
        feir_cfg = {"weight_grid": [[0, 1, 1, 0]], "max_steps": 10}
        config = {"dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"naive": {}, "feir": feir_cfg, method: bad}}
        with pytest.raises(ValueError):
            cmd_run(config, out)
        assert fits == []
        assert not out.exists()
        # the corrected config, run into the same directory, gets no stale error row
        config["methods"][method] = fixed
        rows = read_rows(cmd_run(config, out))
        assert [r["status"] for r in rows] == ["ok"] * 3

    @pytest.mark.parametrize("section, bad, message", [
        ("feir", {"max_steps": 3.5}, r"max_steps must be an integer >= 1, got 3\.5"),
        ("feir", {"max_steps": True}, r"max_steps must be an integer >= 1, got True"),
        ("feir", {"max_steps": 0}, r"max_steps must be an integer >= 1, got 0"),
        ("feir", {"scaling": {"kind": "minibatch", "b": 2.5}},
         r"scaling 'minibatch' b must be an integer >= 1, got 2\.5"),
        ("ca", {"max_iters": 5.5}, r"max_iters must be an integer >= 1, got 5\.5"),
        ("shuffle", {"d": 2.5}, r"shuffle d must be an integer >= 1, got 2\.5"),
        ("rr", {"tau": "0.3"}, r"tau must be a number in \[0, 1\), got '0\.3'"),
        ("dataset", {"m": 6.0}, r"m must be an integer >= 2, got 6\.0"),
        ("dataset", {"n": "8"}, r"n must be an integer >= 2, got '8'"),
        # real-number settings are numbers, and neither strings nor bools
        ("feir", {"learning_rate": "0.5"}, r"learning_rate must be a positive number, got '0\.5'"),
        ("feir", {"learning_rate": True}, r"learning_rate must be a positive number, got True"),
        ("feir", {"convergence_tol": "1e-6"},
         r"convergence_tol must be a number >= 0, got '1e-6'"),
        ("feir", {"weight_grid": [[True, 1, 1, 0]]},
         r"loss weight w1 must be a number >= 0, got True"),
        ("feir", {"weight_grid": [["1", 1, 1, 0]]},
         r"loss weight w1 must be a number >= 0, got '1'"),
        ("ca", {"marginal_tol": "1e-9"}, r"marginal_tol must be a positive number, got '1e-9'"),
        ("ca", {"epsilons": ["0.1"]}, r"epsilon must be a positive number, got '0\.1'"),
        ("ca", {"epsilons": [True]}, r"epsilon must be a positive number, got True"),
        ("dataset", {"group_fraction": "0.5"},
         r"group_fraction must be a number in \(0, 1\), got '0\.5'"),
        ("dataset", {"group_boost": True}, r"group_boost must be a positive number, got True"),
        # a scaling size that its kind does not read
        ("feir", {"scaling": {"kind": "none", "b": 2.5}},
         r"scaling 'none' does not read b, got 2\.5"),
        ("feir", {"scaling": {"kind": "minibatch", "b": 2, "n_s": 999}},
         r"scaling 'minibatch' does not read n_s, got 999"),
        # RR exclusive is a bool, not a string or a number
        ("rr", {"exclusive": "false"}, r"exclusive must be true or false, got 'false'"),
        ("rr", {"exclusive": 0}, r"exclusive must be true or false, got 0"),
        # a list setting of the wrong shape, and a number too large for a float
        ("feir", {"weight_grid": [1, 1, 1, 0]}, r"feir weight_grid must be a non-empty list of "
                                                r"\[w1, w2, w3\] or \[w1, w2, w3, w4\] lists, "
                                                r"got \[1, 1, 1, 0\]"),
        ("feir", {"weight_grid": [[1, 1]]}, r"feir weight_grid .*, got \[\[1, 1\]\]"),
        ("feir", {"weight_grid": [[1, 1, 1, 0, 0]]},
         r"feir weight_grid .*, got \[\[1, 1, 1, 0, 0\]\]"),
        ("feir", {"weight_grid": "1, 1, 1"}, r"feir weight_grid .*, got '1, 1, 1'"),
        ("ca", {"epsilons": 0.1}, r"ca epsilons must be a list of numbers, got 0\.1"),
        ("feir", {"weight_grid": [[1, 10**400, 1, 0]]}, r"loss weight w2 must be finite"),
        ("feir", {"weight_grid": [[1, 1, 1, float("inf")]]},
         r"loss weight w4 must be finite, got inf"),
        ("ca", {"epsilons": [10**400]}, r"epsilon must be finite"),
        ("ca", {"epsilons": [float("inf")]}, r"epsilon must be finite, got inf"),
        ("feir", {"learning_rate": 10**400}, r"learning_rate must be finite"),
        ("feir", {"learning_rate": float("inf")}, r"learning_rate must be finite, got inf"),
        ("feir", {"convergence_tol": 10**400}, r"convergence_tol must be finite"),
        ("feir", {"convergence_tol": float("inf")}, r"convergence_tol must be finite, got inf"),
        ("ca", {"marginal_tol": 10**400}, r"marginal_tol must be finite"),
        ("ca", {"marginal_tol": float("inf")}, r"marginal_tol must be finite, got inf"),
        ("dataset", {"group_boost": 10**400}, r"group_boost must be finite"),
        ("dataset", {"group_boost": float("inf")}, r"group_boost must be finite, got inf"),
        # an integer too large for a float; its row key's float(d) overflowed
        # once the naive row was written
        ("shuffle", {"d": 10**400}, r"^shuffle d must be finite, got 1000"),
        ("dataset", {"m": 10**400}, r"^m must be finite, got 1000"),
        # a scaling size too large for a float failed every fit as an error row
        ("feir", {"scaling": {"kind": "minibatch", "b": 10**400}},
         r"^scaling 'minibatch' b must be finite, got 1000"),
        # a negative dataset seed escaped as numpy's "expected non-negative integer"
        ("dataset", {"seed": -1}, r"^seed must be an integer >= 0, got -1$"),
    ], ids=["max_steps_float", "max_steps_bool", "max_steps_zero", "scaling_b_float",
            "ca_max_iters_float", "shuffle_d_float", "rr_tau_str", "dataset_m_float",
            "dataset_n_str",
            "learning_rate_str", "learning_rate_bool", "convergence_tol_str", "weight_bool",
            "weight_str", "ca_marginal_tol_str", "ca_epsilon_str", "ca_epsilon_bool",
            "group_fraction_str", "group_boost_bool", "scaling_none_b", "scaling_minibatch_n_s",
            "rr_exclusive_str", "rr_exclusive_int", "grid_flat", "grid_short_point",
            "grid_long_point", "grid_str", "ca_epsilons_number", "weight_overflow", "weight_inf",
            "ca_epsilon_overflow", "ca_epsilon_inf", "learning_rate_overflow",
            "learning_rate_inf", "convergence_tol_overflow", "convergence_tol_inf",
            "ca_marginal_tol_overflow", "ca_marginal_tol_inf", "group_boost_overflow",
            "group_boost_inf", "shuffle_d_overflow", "dataset_m_overflow", "scaling_b_overflow",
            "dataset_seed_negative"])
    def test_non_integer_settings_raise_before_solving(self, tmp_path, monkeypatch, section,
                                                       bad, message):
        fits = []
        monkeypatch.setattr(feir.cli, "fit", lambda *a: fits.append(a))
        config = {"dataset": {"family": "random", "m": 6, "n": 8}, "ks": [2],
                  "methods": {"naive": {}, "feir": {"weight_grid": [[0, 1, 1, 0]]}}}
        target = config if section == "dataset" else config["methods"]
        target[section] = {**target.get(section, {}), **bad}
        with pytest.raises(ValueError, match=message):
            cmd_run(config, tmp_path / "out")
        assert fits == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_group_fraction_leaving_a_group_empty_raises_before_writing(self, tmp_path,
                                                                      fraction):
        config = {"dataset": {"family": "user_groups", "m": 20, "n": 100,
                              "group_fraction": fraction},
                  "ks": [2], "methods": {"naive": {}}}
        with pytest.raises(ValueError, match="group_fraction must leave both groups non-empty"):
            cmd_run(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_numpy_integer_settings_run_as_python_ints(self, tmp_path):
        def config(i):
            return {"seed": i(2), "dataset": {"family": "random", "m": i(6), "n": 8},
                    "ks": [i(1), i(2)], "methods": {"naive": {}, "shuffle": {"d": i(3)}}}

        expected = cmd_run(config(int), tmp_path / "int").read_bytes()
        assert cmd_run(config(np.int64), tmp_path / "numpy").read_bytes() == expected

    def test_shuffle_default_d_is_three_k_capped(self, tmp_path):
        config = {"dataset": {"family": "random", "m": 6, "n": 8}, "ks": [1, 2, 3],
                  "methods": {"shuffle": {}}}
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        assert [(r["k"], r["d"], r["status"]) for r in rows] == [
            ("1", "3", "ok"), ("2", "6", "ok"), ("3", "8", "ok")]

    def test_dataset_keys_are_the_genspec_fields(self):
        assert feir.cli.DATASET_GEN_KEYS == tuple(f.name for f in fields(GenSpec))

    def test_baseline_defaults_come_from_their_dataclasses(self, tmp_path, intro_dataset,
                                                           monkeypatch):
        seen = []
        for name in ("congestion_alleviation", "round_robin"):
            real = getattr(feir.baselines, name)
            monkeypatch.setattr(feir.baselines, name,
                                lambda *a, _real=real: seen.append(a[-1]) or _real(*a))
        config = {"seed": 2, "dataset": {"u_path": str(intro_dataset)}, "ks": [1],
                  "methods": {"ca": {"epsilons": [0.05]}, "rr": {}}}
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        rr_seed = int(next(r["seed"] for r in rows if r["method"] == "rr"))
        assert seen == [CAConfig(epsilon=0.05), RRConfig(seed=rr_seed)]

    def test_readme_config_keys_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(block) <= set(feir.cli.TOP_LEVEL_KEYS)
        assert set(block["dataset"]) <= set(feir.cli.DATASET_GEN_KEYS)
        for method, cfg in block["methods"].items():
            assert set(cfg) <= set(feir.cli.METHODS[method][1]), method
        Scaling(**block["methods"]["feir"]["scaling"])
        # the settings table: one row per key of each section, and each key
        # of a settings dataclass with its field's default and rule
        table = readme.split("| Section | Key | Default | Must be |\n", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[1:]]
        sections = {"dataset": (GenSpec, feir.cli.DATASET_GEN_KEYS),
                    "scaling": (Scaling, [f.name for f in fields(Scaling)])}
        sections.update((method, (cls, feir.cli.METHODS[method][1])) for method, cls in
                        (("feir", TrainConfig), ("shuffle", None), ("ca", CAConfig),
                         ("rr", RRConfig)))
        assert {name: [key.strip("`") for section, key, *_ in rows if section == f"`{name}`"]
                for name in sections} == {name: list(keys) for name, (_, keys) in sections.items()}
        for section, key, default_cell, rule_cell in rows:
            cls = sections[section.strip("`")][0]
            field = {f.name: f for f in (fields(cls) if cls else ())}.get(key.strip("`"))
            if field is None:
                continue  # a grid key, not a dataclass field
            if field.default is MISSING and field.default_factory is MISSING:
                assert default_cell == "required", key
            else:
                default = field.default if field.default is not MISSING else field.default_factory()
                value = json.loads(default_cell.split("`")[1])
                if is_dataclass(default):
                    value = type(default)(**value)
                assert (value, type(value)) == (default, type(default)), key
            if "rule" in field.metadata:
                assert rule_cell.split("; ")[0] == field.metadata["rule"].phrase, key

    def test_feir_scaling_config_plumbed_through(self, tmp_path):
        config = {
            "seed": 10,
            "dataset": {"family": "random", "m": 6, "n": 8, "seed": 3},
            "ks": [2],
            "methods": {
                "feir": {"weight_grid": [[0, 1, 1, 0]], "max_steps": 30,
                          "scaling": {"kind": "minibatch", "b": 2}},
            },
        }
        rows = read_rows(cmd_run(config, tmp_path / "out"))
        assert rows[0]["status"] == "ok"

    def test_feir_config_passed_to_fit(self, tmp_path, intro_dataset, monkeypatch):
        settings = {"learning_rate": 0.5, "max_steps": 7, "convergence_tol": 1e-3,
                    "parametrization": "direct", "scaling": {"kind": "minibatch", "b": 1}}
        configs = []
        real_fit = feir.cli.fit
        monkeypatch.setattr(feir.cli, "fit", lambda s, c: configs.append(c) or real_fit(s, c))
        for name, feir_cfg in (("set", settings), ("omitted", {})):
            config = {
                "dataset": {"u_path": str(intro_dataset)},
                "ks": [1],
                "methods": {"feir": {"weight_grid": [[0, 1, 1, 0]], **feir_cfg}},
            }
            cmd_run(config, tmp_path / name)
        given, default = configs
        assert (given.learning_rate, given.max_steps, given.convergence_tol,
                given.parametrization) == (0.5, 7, 1e-3, "direct")
        assert given.scaling == Scaling(kind="minibatch", b=1)
        defaults = TrainConfig(k=1, weights=default.weights, seed=default.seed)
        assert default == defaults

    def test_only_fits_sort_the_full_scores(self, tmp_path, order_builds):
        config = {
            "seed": 3, "ks": [5], "dataset": {"family": "user_groups", "m": 20, "n": 100},
            "methods": {"naive": {}, "ca": {"epsilons": [0.01]},
                        "feir": {"weight_grid": [[1, 1, 1, 0], [1, 3, 1, 0]], "max_steps": 20}},
        }
        rows = read_rows(cmd_run(config, tmp_path))
        assert [r["status"] for r in rows] == ["ok"] * 4
        # one full m x n order, shared by both fits; evaluation sorts only
        # each list's picks
        assert [shape for shape in order_builds if shape == (20, 100)] == [(20, 100)]
        evaluation = [shape for shape in order_builds if shape != (20, 100)]
        # the naive reference, then each of the four solutions once
        assert len(evaluation) == 1 + 4
        assert all(height * width < 20 * 100 for height, width in evaluation)

    def test_end_to_end_determinism(self, tmp_path):
        config = {
            "seed": 6,
            "dataset": {"family": "random", "m": 6, "n": 8, "seed": 2},
            "ks": [2],
            "methods": {
                "naive": {},
                "feir": {"weight_grid": [[0, 1, 1, 0]], "max_steps": 50},
                "ca": {"epsilons": [0.01]},
                "shuffle": {},
                "rr": {"tau": 0.2},
            },
        }
        a = cmd_run(config, tmp_path / "a").read_bytes()
        b = cmd_run(config, tmp_path / "b").read_bytes()
        assert a == b


class TestReport:
    @pytest.fixture
    def solutions(self, tmp_path, intro_dataset):
        config = {
            "seed": 7,
            "dataset": {"family": "random", "m": 8, "n": 12, "seed": 4},
            "ks": [2, 3],
            "methods": {
                "naive": {},
                "feir": {"weight_grid": [[0, 0, 1, 0], [0, 3, 1, 0], [3, 0, 1, 0]],
                          "max_steps": 60},
                "ca": {"epsilons": [0.003, 0.03]},
            },
        }
        return cmd_run(config, tmp_path / "out")

    def test_report_outputs(self, solutions, tmp_path):
        pareto_path, hv_path = cmd_report(solutions, None, tmp_path / "rep")
        front_rows = read_rows(pareto_path)
        assert front_rows, "front csv should not be empty"
        assert set(r["method"] for r in front_rows) <= {"naive", "feir", "ca"}
        for r in front_rows:  # params survive CSV quoting as valid JSON
            assert isinstance(json.loads(r["params"]), dict)
        hv_rows = read_rows(hv_path)
        axes = {r["axis"] for r in hv_rows}
        assert "inferiority_norm_vs_utility_norm" in axes
        assert {r["k"] for r in hv_rows} == {"2", "3"}
        for row in hv_rows:
            for col, value in row.items():
                assert value != "", f"empty cell in {col}"

    def test_custom_axis_config(self, solutions, tmp_path):
        report_cfg = {"axes": [{"x": "mean_gap", "y": "utility_norm",
                                "ref": [0.03, 0.9], "threshold": 0.9}]}
        _, hv_path = cmd_report(solutions, report_cfg, tmp_path / "rep2")
        rows = read_rows(hv_path)
        assert all(r["axis"] == "mean_gap_vs_utility_norm" for r in rows)

    def test_threshold_reads_the_axis_utility(self, tmp_path):
        config = {
            "seed": 1,
            "dataset": {"family": "user_groups", "m": 8, "n": 20},
            "ks": [5],
            "methods": {"naive": {}, "ca": {"epsilons": [0.01, 0.1]}},
        }
        solutions = cmd_run(config, tmp_path / "out")
        # raw utility is about 3.8 here, while utility_norm never exceeds 2
        axis = {"x": "envy", "y": "utility", "ref": [1.0, 2.0], "threshold": 2.0}
        _, hv_path = cmd_report(solutions, {"axes": [axis]}, tmp_path / "rep")
        [hv_row] = read_rows(hv_path)
        rows = read_rows(solutions)
        for method in ("naive", "ca"):
            envy = [float(r["envy"]) for r in rows
                    if r["method"] == method and float(r["utility"]) > 2.0]
            assert envy and float(hv_row[f"min_{method}"]) == min(envy)

    @pytest.mark.parametrize("name", ["pareto.csv", "hv_table.csv"])
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_keeps_earlier_report(self, solutions, tmp_path, cut_second_write,
                                               name, error):
        rep = tmp_path / "rep"
        paths = cmd_report(solutions, None, rep)
        before = [p.read_bytes() for p in paths]
        cut_second_write(feir.cli, name, error)
        with pytest.raises(error):
            cmd_report(solutions, None, rep)
        assert [p.read_bytes() for p in paths] == before
        assert sorted(p.name for p in rep.iterdir()) == ["hv_table.csv", "pareto.csv"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_into_a_fresh_directory_leaves_neither_file(
            self, solutions, tmp_path, cut_second_write, error):
        rep = tmp_path / "rep"
        cut_second_write(feir.cli, "hv_table.csv", error)
        with pytest.raises(error):
            cmd_report(solutions, None, rep)
        assert not rep.exists()
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("report_cfg, message", [
        ({"axes": [{"x": "inferiority_nrom", "y": "utility_norm"}]},
         "report axis x must be one of {columns}, got 'inferiority_nrom'"),
        # a SolutionPoint field that solutions.csv does not store
        ({"axes": [{"x": "overall_fairness", "y": "utility_norm"}]},
         "report axis x must be one of {columns}, got 'overall_fairness'"),
        ({"axes": [{"x": "mean_gap", "y": "utility"}, {"x": "envy"}]},
         "report axis y must be one of {columns}, got None"),
        ({"axes": [{"x": "envy", "y": "utility", "thresold": 0.9}]},
         "unknown report axis config keys ['thresold']; "
         "valid keys are ['x', 'y', 'ref', 'threshold']"),
        ({"axis": []}, "unknown report config keys ['axis']; valid keys are ['axes']"),
        ({"axes": [{"x": "envy", "y": "utility", "ref": [1.0]}]},
         "report axis envy_vs_utility: ref must be two finite numbers, got [1.0]"),
        ({"axes": [{"x": "envy", "y": "utility", "ref": [1.0, True]}]},
         "report axis envy_vs_utility: ref must be two finite numbers, got [1.0, True]"),
        ({"axes": [{"x": "envy", "y": "utility", "ref": [1.0, float("inf")]}]},
         "report axis envy_vs_utility: ref must be two finite numbers, got [1.0, inf]"),
        ({"axes": [{"x": "envy", "y": "utility", "ref": "1.0,0.9"}]},
         "report axis envy_vs_utility: ref must be two finite numbers, got '1.0,0.9'"),
        ({"axes": [{"x": "envy", "y": "utility", "threshold": "0.9"}]},
         "report axis envy_vs_utility: threshold must be a number, got '0.9'"),
        ({"axes": [{"x": "envy", "y": "utility", "threshold": False}]},
         "report axis envy_vs_utility: threshold must be a number, got False"),
        ({"axes": [{"x": "envy", "y": "utility", "ref": [1.0, 10**400]}]},
         "report axis envy_vs_utility: ref must be two finite numbers, got [1.0, 1" + "0" * 400
         + "]"),
        # a threshold is a number, so finite
        ({"axes": [{"x": "envy", "y": "utility", "threshold": float("nan")}]},
         "report axis envy_vs_utility: threshold must be finite, got nan"),
        ({"axes": [{"x": "envy", "y": "utility", "threshold": float("-inf")}]},
         "report axis envy_vs_utility: threshold must be finite, got -inf"),
        ({"axes": [{"x": "envy", "y": "utility", "threshold": 10**400}]},
         "report axis envy_vs_utility: threshold must be finite, got 1" + "0" * 400),
    ], ids=["misspelled", "not_stored", "missing_y", "axis_key", "report_key", "ref_one_number",
            "ref_bool", "ref_infinite", "ref_string", "threshold_string", "threshold_bool",
            "ref_overflow", "threshold_nan", "threshold_infinite", "threshold_overflow"])
    def test_bad_axis_config_rejected_before_writing(self, solutions, tmp_path, report_cfg,
                                                     message):
        with pytest.raises(ValueError) as err:
            cmd_report(solutions, report_cfg, tmp_path / "rep")
        assert str(err.value) == message.format(columns=feir.cli.METRIC_COLUMNS)
        assert not (tmp_path / "rep").exists()

    def test_undefined_cells_marked(self, tmp_path, intro_dataset):
        # naive-only run: overall_norm is undefined when naive fairness is 0
        config = {
            "seed": 8,
            "dataset": {"u_path": str(intro_dataset)},
            "ks": [1],
            "methods": {"naive": {}},
        }
        solutions = cmd_run(config, tmp_path / "out")
        _, hv_path = cmd_report(solutions, None, tmp_path / "rep")
        rows = read_rows(hv_path)
        overall = [r for r in rows if r["axis"].startswith("overall_norm")]
        assert overall and overall[0]["hv_naive"] == UNDEFINED_CELL

    def test_axis_without_ref_or_threshold_is_undefined(self, solutions, tmp_path):
        axis = {"x": "envy", "y": "utility"}
        pareto_path, hv_path = cmd_report(solutions, {"axes": [axis]}, tmp_path / "rep")
        assert read_rows(pareto_path)  # the fronts are still written
        rows = read_rows(hv_path)
        assert [r["k"] for r in rows] == ["2", "3"]
        for row in rows:
            assert set(row) == {"k", "axis", "hv_ca", "min_ca", "hv_feir", "min_feir",
                                "hv_naive", "min_naive"}
            assert all(row[c] == UNDEFINED_CELL for c in row if c not in ("k", "axis"))

    def test_method_with_only_error_rows_at_one_k(self, tmp_path):
        # m*k = 12 > n = 10 at k = 3, so exclusive RR fails there only
        config = {
            "seed": 2,
            "dataset": {"family": "random", "m": 4, "n": 10},
            "ks": [2, 3],
            "methods": {"naive": {}, "rr": {}},
        }
        solutions = cmd_run(config, tmp_path / "out")
        assert [r["status"].startswith("error") for r in read_rows(solutions)] == [
            False, False, False, True]
        axis = {"x": "envy", "y": "utility", "ref": [10.0, 0.0], "threshold": 0.0}
        pareto_path, hv_path = cmd_report(solutions, {"axes": [axis]}, tmp_path / "rep")
        at_2, at_3 = read_rows(hv_path)
        assert (at_2["k"], at_3["k"]) == ("2", "3")
        assert all(float(at_2[c]) >= 0.0 for c in ("hv_rr", "min_rr", "hv_naive", "min_naive"))
        assert (at_3["hv_rr"], at_3["min_rr"]) == (UNDEFINED_CELL, UNDEFINED_CELL)
        assert all(float(at_3[c]) >= 0.0 for c in ("hv_naive", "min_naive"))
        fronts = {(r["k"], r["method"]) for r in read_rows(pareto_path)}
        assert fronts == {("2", "naive"), ("2", "rr"), ("3", "naive")}

    def test_header_only_solutions_give_header_only_report(self, tmp_path):
        solutions = tmp_path / "solutions.csv"
        solutions.write_text(",".join(SOLUTION_COLUMNS) + "\r\n", newline="")
        pareto_path, hv_path = cmd_report(solutions, None, tmp_path / "rep")
        assert pareto_path.read_bytes() == b"k,x_metric,y_metric,method,x,y,params,seed\r\n"
        assert hv_path.read_bytes() == b"k,axis\n"

    def test_schema_validation(self, tmp_path):
        bad = tmp_path / "solutions.csv"
        bad.write_text("method,k\nnaive,1\n")
        with pytest.raises(ValueError, match="lacks columns"):
            cmd_report(bad, None, tmp_path / "rep")

    def test_foreign_header_only_file_rejected_before_writing(self, tmp_path):
        foreign = tmp_path / "solutions.csv"
        foreign.write_text("method,k,foo\r\n", newline="")
        with pytest.raises(ValueError) as err:
            cmd_report(foreign, None, tmp_path / "rep")
        missing = sorted(set(SOLUTION_COLUMNS) - {"method", "k"})
        assert str(err.value) == f"solutions file lacks columns: {missing}"
        assert not (tmp_path / "rep").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cmd_report(tmp_path / "ghost.csv", None, tmp_path)


RUN = {"dataset": {"family": "random", "m": 4, "n": 6}, "ks": [2], "methods": {"naive": {}}}


class TestConfigSections:
    @pytest.mark.parametrize("command, config, message", [
        ("run", ["naive"], "top-level config must be an object, got ['naive']"),
        ("run", {**RUN, "methods": ["naive"]}, "methods config must be an object, got ['naive']"),
        ("run", {**RUN, "methods": {"naive": {}, "rr": []}}, "rr config must be an object, got []"),
        ("run", {**RUN, "methods": {"naive": None}}, "naive config must be an object, got None"),
        ("run", {**RUN, "methods": {"feir": {"scaling": "none"}}},
         "feir scaling config must be an object, got 'none'"),
        ("run", {**RUN, "dataset": ["family"]}, "dataset config must be an object, got ['family']"),
        ("run", {**RUN, "dataset": "scores.csv"},
         "dataset config must be an object, got 'scores.csv'"),
        ("run", {"ks": [2], "methods": {"naive": {}}},
         "dataset needs 'u_path' (keys ['u_path', 's_path']) or 'family' (keys "
         "['family', 'm', 'n', 'seed', 'group_fraction', 'group_boost'])"),
        ("generate", {"dataset": ["family"]}, "dataset config must be an object, got ['family']"),
        ("generate", {"seed": 3}, "generate needs a dataset with a 'family' entry"),
        ("generate", {"sed": 9, "dataset": {"family": "user_groups", "m": 4, "n": 6}},
         "unknown top-level config keys ['sed']; valid keys are "
         "['seed', 'output_dir', 'dataset', 'ks', 'methods']"),
        ("report", ["axes"], "report config must be an object, got ['axes']"),
        ("report", {"axes": ["x"]}, "report axis config must be an object, got 'x'"),
        ("report", {"axes": {"x": "envy", "y": "utility"}},
         "report axes must be a list, got {'x': 'envy', 'y': 'utility'}"),
    ], ids=["top_level", "methods", "method", "method_null", "scaling", "dataset_list",
            "dataset_string", "dataset_missing", "generate_dataset", "generate_missing",
            "generate_top_level", "report", "axis", "axes"])
    def test_refused_before_anything_is_solved_or_written(self, tmp_path, monkeypatch,
                                                          command, config, message):
        solved = []
        monkeypatch.setattr(feir.cli, "fit", lambda *a: solved.append(a))
        monkeypatch.setattr(feir.baselines, "naive", lambda *a: solved.append(a))
        out = tmp_path / "out"
        run = {"run": lambda: cmd_run(config, out),
               "generate": lambda: cmd_generate(config, out),
               # the report's config is checked before its solutions file is read
               "report": lambda: cmd_report(tmp_path / "absent.csv", config, out)}[command]
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message
        assert solved == []
        assert not out.exists()


def test_check_fast_passes(capsys):
    assert cmd_check(fast=True) == 0
    assert "7/7 checks passed" in capsys.readouterr().out


class TestMain:
    def test_generate_and_run_and_report(self, tmp_path, capsys):
        config = {
            "seed": 9,
            "output_dir": str(tmp_path / "out"),
            "dataset": {"family": "random", "m": 5, "n": 7, "seed": 1},
            "ks": [2],
            "methods": {"naive": {}, "shuffle": {}},
        }
        cfg_path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["run", "--config", str(cfg_path)]) == 0
        solutions = tmp_path / "out" / "solutions.csv"
        assert solutions.exists()
        assert main(["report", "--solutions", str(solutions)]) == 0
        assert (tmp_path / "out" / "hv_table.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_config_that_is_not_an_object_refused(self, tmp_path, monkeypatch, command):
        # main sets the seed and reads output_dir before the command checks the config
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, [{"dataset": {"family": "random"}}])
        with pytest.raises(ValueError, match=r"^top-level config must be an object, got \[\{"):
            main([command, "--config", str(cfg_path), "--seed", "3"])
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_seed_override_changes_output(self, tmp_path):
        config = {
            "seed": 1,
            "dataset": {"family": "random", "m": 5, "n": 7, "seed": 1},
            "ks": [2],
            "methods": {"shuffle": {}},
        }
        cfg_path = write_config(tmp_path, config)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = read_rows(tmp_path / "a" / "solutions.csv")
        b = read_rows(tmp_path / "b" / "solutions.csv")
        assert a[0]["seed"] != b[0]["seed"]

    def test_default_axes_cover_tables(self):
        axes = [(a["x"], a["y"]) for a in DEFAULT_REPORT_AXES]
        assert ("overall_norm", "utility_norm") in axes
        assert ("mean_rank", "utility_norm") in axes

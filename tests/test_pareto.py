import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import feir.pareto
import oracles
from feir.core import DimensionError, ScorePair, top_k
from feir.datagen import GenSpec, generate
from feir.metrics import competition_metrics, gini_index, normalized_metrics, system_metrics
from feir.pareto import (
    METRIC_FIELDS,
    SolutionPoint,
    hypervolume_2d,
    make_solution,
    min_fairness_above_threshold,
    pareto_front,
)


def point(x, y, method="m", status="ok"):
    return SolutionPoint(
        method=method, params={}, k=1, seed=0,
        inferiority_norm=x, utility_norm=y, status=status,
    )


class TestParetoFront:
    def test_documented_example(self):
        pts = [point(0.2, 0.9), point(0.5, 0.95), point(0.6, 0.9)]
        front = pareto_front(pts, "inferiority_norm", "utility_norm")
        assert front.coords().tolist() == [[0.2, 0.9], [0.5, 0.95]]

    def test_single_point(self):
        front = pareto_front([point(0.3, 0.8)], "inferiority_norm", "utility_norm")
        assert len(front.points) == 1

    def test_identical_points_collapse(self):
        front = pareto_front([point(0.3, 0.8)] * 4, "inferiority_norm", "utility_norm")
        assert len(front.points) == 1

    def test_undefined_metrics_excluded(self):
        pts = [point(None, 0.9), point(0.4, 0.9)]
        front = pareto_front(pts, "inferiority_norm", "utility_norm")
        assert len(front.points) == 1
        with pytest.raises(ValueError):
            pareto_front([point(None, 0.9)], "inferiority_norm", "utility_norm")

    def test_error_status_excluded(self):
        pts = [point(0.1, 0.99, status="error: boom"), point(0.4, 0.9)]
        front = pareto_front(pts, "inferiority_norm", "utility_norm")
        assert front.coords().tolist() == [[0.4, 0.9]]

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pareto_front([point(0.1, 0.9)], "nonexistent", "utility_norm")

    @given(st.integers(0, 10**6), st.integers(1, 30))
    def test_idempotent_and_mutually_non_dominated(self, seed, count):
        rng = np.random.default_rng(seed)
        pts = [point(float(x), float(y)) for x, y in rng.uniform(0, 1, (count, 2))]
        front = pareto_front(pts, "inferiority_norm", "utility_norm")
        again = pareto_front(list(front.points), "inferiority_norm", "utility_norm")
        assert front.coords().tolist() == again.coords().tolist()
        coords = front.coords()
        xs, ys = coords[:, 0], coords[:, 1]
        assert (np.diff(xs) > 0).all()  # sorted, duplicates collapsed
        assert (np.diff(ys) > 0).all()  # along the front, more unfairness buys utility


class TestHypervolume:
    def test_single_rectangle(self):
        assert hypervolume_2d([(0.5, 0.97)], (1.0, 0.95)) == pytest.approx(0.01, abs=1e-15)

    def test_no_qualifying_points(self):
        assert hypervolume_2d([(1.2, 0.99), (0.5, 0.90)], (1.0, 0.95)) == 0.0

    def test_two_point_sweep(self):
        hv = hypervolume_2d([(0.2, 0.97), (0.5, 0.99)], (1.0, 0.95))
        assert hv == pytest.approx(0.026, abs=1e-12)

    def test_front2d_input(self):
        front = pareto_front(
            [point(0.2, 0.97), point(0.5, 0.99)], "inferiority_norm", "utility_norm"
        )
        assert hypervolume_2d(front, (1.0, 0.95)) == pytest.approx(0.026, abs=1e-12)

    @given(st.integers(0, 10**6))
    def test_monotone_under_point_addition(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (8, 2)).tolist()
        ref = (1.0, 0.0)
        base = hypervolume_2d(pts[:-1], ref)
        assert hypervolume_2d(pts, ref) >= base - 1e-15

    def test_dominated_point_changes_nothing(self):
        ref = (1.0, 0.95)
        base = hypervolume_2d([(0.2, 0.99)], ref)
        with_dominated = hypervolume_2d([(0.2, 0.99), (0.3, 0.97)], ref)
        assert with_dominated == pytest.approx(base, abs=1e-15)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            pts = rng.uniform(0, 1, (6, 2))
            ref = (1.0, 0.0)
            hv = hypervolume_2d(pts, ref)
            hv_mc = oracles.hypervolume_mc(pts, ref, samples=400_000, seed=trial)
            assert abs(hv - hv_mc) < 2e-3


class TestMinFairnessAboveThreshold:
    def test_documented_example(self):
        pts = [
            SolutionPoint(method="m", params={}, k=1, seed=0,
                          overall_norm=0.14, utility_norm=0.96),
            SolutionPoint(method="m", params={}, k=1, seed=0,
                          overall_norm=0.10, utility_norm=0.90),
        ]
        assert min_fairness_above_threshold(pts, "overall_norm", 0.95) == 0.14

    def test_no_qualifying_point(self):
        pts = [point(0.1, 0.5)]
        assert min_fairness_above_threshold(pts, "inferiority_norm", 0.95) is None

    def test_zero_threshold_gives_global_min(self):
        pts = [point(0.3, 0.7), point(0.2, 0.6), point(0.5, 0.9)]
        assert min_fairness_above_threshold(pts, "inferiority_norm", 0.0) == 0.2

    def test_non_increasing_as_threshold_drops(self):
        rng = np.random.default_rng(1)
        pts = [point(float(x), float(y)) for x, y in rng.uniform(0, 1, (20, 2))]
        values = []
        for t in (0.9, 0.6, 0.3, 0.0):
            v = min_fairness_above_threshold(pts, "inferiority_norm", t)
            values.append(np.inf if v is None else v)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            min_fairness_above_threshold([point(0.1, 0.9)], "wat", 0.5)

    def test_reads_the_given_utility_metric(self):
        pts = [
            SolutionPoint(method="m", params={}, k=1, seed=0,
                          envy=0.3, utility=3.7, utility_norm=0.9),
            SolutionPoint(method="m", params={}, k=1, seed=0,
                          envy=0.1, utility=1.5, utility_norm=1.0),
        ]
        assert min_fairness_above_threshold(pts, "envy", 2.0, "utility") == 0.3
        assert min_fairness_above_threshold(pts, "envy", 0.95) == 0.1


class TestSolutionConstruction:
    def test_metric_fields_pinned(self):
        assert METRIC_FIELDS == (
            "utility", "utility_norm", "envy", "inferiority", "inferiority_norm",
            "overall_fairness", "overall_norm", "mean_rank", "mean_gap", "gini",
        )

    def test_make_solution_matches_direct_metrics(self):
        rng = np.random.default_rng(3)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (4, 7)))
        counts = top_k(pair.U, 2)
        naive_sys = system_metrics(pair.U, pair.S, counts)
        p = make_solution("naive", {}, 2, 0, pair, counts, naive_sys)
        assert p.utility == pytest.approx(naive_sys.utility, abs=1e-12)
        assert p.utility_norm == pytest.approx(1.0, abs=1e-12)
        assert p.envy == 0.0
        assert p.status == "ok"

    @pytest.mark.parametrize("seed", range(8))
    def test_fused_evaluation_matches_separate_calls(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = 7, 9, 3
        # one decimal makes tied suitabilities, and rivals among them, common
        S = np.round(rng.uniform(0.05, 0.95, (m, n)), 1)
        pair = ScorePair(rng.uniform(0.01, 0.99, (m, n)), S)
        naive_sys = system_metrics(pair.U, pair.S, top_k(pair.U, k))
        counts = top_k(rng.uniform(size=(m, n)), k)
        sys = system_metrics(pair.U, pair.S, counts)
        norm = normalized_metrics(sys, naive_sys)
        comp = competition_metrics(pair.S, counts, k)
        separate = {**vars(sys), **vars(norm), "mean_rank": comp.mean_rank,
                    "mean_gap": comp.mean_gap, "gini": gini_index(counts)}
        p = make_solution("x", {}, k, 0, pair, counts, naive_sys)
        assert [p.metric(f) for f in METRIC_FIELDS] == [separate[f] for f in METRIC_FIELDS]

    def test_make_solution_calls_each_metric_seam_once(self, monkeypatch, order_builds):
        calls = []
        for name in ("system_metrics", "competition_metrics"):
            def seam(*args, _name=name, _f=getattr(feir.pareto, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(feir.pareto, name, seam)
        rng = np.random.default_rng(5)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (5, 6)))
        counts = top_k(pair.U, 2)
        make_solution("naive", {}, 2, 0, pair, counts, system_metrics(pair.U, pair.S, counts))
        assert sorted(calls) == ["competition_metrics", "system_metrics"]
        # one pick layout sorted for the naive system_metrics call above, and
        # one for make_solution, whose two seams share it
        assert len(order_builds) == 2

    @pytest.mark.parametrize("shape", [(4, 5), (3, 6), (5, 6), (4, 7)])
    def test_mismatched_counts_rejected(self, shape):
        pair = ScorePair.single(np.random.default_rng(0).uniform(0.01, 0.99, (4, 6)))
        naive_sys = system_metrics(pair.U, pair.S, top_k(pair.U, 2))
        counts = top_k(np.random.default_rng(1).uniform(size=shape), 2)
        with pytest.raises(DimensionError):
            make_solution("x", {}, 2, 0, pair, counts, naive_sys)

    def test_k_that_disagrees_with_the_lists_rejected(self):
        pair = generate(GenSpec("user_groups", 20, 100, seed=7))
        naive_sys = system_metrics(pair.U, pair.S, top_k(pair.U, 10))
        counts = top_k(pair.U, 10)
        assert make_solution("naive", {}, 10, 0, pair, counts, naive_sys).mean_rank > 0
        with pytest.raises(ValueError, match=r"k=5, but the lists hold 10 to 10 items"):
            make_solution("naive", {}, 5, 0, pair, counts, naive_sys)
        # a shape mismatch is reported first
        with pytest.raises(DimensionError):
            make_solution("naive", {}, 5, 0, pair, top_k(pair.U[:, :50], 10), naive_sys)

    def test_failed_solution_has_no_metrics(self):
        p = SolutionPoint("feir", {"w1": 1.0}, 5, 0, status="error: nope")
        assert p.utility is None and p.status == "error: nope"

    def test_params_json_stable(self):
        p = SolutionPoint("feir", {"w2": 1.0, "w1": 2.0}, 5, 0, status="x")
        assert p.params_json() == '{"w1":2.0,"w2":1.0}'

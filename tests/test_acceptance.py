"""Acceptance suite: one test per criterion, each ending in a printed
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Heavy artifacts (structured instances, full weight sweeps, transport solves)
are built once in module-scoped fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

import oracles
from feir.baselines import CAConfig, RRConfig, congestion_alleviation, naive, round_robin
from feir.core import ScorePair, row_softmax, top_k
from feir.datagen import GenSpec, boosted_rows, generate
from feir.losses import (
    LossWeights,
    expected_pair_inferiority,
    expected_user_utility,
    finite_diff_grad,
    mc_estimate,
    pair_envy_matrix,
)
from feir.metrics import (
    competition_metrics,
    gini_index,
    inferiority_by_user,
    system_metrics,
)
from feir.optim import Scaling, TrainConfig, default_weight_grid, fit, loss_and_grad
from feir.pareto import hypervolume_2d, make_solution, pareto_front

CA_EPSILONS = (0.0003, 0.001, 0.003, 0.01, 0.03, 0.1)


def announce(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {number} {status}: {message}")
    assert ok, f"criterion {number}: {message}"


def _sweep_bundle(family):
    spec = GenSpec(family=family, seed=7)
    pair = generate(spec)
    k = 10
    start = time.perf_counter()
    naive_counts = naive(pair, k)
    naive_sys = system_metrics(pair.U, pair.S, naive_counts)
    naive_gini = gini_index(naive_counts)
    naive_by_user = inferiority_by_user(pair.S, naive_counts)

    entries = []
    for weights in default_weight_grid():
        config = TrainConfig(k=k, weights=weights, learning_rate=10.0,
                             max_steps=2000, convergence_tol=1e-6, seed=0)
        trace = fit(pair, config)
        counts = top_k(trace.final_policy.P, k)
        params = {"w1": weights.w1, "w2": weights.w2, "w3": weights.w3, "w4": weights.w4}
        point = make_solution("feir", params, k, 0, pair, counts, naive_sys)
        entries.append({
            "weights": weights,
            "point": point,
            "by_user": inferiority_by_user(pair.S, counts),
        })

    ca_points = []
    ca_infos = []
    for eps in CA_EPSILONS:
        policy, info = congestion_alleviation(pair, k, CAConfig(epsilon=eps), return_info=True)
        counts = top_k(policy.P, k)
        ca_points.append(make_solution("ca", {"epsilon": eps}, k, 0, pair, counts, naive_sys))
        ca_infos.append((policy, info))
    elapsed = time.perf_counter() - start
    return {
        "spec": spec, "pair": pair, "k": k,
        "naive_sys": naive_sys, "naive_gini": naive_gini, "naive_by_user": naive_by_user,
        "entries": entries, "ca_points": ca_points, "ca_infos": ca_infos,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def ug_bundle():
    return _sweep_bundle("user_groups")


@pytest.fixture(scope="module")
def ig_bundle():
    return _sweep_bundle("item_groups")


def test_criterion_01_closed_forms_match_monte_carlo():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_z = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        U = rng.uniform(0.05, 0.95, (m, n))
        S = rng.uniform(0.05, 0.95, (m, n))
        P = rng.uniform(0.05, 1.0, (m, n))
        P /= P.sum(axis=1, keepdims=True)
        est = mc_estimate(U, S, P, k, samples=100_000, seed=int(rng.integers(2**31)))
        envy = pair_envy_matrix(U, P, k)
        for i in range(m):
            closed = expected_user_utility(i, U, P, k)
            gap = abs(est.utility_mean[i] - closed)
            assert gap <= 3 * est.utility_se[i] + 1e-9
            worst_z = max(worst_z, gap / max(est.utility_se[i], 1e-12))
            for t in range(m):
                if t == i:
                    continue
                gap = abs(est.envy_mean[i, t] - envy[i, t])
                assert gap <= 3 * est.envy_se[i, t] + 1e-9
                worst_z = max(worst_z, gap / max(est.envy_se[i, t], 1e-12))
                closed = expected_pair_inferiority(i, t, S, P, k)
                gap = abs(est.inferiority_mean[i, t] - closed)
                assert gap <= 3 * est.inferiority_se[i, t] + 1e-9
                worst_z = max(worst_z, gap / max(est.inferiority_se[i, t], 1e-12))
    elapsed = time.perf_counter() - start
    announce(
        1, elapsed < 60.0,
        f"closed-form utility/envy/inferiority within 3 SE on 20 instances "
        f"(worst z={worst_z:.2f}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    k = 2
    max_rel = 0.0
    for parametrization in ("logits", "direct"):
        checked = 0
        while checked < 10:
            U = rng.uniform(0.05, 0.95, (4, 6))
            S = rng.uniform(0.05, 0.95, (4, 6))
            if parametrization == "logits":
                params = rng.normal(0.0, 1.0, (4, 6))
                weights = LossWeights(1.0, 1.0, 1.0, 0.0)
            else:
                params = rng.uniform(0.05, 1.0, (4, 6))
                params /= params.sum(axis=1, keepdims=True)
                weights = LossWeights(1.0, 1.0, 1.0, 0.5)
            P = row_softmax(params) if parametrization == "logits" else params
            E = pair_envy_matrix(U, P, k)
            off = ~np.eye(4, dtype=bool)
            if np.abs(E[off]).min() <= 1e-3:
                continue  # stay away from the envy hinge kink

            def loss_fn(x, _p=parametrization):
                Px = row_softmax(x) if _p == "logits" else x
                return loss_and_grad(U, S, Px, k, weights, "direct")[0].total

            analytic = loss_and_grad(U, S, params, k, weights, parametrization)[1]
            numeric = finite_diff_grad(loss_fn, params, 1e-5)
            scale = max(np.abs(numeric).max(), 1e-12)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3 * scale)
            max_rel = max(max_rel, float(rel.max()))
            checked += 1
    elapsed = time.perf_counter() - start
    announce(
        2, max_rel < 1e-5 and elapsed < 10.0,
        f"analytic gradient vs central differences on 10 instances x 2 "
        f"parametrizations: max rel err {max_rel:.2e} < 1e-5 ({elapsed:.1f}s < 10s)",
    )


def test_criterion_03_toy_example_oracle():
    U = np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]])
    S = np.array([[0.3, 0.9, 0.4], [0.3, 0.8, 0.8]])
    tol = 1e-12

    both_triangle = np.array([[0, 0, 1], [0, 0, 1]])
    sys = system_metrics(U, S, both_triangle)
    assert sys.envy == 0.0
    assert np.abs(inferiority_by_user(S, both_triangle) - [0.4, 0.0]).max() <= tol

    split = np.array([[1, 0, 0], [0, 1, 0]])
    assert abs(pair_envy_matrix(U, split, 1)[0, 1] - 0.4) <= tol
    assert system_metrics(U, S, split).inferiority == 0.0

    both_circle = np.array([[1, 0, 0], [1, 0, 0]])
    sys = system_metrics(U, S, both_circle)
    assert sys.envy == 0.0 and sys.inferiority == 0.0

    toy = np.array([[0.1, 0.9, 0.8], [0.4, 0.6, 0.5]])
    both_square = np.array([[0, 1, 0], [0, 1, 0]])
    assert np.abs(inferiority_by_user(toy, both_square) - [0.0, 0.3]).max() <= tol

    announce(3, True, "introductory matrices reproduce exactly (envy 0 / 0.4, "
                      "inferiority 0.4 / 0 / 0 / 0.3) at 1e-12")


def test_criterion_04_naive_envy_freeness():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, min(n, 20) + 1))
        U = rng.uniform(0.01, 0.99, (m, n))
        sys = system_metrics(U, U, top_k(U, k))
        assert sys.envy == 0.0
    announce(4, True, "naive top-k has system envy exactly 0 on 50 random instances "
                      "(up to 50x100, k up to 20)")


def test_criterion_05_ug_both_groups_improve(ug_bundle):
    groups = boosted_rows(ug_bundle["spec"])
    m = ug_bundle["spec"].m
    rest = np.setdiff1d(np.arange(m), groups)
    naive_adv = ug_bundle["naive_by_user"][groups].mean()
    naive_dis = ug_bundle["naive_by_user"][rest].mean()
    qualifying = []
    for entry in ug_bundle["entries"]:
        point = entry["point"]
        if point.status != "ok" or point.utility_norm is None or point.utility_norm < 0.8:
            continue
        adv = entry["by_user"][groups].mean()
        dis = entry["by_user"][rest].mean()
        if adv < naive_adv and dis < naive_dis:
            qualifying.append((entry["weights"], adv, dis, point.utility_norm))
    ok = bool(qualifying) and ug_bundle["elapsed"] < 300.0
    detail = ""
    if qualifying:
        w, adv, dis, un = qualifying[0]
        detail = (f"e.g. (w1={w.w1}, w2={w.w2}): advantaged {naive_adv:.3f}->{adv:.3f}, "
                  f"disadvantaged {naive_dis:.3f}->{dis:.3f}, utility_norm {un:.3f}; ")
    announce(
        5, ok,
        f"{len(qualifying)} sweep solutions cut inferiority for BOTH user groups at "
        f"utility_norm >= 0.8; {detail}sweep took {ug_bundle['elapsed']:.0f}s < 300s",
    )


def test_criterion_06_feir_dominates_ca_hypervolume(ug_bundle, ig_bundle):
    results = {}
    for name, bundle in (("IG", ig_bundle), ("UG", ug_bundle)):
        feir_points = [e["point"] for e in bundle["entries"]]
        hv_feir = hypervolume_2d(
            pareto_front(feir_points, "inferiority_norm", "utility_norm"), (1.0, 0.95)
        )
        try:
            hv_ca = hypervolume_2d(
                pareto_front(bundle["ca_points"], "inferiority_norm", "utility_norm"),
                (1.0, 0.95),
            )
        except ValueError:
            hv_ca = 0.0
        results[name] = (hv_feir, hv_ca)
    elapsed = ug_bundle["elapsed"] + ig_bundle["elapsed"]
    ok = all(f >= c for f, c in results.values()) and elapsed < 600.0
    announce(
        6, ok,
        "HV(inferiority vs utility, ref [1, 0.95]) " +
        ", ".join(f"{n}: FEIR {f:.4f} >= CA {c:.4f}" for n, (f, c) in results.items()) +
        f" ({elapsed:.0f}s < 600s)",
    )


def test_criterion_07_ca_constraints(ug_bundle, ig_bundle):
    solves = list(ug_bundle["ca_infos"]) + list(ig_bundle["ca_infos"])
    rng = np.random.default_rng(23)
    for m, n in ((8, 5), (6, 14)):
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (m, n)))
        for eps in (0.001, 0.02):
            solves.append(
                congestion_alleviation(pair, 2, CAConfig(epsilon=eps), return_info=True)
            )
    worst_row = worst_col = 0.0
    for policy, info in solves:
        m, n = policy.P.shape
        worst_row = max(worst_row, float(np.abs(policy.P.sum(axis=1) - 1.0).max()))
        worst_col = max(worst_col, float(np.abs(policy.P.sum(axis=0) - m / n).max()))
        scale = max(1.0, float(np.abs(info.dual_history).max()))
        assert (np.diff(info.dual_history) >= -1e-9 * scale).all(), "dual must ascend"
    ok = worst_row < 1e-6 and worst_col < 1e-6
    announce(
        7, ok,
        f"all {len(solves)} converged transport solutions: row sums within "
        f"{worst_row:.1e}, column sums within {worst_col:.1e} of m/n (< 1e-6); "
        "Sinkhorn objective non-decreasing every sweep",
    )


def test_criterion_08_round_robin_zero_inferiority():
    rng = np.random.default_rng(29)
    checked = 0
    for (m, n, k) in ((10, 60, 5), (50, 50, 1), (7, 30, 4)):
        U = rng.uniform(0.01, 0.99, (m, n))
        S = rng.uniform(0.01, 0.99, (m, n))
        counts = round_robin(U, S, k, RRConfig(tau=0.3, seed=checked, exclusive=True))
        sys = system_metrics(U, S, counts)
        comp = competition_metrics(S, counts, k)
        assert sys.inferiority == 0.0
        assert comp.mean_rank == 0.0 and comp.mean_gap == 0.0
        checked += 1
    announce(8, True, "exclusive round robin with m*k <= n: inferiority, mean rank, "
                      "and mean gap all exactly 0")


def test_criterion_09_gini_reduction(ug_bundle, ig_bundle):
    results = {}
    for name, bundle in (("IG", ig_bundle), ("UG", ug_bundle)):
        candidates = [
            e["point"] for e in bundle["entries"]
            if e["weights"].w2 > 0 and e["point"].status == "ok"
        ]
        best = max(candidates, key=lambda p: p.utility)
        results[name] = (bundle["naive_gini"], best.gini)
    ok = all(g < naive_g for naive_g, g in results.values())
    announce(
        9, ok,
        "best-utility sweep solution with w2 > 0 cuts item-exposure Gini: " +
        ", ".join(f"{n}: {g:.4f} < naive {ng:.4f}" for n, (ng, g) in results.items()),
    )


def test_criterion_10_scaling_equivalence():
    rng = np.random.default_rng(31)
    pair = ScorePair.single(rng.uniform(0.01, 0.99, (12, 9)))
    base = TrainConfig(k=3, weights=LossWeights(1.0, 1.0, 1.0, 0.0), learning_rate=5.0,
                       max_steps=250, convergence_tol=0.0, seed=41)
    reference = fit(pair, base)
    ref_losses = [b.as_dict() for b in reference.steps]
    from dataclasses import replace

    for scaling in (
        Scaling(kind="minibatch", b=12),
        Scaling(kind="user_sample", m_s=12),
        Scaling(kind="item_sample", n_s=9),
    ):
        trace = fit(pair, replace(base, scaling=scaling))
        assert [b.as_dict() for b in trace.steps] == ref_losses, scaling.kind
        np.testing.assert_array_equal(trace.final_policy.P, reference.final_policy.P)
    announce(10, True, "minibatch(b=m), user_sample(m_s=m), item_sample(n_s=n) traces "
                       "are step-for-step identical to scaling=none under a shared seed")


def test_criterion_11_hypervolume_oracle():
    rng = np.random.default_rng(37)
    worst = 0.0
    for trial in range(20):
        count = int(rng.integers(1, 11))
        pts = rng.uniform(0.0, 1.0, (count, 2))
        ref = (1.0, 0.0)
        hv = hypervolume_2d(pts, ref)
        hv_mc = oracles.hypervolume_mc(pts, ref, samples=1_000_000, seed=1000 + trial)
        worst = max(worst, abs(hv - hv_mc))
    announce(11, worst < 1e-3,
             f"sweep hypervolume matches Monte-Carlo area on 20 random fronts "
             f"(worst gap {worst:.2e} < 1e-3)")

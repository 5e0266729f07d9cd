import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from feir.baselines import (
    CAConfig,
    RRConfig,
    SinkhornError,
    congestion_alleviation,
    naive,
    round_robin,
    shuffle,
)
from feir.core import ScorePair, row_softmax, top_k
from feir.metrics import competition_metrics, system_metrics

INTRO_U = np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]])
INTRO_S = np.array([[0.3, 0.9, 0.4], [0.3, 0.8, 0.8]])


def identity_order_seed(m):
    """Smallest seed whose permutation of range(m) is the identity."""
    for seed in range(10_000):
        if np.array_equal(np.random.default_rng(seed).permutation(m), np.arange(m)):
            return seed
    raise AssertionError("no identity permutation seed found")


class TestNaive:
    def test_intro_matrix(self):
        pair = ScorePair(U=INTRO_U, S=INTRO_S)
        C = naive(pair, 1)
        assert C.C.tolist() == [[0, 0, 1], [0, 1, 0]]

    def test_k_equals_n(self):
        pair = ScorePair(U=INTRO_U, S=INTRO_S)
        assert naive(pair, 3).C.tolist() == [[1, 1, 1], [1, 1, 1]]

    def test_zero_envy(self):
        rng = np.random.default_rng(0)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (6, 10)))
        sys = system_metrics(pair.U, pair.S, naive(pair, 3))
        assert sys.envy == 0.0


class TestShuffle:
    def test_d_equal_k_is_naive(self):
        pair = ScorePair(U=INTRO_U, S=INTRO_S)
        np.testing.assert_array_equal(shuffle(pair, 1, d=1, seed=4).C, naive(pair, 1).C)

    def test_support_within_top_d(self):
        rng = np.random.default_rng(1)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (5, 12)))
        pool = top_k(pair.U, 6).C
        for seed in range(5):
            C = shuffle(pair, 2, d=6, seed=seed)
            assert ((pool - C.C) >= 0).all()

    def test_d_below_k_rejected(self):
        pair = ScorePair(U=INTRO_U, S=INTRO_S)
        with pytest.raises(ValueError):
            shuffle(pair, 2, d=1)

    def test_full_pool_is_uniform(self):
        # d = n, k = 1: item marginals should be uniform across seeds
        rng = np.random.default_rng(2)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (1, 6)))
        reps = 6000
        counts = np.zeros(6)
        for seed in range(reps):
            counts += shuffle(pair, 1, d=6, seed=seed).C[0]
        freq = counts / reps
        se = np.sqrt((1 / 6) * (5 / 6) / reps)
        assert np.abs(freq - 1 / 6).max() < 4 * se


class TestCongestionAlleviation:
    def test_constant_scores_give_uniform_plan(self):
        pair = ScorePair.single(np.full((4, 8), 0.5))
        policy = congestion_alleviation(pair, 2, CAConfig(epsilon=0.01))
        np.testing.assert_allclose(policy.P, 1 / 8, atol=1e-9)

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(3)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (6, 9)))
        for eps in (0.001, 0.01, 0.1):
            policy, info = congestion_alleviation(
                pair, 2, CAConfig(epsilon=eps), return_info=True
            )
            assert np.abs(policy.P.sum(axis=1) - 1.0).max() < 1e-6
            assert np.abs(policy.P.sum(axis=0) - 6 / 9).max() < 1e-6

    def test_large_epsilon_approaches_uniform(self):
        rng = np.random.default_rng(4)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (5, 10)))
        eps = 100.0 * row_softmax(pair.U).max()
        policy = congestion_alleviation(pair, 2, CAConfig(epsilon=eps))
        assert np.abs(policy.P - 0.1).max() < 1e-3

    def test_dual_objective_non_decreasing(self):
        rng = np.random.default_rng(5)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (7, 11)))
        _, info = congestion_alleviation(pair, 3, CAConfig(epsilon=0.002), return_info=True)
        diffs = np.diff(info.dual_history)
        assert (diffs >= -1e-9 * max(1.0, np.abs(info.dual_history).max())).all()
        assert np.isfinite(info.objective)

    def test_non_convergence_carries_residual(self):
        rng = np.random.default_rng(6)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (8, 5)))
        with pytest.raises(SinkhornError) as exc:
            congestion_alleviation(pair, 2, CAConfig(epsilon=0.0001, max_iters=1))
        assert exc.value.residual > 0

    @pytest.mark.parametrize("m, n, eps", [
        (2, 3, 0.01), (6, 9, 0.001), (7, 11, 0.002), (12, 8, 0.03), (30, 80, 0.1),
    ])
    def test_matches_the_reference_loop_bit_for_bit(self, m, n, eps):
        # the diagnostics are computed only with return_info, and neither the
        # policy nor any diagnostic depends on whether they are
        U = np.random.default_rng(m * n).uniform(0.01, 0.99, (m, n))
        Q, sweeps, row_res, col_res, duals, objective = oracles.sinkhorn_every_sweep(U, eps, 20000, 1e-9)
        pair = ScorePair.single(U)
        policy, info = congestion_alleviation(pair, 2, CAConfig(epsilon=eps), return_info=True)
        plain = congestion_alleviation(pair, 2, CAConfig(epsilon=eps))
        assert policy.P.tobytes() == plain.P.tobytes() == Q.tobytes()
        assert (info.sweeps, info.row_residual, info.col_residual) == (sweeps, row_res, col_res)
        assert info.dual_history.tolist() == duals
        assert info.objective == objective

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_non_convergence_matches_the_reference_loop(self, max_iters):
        U = np.random.default_rng(6).uniform(0.01, 0.99, (8, 5))
        _, _, row_res, col_res, _, _ = oracles.sinkhorn_every_sweep(U, 0.0001, max_iters, 1e-9)
        config = CAConfig(epsilon=0.0001, max_iters=max_iters)
        for return_info in (False, True):
            with pytest.raises(SinkhornError) as exc:
                congestion_alleviation(ScorePair.single(U), 2, config, return_info=return_info)
            assert exc.value.residual == max(row_res, col_res)
            assert f"(row L1 {row_res:.3e}, col L1 {col_res:.3e})" in str(exc.value)

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_outside_range_raises_before_first_sweep(self, k):
        # one sweep cannot converge here: a late k check would raise SinkhornError
        rng = np.random.default_rng(6)
        pair = ScorePair.single(rng.uniform(0.01, 0.99, (8, 5)))
        with pytest.raises(ValueError, match=rf"k={k} outside \[1, 5\]"):
            congestion_alleviation(pair, k, CAConfig(epsilon=0.0001, max_iters=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CAConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            CAConfig(epsilon=0.1, marginal_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            CAConfig(epsilon=0.1, max_iters=0)
        for bad in ("0.1", True, None):
            with pytest.raises(ValueError, match="epsilon must be a positive number"):
                CAConfig(epsilon=bad)
            with pytest.raises(ValueError, match="marginal_tol must be a positive number"):
                CAConfig(epsilon=0.1, marginal_tol=bad)
        for bad in (float("inf"), np.inf, 10**400):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                CAConfig(epsilon=bad)
            with pytest.raises(ValueError, match="marginal_tol must be finite"):
                CAConfig(epsilon=0.1, marginal_tol=bad)

    def test_epsilon_is_held_as_a_float(self):
        assert type(CAConfig(epsilon=1).epsilon) is float
        assert CAConfig(epsilon=1) == CAConfig(epsilon=1.0)
        assert type(CAConfig(epsilon=np.float32(0.5)).epsilon) is float


class TestRoundRobin:
    def test_intro_example(self):
        seed = identity_order_seed(2)
        C = round_robin(INTRO_U, INTRO_S, 1, RRConfig(tau=0.0, seed=seed))
        # first user takes the highest-utility item, second takes the best remaining
        assert C.C.tolist() == [[0, 0, 1], [0, 1, 0]]
        assert system_metrics(INTRO_U, INTRO_S, C).inferiority == 0.0

    def test_exclusive_lists_are_disjoint(self):
        rng = np.random.default_rng(7)
        U = rng.uniform(0.01, 0.99, (5, 20))
        S = rng.uniform(0.01, 0.99, (5, 20))
        C = round_robin(U, S, 3, RRConfig(tau=0.4, seed=1))
        assert (C.C.sum(axis=0) <= 1).all()
        sys = system_metrics(U, S, C)
        comp = competition_metrics(S, C, 3)
        assert sys.inferiority == 0.0
        assert comp.mean_rank == 0.0 and comp.mean_gap == 0.0

    def test_infeasible_exclusive_allocation(self):
        rng = np.random.default_rng(8)
        U = rng.uniform(0.01, 0.99, (4, 6))
        with pytest.raises(ValueError, match="exclusive"):
            round_robin(U, U, 2, RRConfig(seed=0))

    def test_tau_fallback_ignores_threshold(self):
        rng = np.random.default_rng(9)
        U = rng.uniform(0.01, 0.99, (3, 9))
        S = np.clip(rng.uniform(0.01, 0.5, (3, 9)), 0.01, 0.5)  # all below tau
        C = round_robin(U, S, 2, RRConfig(tau=0.95, seed=2))
        assert (C.C.sum(axis=1) == 2).all()

    def test_non_exclusive_allows_sharing(self):
        # both users prefer the same item; without exclusivity they share it
        U = np.array([[0.9, 0.1], [0.8, 0.2]])
        S = np.array([[0.5, 0.5], [0.6, 0.5]])
        seed = identity_order_seed(2)
        C = round_robin(U, S, 1, RRConfig(tau=0.0, seed=seed, exclusive=False))
        assert C.C.tolist() == [[1, 0], [1, 0]]

    def test_threshold_steers_choice(self):
        # highest-utility item fails the suitability bar, second best passes
        U = np.array([[0.9, 0.8, 0.1], [0.2, 0.3, 0.4]])
        S = np.array([[0.1, 0.9, 0.9], [0.9, 0.9, 0.9]])
        seed = identity_order_seed(2)
        C = round_robin(U, S, 1, RRConfig(tau=0.5, seed=seed))
        assert C.C[0].tolist() == [0, 1, 0]

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12), exclusive=st.booleans(),
           data=st.data())
    def test_matches_preference_lists(self, seed, n, exclusive, data):
        # exclusive lists need m*k <= n; one-decimal scores tie often, and
        # tau 0.3 and 0.5 tie some suitabilities with the threshold
        m = data.draw(st.integers(1, n if exclusive else 8), label="m")
        k = data.draw(st.integers(1, n // m if exclusive else n), label="k")
        tau = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.95]), label="tau")
        rng = np.random.default_rng(seed)
        U, S = np.round(rng.uniform(0.01, 0.99, (2, m, n)), 1)
        config = RRConfig(tau=tau, seed=seed % 7, exclusive=exclusive)
        np.testing.assert_array_equal(
            round_robin(U, S, k, config).C,
            oracles.round_robin_by_preference(U, S, k, tau, exclusive, config.seed))

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            RRConfig(tau=1.0)
        assert type(RRConfig(tau=0).tau) is float and RRConfig(tau=0) == RRConfig()

    @pytest.mark.parametrize("exclusive", ["false", "true", 0, 1, None])
    def test_exclusive_must_be_a_bool(self, exclusive):
        with pytest.raises(ValueError, match="exclusive must be true or false"):
            RRConfig(exclusive=exclusive)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, -1])
    def test_seed_must_be_an_integer(self, seed):
        # numpy's generators take no negative seed, so the setting refuses one
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            RRConfig(seed=seed)
        assert type(RRConfig(seed=np.int64(3)).seed) is int

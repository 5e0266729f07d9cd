"""Metamorphic checks of the index code: relations between two evaluations
that must hold at any size, with no oracle to compute the answer.

The lists come from `top_k` of continuous scores, which hold no ties, so
`top_k`'s lowest-index tie break never decides a list. S is rounded to one
decimal, so tied suitabilities, and tie runs in the sorted kernels, are
common. The exact relations (shifting S, doubling U) use a dyadic S instead,
whose shifts and differences are exact in float64.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feir.core import ScorePair, top_k
from feir.datagen import GenSpec, generate
from feir.losses import LossWeights
from feir.metrics import competition_metrics, normalized_metrics, system_metrics
from feir.optim import TrainConfig, fit, loss_and_grad


def instance(seed, m, n):
    """Continuous U and list scores W, and a one-decimal S."""
    rng = np.random.default_rng(seed)
    U, W = rng.uniform(0.01, 0.99, (2, m, n))
    return U, np.round(rng.uniform(0.0, 1.0, (m, n)), 1), W, rng


def dyadic_instance(seed, m, n):
    """Continuous U and list scores W, and an S of multiples of 2**-21 in
    [0, 1), about half of them drawn from four shared levels, so ties are
    common. S + SHIFT and every difference of S's entries are exact."""
    rng = np.random.default_rng(seed)
    U, W = rng.uniform(0.01, 0.99, (2, m, n))
    S = rng.integers(0, 2**21, (m, n))
    S = np.where(rng.random((m, n)) < 0.5, rng.choice(rng.integers(0, 2**21, 4), (m, n)), S)
    return U, S / 2.0**21, W, rng


SHIFT = 0.25


class TestPermutation:
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 10), st.data())
    def test_relabelling_users_and_items_moves_only_the_labels(self, seed, m, n, data):
        k = data.draw(st.integers(1, n))
        U, S, W, rng = instance(seed, m, n)
        users, items = rng.permutation(m), rng.permutation(n)
        C = top_k(W, k).C
        moved = np.ix_(users, items)
        C_moved = top_k(W[moved], k).C
        assert np.array_equal(C_moved, C[moved])

        before = system_metrics(U, S, C)
        after = system_metrics(U[moved], S[moved], C_moved)
        assert vars(after) == pytest.approx(vars(before), rel=1e-14, abs=0.0)

        comp, comp_moved = competition_metrics(S, C, k), competition_metrics(S[moved], C_moved, k)
        # rival counts are sums of ones, exact in any order
        assert comp_moved.mean_rank_per_user.tolist() == comp.mean_rank_per_user[users].tolist()
        np.testing.assert_allclose(comp_moved.mean_gap_per_user, comp.mean_gap_per_user[users],
                                   rtol=1e-14, atol=0.0)


class TestPermutingAFit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelling_users_and_items_relabels_every_step(self, seed):
        # a full view and every loss term, over 300 steps of descent; the
        # permuted sums run in other orders, so they agree to rounding only
        scores = generate(GenSpec("su_pair", 30, 80, seed=seed))
        rng = np.random.default_rng(seed)
        moved = np.ix_(rng.permutation(30), rng.permutation(80))
        config = TrainConfig(k=5, weights=LossWeights(1.0, 1.0, 1.0), max_steps=300,
                             convergence_tol=0.0)
        trace = fit(scores, config)
        trace_moved = fit(ScorePair(scores.U[moved], scores.S[moved]), config)
        assert trace_moved.step_count == trace.step_count == 300
        assert [step.total for step in trace_moved.steps] == pytest.approx(
            [step.total for step in trace.steps], rel=1e-14, abs=0.0)
        np.testing.assert_allclose(trace_moved.final_policy.P, trace.final_policy.P[moved],
                                   rtol=0.0, atol=1e-12)


class TestTrainingMatchesEvaluation:
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 10))
    def test_one_hot_policy_at_k1_scores_as_its_lists(self, seed, m, n):
        # two code paths: the training kernel on a dense P, and the metrics'
        # pick layout on the count matrix; they sum in different orders
        U, S, W, _ = instance(seed, m, n)
        C = top_k(W, 1).C
        losses, _ = loss_and_grad(U, S, C.astype(float), 1, LossWeights(1.0, 1.0, 1.0),
                                  "direct")
        sys = system_metrics(U, S, C)
        expected = pytest.approx((sys.utility, sys.envy, sys.inferiority), rel=1e-14, abs=0.0)
        assert (-losses.neg_utility_loss, losses.envy_loss, losses.inferiority_loss) == expected


class TestShiftingSuitability:
    """Inferiority, rank and gap see S only through differences of its
    entries, so adding a constant to S changes none of their bits."""

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 10), st.data())
    def test_metrics_are_bit_identical(self, seed, m, n, data):
        k = data.draw(st.integers(1, n))
        U, S, W, _ = dyadic_instance(seed, m, n)
        C = top_k(W, k).C
        assert (system_metrics(U, S + SHIFT, C).inferiority
                == system_metrics(U, S, C).inferiority)
        comp, shifted = competition_metrics(S, C, k), competition_metrics(S + SHIFT, C, k)
        assert shifted.mean_rank_per_user.tolist() == comp.mean_rank_per_user.tolist()
        assert shifted.mean_gap_per_user.tolist() == comp.mean_gap_per_user.tolist()

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 10), st.data())
    def test_training_inferiority_is_bit_identical(self, seed, m, n, data):
        k = data.draw(st.integers(1, n))
        U, S, _, rng = dyadic_instance(seed, m, n)
        P = rng.uniform(0.05, 1.0, (m, n))
        P /= P.sum(axis=1, keepdims=True)
        weights = LossWeights(0.0, 1.0, 0.0)
        losses, G = loss_and_grad(U, S, P, k, weights, "direct")
        shifted, G_shifted = loss_and_grad(U, S + SHIFT, P, k, weights, "direct")
        assert shifted.inferiority_loss == losses.inferiority_loss
        assert G_shifted.tobytes() == G.tobytes()


class TestScalingUtility:
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 10), st.data())
    def test_doubling_U_doubles_utility_and_envy_only(self, seed, m, n, data):
        # doubling is exact, so every sum of doubled terms is the doubled sum
        k = data.draw(st.integers(1, n))
        U, S, W, _ = dyadic_instance(seed, m, n)
        C = top_k(W, k).C
        before, after = system_metrics(U, S, C), system_metrics(2 * U, S, C)
        assert (after.utility, after.envy) == (2 * before.utility, 2 * before.envy)
        assert after.inferiority == before.inferiority
        # each against the naive lists of its own U
        norm = normalized_metrics(before, system_metrics(U, S, top_k(U, k)))
        norm_after = normalized_metrics(after, system_metrics(2 * U, S, top_k(2 * U, k)))
        assert (norm_after.utility_norm, norm_after.inferiority_norm) == (
            norm.utility_norm, norm.inferiority_norm)

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from feir.core import DimensionError, row_softmax
from feir.losses import (
    LossBreakdown,
    LossWeights,
    SuitabilityOrder,
    _inferiority_loss_grad,
    _penalty_loss_grad,
    expected_pair_inferiority,
    expected_user_utility,
    finite_diff_grad,
    hit_probability,
    mc_estimate,
    pair_envy_matrix,
)
from feir.optim import loss_and_grad

INTRO_U = np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]])
INTRO_S = np.array([[0.3, 0.9, 0.4], [0.3, 0.8, 0.8]])
SECOND_TOY = np.array([[0.1, 0.9, 0.8], [0.4, 0.6, 0.5]])


def random_policy(rng, m, n):
    P = rng.uniform(0.05, 1.0, size=(m, n))
    return P / P.sum(axis=1, keepdims=True)


def loss_terms(U, S, P, k):
    """(neg utility, envy, inferiority) at the probability matrix P."""
    bd, _ = loss_and_grad(U, S, P, k, LossWeights(1.0, 1.0, 1.0), "direct")
    return bd.neg_utility_loss, bd.envy_loss, bd.inferiority_loss


def rel_error(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-12)
    denom = np.maximum(np.abs(numeric), 1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max())


class TestWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-1.0, 0.0, 1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", ["1", True, None, float("nan")])
    def test_non_number_rejected(self, bad):
        for i, name in enumerate(("w1", "w2", "w3", "w4")):
            w = [1.0, 1.0, 1.0, 0.0]
            w[i] = bad
            with pytest.raises(ValueError, match=f"loss weight {name} must be a number >= 0"):
                LossWeights(*w)

    @pytest.mark.parametrize("bad", [float("inf"), np.inf, 10**400])
    def test_non_finite_rejected(self, bad):
        for i, name in enumerate(("w1", "w2", "w3", "w4")):
            w = [1.0, 1.0, 1.0, 0.0]
            w[i] = bad
            with pytest.raises(ValueError, match=f"loss weight {name} must be finite"):
                LossWeights(*w)

    def test_held_as_floats(self):
        w = LossWeights(1, np.int64(2), np.float32(0.5))
        assert [type(v) for v in vars(w).values()] == [float] * 4
        assert w == LossWeights(1.0, 2.0, 0.5, 0.0)


class TestExpectedValues:
    def test_utility_onehot(self):
        P = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert expected_user_utility(0, INTRO_U, P, 3) == pytest.approx(2.7, abs=1e-12)

    def test_utility_uniform_is_row_mean(self):
        P = np.full((2, 3), 1 / 3)
        assert expected_user_utility(0, INTRO_U, P, 1) == pytest.approx(INTRO_U[0].mean(), abs=1e-12)

    def test_utility_half_half(self):
        P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        assert expected_user_utility(0, INTRO_U, P, 2) == pytest.approx(0.8, abs=1e-12)

    def test_envy_equal_rows(self):
        P = np.full((2, 3), 1 / 3)
        assert pair_envy_matrix(INTRO_U, P, 2)[0, 1] == 0.0

    def test_envy_degenerate_matches_deterministic(self):
        P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert pair_envy_matrix(INTRO_U, P, 1)[0, 1] == pytest.approx(0.4, abs=1e-12)

    def test_inferiority_onehot_same_item(self):
        P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        for k in (1, 2, 5):
            assert expected_pair_inferiority(0, 1, INTRO_S, P, k) == pytest.approx(0.4, abs=1e-12)

    def test_inferiority_disjoint_supports(self):
        P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert expected_pair_inferiority(0, 1, INTRO_S, P, 3) == 0.0

    def test_inferiority_half_probability(self):
        S = np.array([[0.2, 0.5], [0.6, 0.5]])
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert expected_pair_inferiority(0, 1, S, P, 2) == pytest.approx(
            0.4 * 0.75 * 0.75, abs=1e-12
        )

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        U = rng.uniform(0.05, 0.95, (2, 3))
        S = rng.uniform(0.05, 0.95, (2, 3))
        P = random_policy(rng, 2, 3)
        k = 2
        envy_ref = oracles.expected_envy_bruteforce(0, 1, U.tolist(), P.tolist(), k)
        inf_ref = oracles.expected_inferiority_bruteforce(0, 1, S.tolist(), P.tolist(), k)
        assert pair_envy_matrix(U, P, k)[0, 1] == pytest.approx(envy_ref, abs=1e-10)
        assert expected_pair_inferiority(0, 1, S, P, k) == pytest.approx(inf_ref, abs=1e-10)


class TestHitProbability:
    def test_matches_direct_form(self):
        p = np.array([[0.0, 0.3, 0.9, 1.0]])
        np.testing.assert_allclose(hit_probability(p, 3), 1 - (1 - p) ** 3, atol=1e-15)

    def test_near_one_stays_stable(self):
        p = np.array([[1 - 1e-13]])
        q = hit_probability(p, 2)
        assert 0.0 < q[0, 0] <= 1.0


class TestSystemLosses:
    def test_single_user(self):
        l_u, l_e, l_f = loss_terms(INTRO_U[:1], INTRO_S[:1], np.array([[0.2, 0.3, 0.5]]), 2)
        assert l_e == 0.0 and l_f == 0.0
        assert l_u < 0.0

    def test_equal_policy_rows_kill_envy(self):
        P = np.tile(random_policy(np.random.default_rng(0), 1, 5), (3, 1))
        U = np.random.default_rng(1).uniform(0.01, 0.99, (3, 5))
        _, l_e, _ = loss_terms(U, U, P, 2)
        assert l_e == 0.0

    def test_second_toy_values(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        l_u, l_e, l_f = loss_terms(SECOND_TOY, SECOND_TOY, P, 1)
        assert l_u == pytest.approx(-0.75, abs=1e-12)
        assert l_e == 0.0
        assert l_f == pytest.approx(0.15, abs=1e-12)

    @given(st.integers(0, 10**6))
    def test_signs(self, seed):
        rng = np.random.default_rng(seed)
        U = rng.uniform(0.01, 0.99, (3, 4))
        S = rng.uniform(0.01, 0.99, (3, 4))
        P = random_policy(rng, 3, 4)
        l_u, l_e, l_f = loss_terms(U, S, P, 2)
        assert l_u <= 0.0 and l_e >= 0.0 and l_f >= 0.0

    def test_inferiority_zero_iff_no_overlap_or_no_deficit(self):
        # identical suitability rows: every deficit is zero
        S_flat = np.tile(np.array([[0.3, 0.6, 0.9]]), (2, 1))
        P = random_policy(np.random.default_rng(2), 2, 3)
        _, _, l_f = loss_terms(S_flat, S_flat, P, 2)
        assert l_f == 0.0
        # overlapping supports with a deficit: strictly positive
        _, _, l_f = loss_terms(INTRO_U, INTRO_S, np.full((2, 3), 1 / 3), 2)
        assert l_f > 0.0

    def test_degenerate_onehot_matches_deterministic(self):
        rng = np.random.default_rng(9)
        U = rng.uniform(0.01, 0.99, (3, 5))
        S = rng.uniform(0.01, 0.99, (3, 5))
        k = 3
        cols = rng.integers(0, 5, size=3)
        P = np.zeros((3, 5))
        P[np.arange(3), cols] = 1.0
        C = np.zeros((3, 5), dtype=int)
        C[np.arange(3), cols] = k
        envy = pair_envy_matrix(U, P, k)
        for i in range(3):
            assert expected_user_utility(i, U, P, k) == pytest.approx(
                oracles.utility_user(i, U, C), abs=1e-12
            )
            for t in range(3):
                if i == t:
                    continue
                assert envy[i, t] == pytest.approx(oracles.envy_user(i, t, U, C), abs=1e-12)
                assert expected_pair_inferiority(i, t, S, P, k) == pytest.approx(
                    oracles.inferiority_user(i, t, S, C), abs=1e-12
                )


class TestInferiorityKernel:
    """The sorted inferiority kernel against the dense (i, t, j) oracle."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6), data=st.data())
    def test_matches_dense_oracle(self, m, seed, n, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
        S = rng.uniform(0.01, 0.99, (m, n))
        if data.draw(st.booleans(), label="tied"):
            S = np.round(S, 1)
        # direct-mode iterates may leave [0, 1], where hit probabilities go negative
        in_range = data.draw(st.booleans(), label="in_range")
        P = random_policy(rng, m, n) if in_range else rng.uniform(-0.5, 1.5, (m, n))
        f_rows = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)), label="f_rows")),
                          dtype=int)
        m_norm = float(max(1, f_rows.size))
        loss, grad = _inferiority_loss_grad(S, P, k, f_rows, m_norm)
        ref_loss, ref_grad = oracles.inferiority_loss_grad_dense(S, P, k, f_rows, m_norm)
        # in range every term is >= 0, so both summation orders agree to
        # rounding relative to the result; once terms can cancel, the errors
        # are relative to the largest possible sum of term sizes instead
        q = np.abs(hit_probability(P, k)).max()
        qg = k * (np.abs(1 - P) ** (k - 1)).max()
        atol = 0.0 if in_range else 1e-12 * 2 * m * n * q * max(q, qg)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=atol)
        # a caller's order, reused with its cached pieces, gives the same bits
        order = SuitabilityOrder(S)
        for _ in range(2):
            shared_loss, shared_grad = _inferiority_loss_grad(S, P, k, f_rows, m_norm, order=order)
            assert shared_loss == loss
            np.testing.assert_array_equal(shared_grad, grad)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_shared_scores_through_loss_and_grad(self, seed, m, n):
        rng = np.random.default_rng(seed)
        U = np.round(rng.uniform(0.01, 0.99, (m, n)), 1)
        P = random_policy(rng, m, n)
        bd, G = loss_and_grad(U, U, P, n, LossWeights(0.0, 1.0, 0.0), "direct")
        ref_loss, ref_grad = oracles.inferiority_loss_grad_dense(U, P, n, np.arange(m), m)
        np.testing.assert_allclose(bd.inferiority_loss, ref_loss, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(G, ref_grad, rtol=1e-12, atol=0.0)


def assert_same_as_rank_major(order, S, P, k, f_rows, m_norm):
    """The item-major kernel on `order` gives the frozen rank-major kernel's bits."""
    loss, grad = _inferiority_loss_grad(S, P, k, f_rows, m_norm, order=order)
    ref_loss, ref_grad = oracles.inferiority_loss_grad_rank_major(S, P, k, f_rows, m_norm)
    assert loss == ref_loss
    np.testing.assert_array_equal(grad, ref_grad)


class TestItemMajorOrder:
    """The item-major order and kernel against the frozen rank-major ones
    (`oracles.RankMajorOrder`), bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 8), n=st.integers(1, 8), data=st.data())
    def test_kernel_matches_rank_major(self, seed, m, n, data):
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.01, 0.99, (m, n))
        if data.draw(st.booleans(), label="tied"):
            S = np.round(S, 1)
        k = data.draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]), label="k")
        direct = data.draw(st.booleans(), label="direct")
        P = rng.uniform(-0.5, 1.5, (m, n)) if direct else random_policy(rng, m, n)
        f_rows = data.draw(st.one_of(
            st.just([]), st.integers(0, m - 1).map(lambda i: [i]), st.just(list(range(m))),
            st.sets(st.integers(0, m - 1)).map(sorted)), label="f_rows")
        f_rows = np.array(f_rows, dtype=int)
        m_norm = float(max(1, f_rows.size))
        order = SuitabilityOrder(S)
        for _ in range(2):  # the second call reuses the workspace
            assert_same_as_rank_major(order, S, P, k, f_rows, m_norm)
        assert_same_as_rank_major(None, S, P, k, f_rows, m_norm)

    @pytest.mark.parametrize("f_rows", [np.arange(200), np.arange(3, 200, 10), np.array([7])])
    def test_kernel_matches_rank_major_at_200_by_1000(self, f_rows):
        rng = np.random.default_rng(5)
        S = np.round(rng.uniform(0.0, 1.0, (200, 1000)), 1)
        P = random_policy(rng, 200, 1000)
        order = SuitabilityOrder(S)
        for k in (10, 1, 1000):
            assert_same_as_rank_major(order, S, P, k, f_rows, 200)

    @pytest.mark.parametrize("f_rows", [np.arange(200), np.arange(3, 200, 10), np.array([7])])
    def test_kernel_matches_rank_major_at_200_by_999(self, f_rows):
        # an odd n leaves the last item pair one padding lane
        rng = np.random.default_rng(6)
        S = np.round(rng.uniform(0.0, 1.0, (200, 999)), 1)
        P = random_policy(rng, 200, 999)
        order = SuitabilityOrder(S)
        for k in (10, 1, 999):
            assert_same_as_rank_major(order, S, P, k, f_rows, 200)
        w, ref = rng.uniform(-1, 2, (200, 999)), oracles.RankMajorOrder(S)
        np.testing.assert_array_equal(order.shortfall(w), ref.shortfall(w))
        np.testing.assert_array_equal(order.weight_strictly_above(w), ref.weight_strictly_above(w))

    @given(seed=st.integers(0, 10**6), m=st.integers(1, 8), n=st.integers(1, 8),
           tied=st.booleans(), binary=st.booleans())
    def test_shortfall_and_rivals_match_rank_major(self, seed, m, n, tied, binary):
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.01, 0.99, (m, n))
        if tied:
            S = np.round(S, 1)
        w = (rng.random((m, n)) < 0.5).astype(float) if binary else rng.uniform(-1, 2, (m, n))
        order, ref = SuitabilityOrder(S), oracles.RankMajorOrder(S)
        np.testing.assert_array_equal(order.shortfall(w), ref.shortfall(w))
        np.testing.assert_array_equal(order.weight_strictly_above(w), ref.weight_strictly_above(w))


    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 1), (1, 3), (5, 7)])
    def test_degenerate_shapes_match_rank_major(self, shape):
        S, w = np.zeros(shape), np.ones(shape)
        order, ref = SuitabilityOrder(S), oracles.RankMajorOrder(S)
        np.testing.assert_array_equal(order.shortfall(w), ref.shortfall(w))
        np.testing.assert_array_equal(order.weight_strictly_above(w), ref.weight_strictly_above(w))

    @pytest.mark.parametrize("n", [6, 7])
    def test_items_paired_in_one_lane_stay_independent(self, n):
        # each item's sums and gradient column read that item's S and P
        # column only, although two items share every complex running sum
        rng = np.random.default_rng(n)
        m, k = 9, 3
        S, P = np.round(rng.uniform(0, 1, (m, n)), 1), random_policy(rng, m, n)
        f_rows = np.array([0, 4, 5])

        def per_item(S, P):
            order, q = SuitabilityOrder(S), hit_probability(P, k)
            shortfall = order.shortfall(q)
            return [shortfall, q * shortfall, order.weight_strictly_above(P),
                    _inferiority_loss_grad(S, P, k, np.arange(m), m, order=order)[1],
                    _inferiority_loss_grad(S, P, k, f_rows, m, order=order)[1]]

        before = per_item(S, P)
        for j in range(n):
            S2, P2 = S.copy(), P.copy()
            S2[:, j] = rng.permutation(S[:, j])[::-1] + 0.05
            P2[:, j] = rng.uniform(0, 1, m)
            others = np.arange(n) != j
            for a, b in zip(before, per_item(S2, P2)):
                np.testing.assert_array_equal(a[:, others], b[:, others])
                assert not np.array_equal(a[:, j], b[:, j])

class TestKernelWorkspace:
    """The kernel's per-order workspace carries nothing from one call to the next."""

    def test_interleaved_orders(self):
        rng = np.random.default_rng(11)
        shapes = [(6, 9), (9, 6)]
        S = [np.round(rng.uniform(0, 1, shape), 1) for shape in shapes]
        orders = [SuitabilityOrder(s) for s in S]
        for step in range(6):
            for s, order in zip(S, orders):
                m, n = s.shape
                P = random_policy(rng, m, n) if step % 2 else rng.uniform(-0.5, 1.5, (m, n))
                f_rows = np.arange(m) if step % 3 else np.array([step % m])
                assert_same_as_rank_major(order, s, P, 1 + step % n, f_rows, m)

    def test_one_order_with_changing_policy_and_k(self):
        rng = np.random.default_rng(12)
        S = np.round(rng.uniform(0, 1, (7, 11)), 1)
        order = SuitabilityOrder(S)
        for k in (11, 1, 4, 2, 11, 3):
            P = random_policy(rng, 7, 11)
            assert_same_as_rank_major(order, S, P, k, np.arange(7), 7)
            assert_same_as_rank_major(order, S, P, k, np.array([1, 5]), 7)

    def test_gradient_is_a_fresh_array(self):
        rng = np.random.default_rng(13)
        S, P = rng.uniform(0, 1, (8, 12)), random_policy(rng, 8, 12)
        order = SuitabilityOrder(S)
        loss, grad = _inferiority_loss_grad(S, P, 3, np.arange(8), 8, order=order)
        assert grad.flags.c_contiguous and grad.shape == (8, 12)
        assert not any(np.shares_memory(grad, buffer) for buffer in order._workspace)
        expected = grad.copy()
        grad[...] = np.nan
        again_loss, again = _inferiority_loss_grad(S, P, 3, np.arange(8), 8, order=order)
        assert again_loss == loss
        np.testing.assert_array_equal(again, expected)
        assert not np.shares_memory(again, grad)

    def test_warm_call_allocates_only_its_gradient(self):
        m, n = 200, 500
        rng = np.random.default_rng(14)
        S, P = rng.uniform(0, 1, (m, n)), random_policy(rng, m, n)
        order = SuitabilityOrder(S)
        everyone = np.arange(m)
        _inferiority_loss_grad(S, P, 10, everyone, m, order=order)
        tracemalloc.start()
        try:
            _inferiority_loss_grad(S, P, 10, everyone, m, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * m * n


class TestPenaltyAndTotal:
    def test_breakdown_as_dict_pinned(self):
        breakdown = LossBreakdown(1.0, 2.0, 3.0, 4.0, 10.0)
        assert list(breakdown.as_dict().items()) == [
            ("envy_loss", 1.0), ("inferiority_loss", 2.0), ("neg_utility_loss", 3.0),
            ("penalty_loss", 4.0), ("total", 10.0),
        ]

    def test_penalty_zero_on_stochastic(self):
        P = random_policy(np.random.default_rng(0), 4, 5)
        assert _penalty_loss_grad(P)[0] == pytest.approx(0.0, abs=1e-25)

    def test_penalty_values(self):
        assert _penalty_loss_grad(np.array([[1.0, 0.5]]))[0] == pytest.approx(0.25, abs=1e-12)
        P = np.array([[0.4, 0.5], [0.7, 0.5]])
        assert _penalty_loss_grad(P)[0] == pytest.approx(0.05, abs=1e-12)

    def test_weight_masking(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(0.01, 0.99, (3, 4))
        P = random_policy(rng, 3, 4)
        bd = loss_and_grad(U, U, P, 2, LossWeights(0, 0, 1, 0), "direct")[0]
        l_u, _, _ = loss_terms(U, U, P, 2)
        assert bd.total == pytest.approx(l_u, abs=1e-12)

    def test_second_toy_total(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        bd = loss_and_grad(SECOND_TOY, SECOND_TOY, P, 1, LossWeights(1, 1, 1, 0), "direct")[0]
        assert bd.total == pytest.approx(-0.6, abs=1e-12)

    def test_doubling_weights_doubles_total(self):
        rng = np.random.default_rng(8)
        U = rng.uniform(0.01, 0.99, (3, 4))
        S = rng.uniform(0.01, 0.99, (3, 4))
        P = rng.uniform(0.1, 0.9, (3, 4))  # off-simplex so the penalty is active
        one = loss_and_grad(U, S, P, 2, LossWeights(1, 2, 3, 4), "direct")[0]
        two = loss_and_grad(U, S, P, 2, LossWeights(2, 4, 6, 8), "direct")[0]
        assert two.total == pytest.approx(2 * one.total, abs=1e-10)

    def test_breakdown_invariant(self):
        rng = np.random.default_rng(12)
        U = rng.uniform(0.01, 0.99, (3, 4))
        P = rng.uniform(0.1, 0.9, (3, 4))
        w = LossWeights(0.5, 1.5, 2.0, 3.0)
        bd = loss_and_grad(U, U, P, 2, w, "direct")[0]
        recomputed = (
            w.w1 * bd.envy_loss + w.w2 * bd.inferiority_loss
            + w.w3 * bd.neg_utility_loss + w.w4 * bd.penalty_loss
        )
        assert bd.total == pytest.approx(recomputed, abs=1e-10)


class TestGradients:
    def test_utility_only_direct_gradient_is_exact(self):
        rng = np.random.default_rng(0)
        U = rng.uniform(0.01, 0.99, (4, 6))
        P = random_policy(rng, 4, 6)
        G = loss_and_grad(U, U, P, 3, LossWeights(0, 0, 1, 0), "direct")[1]
        np.testing.assert_array_equal(G, -(3 / 4) * U)

    def test_unknown_parametrization(self):
        with pytest.raises(ValueError):
            loss_and_grad(INTRO_U, INTRO_S, INTRO_U, 1, LossWeights(1, 1, 1), "foo")

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    @pytest.mark.parametrize(
        "S, params",
        [(INTRO_S[:, :2], INTRO_U), (INTRO_S, INTRO_U[:1]), (INTRO_S, INTRO_U.T)],
        ids=["S", "params", "params_transposed"],
    )
    def test_shape_mismatch(self, S, params, parametrization):
        with pytest.raises(DimensionError):
            loss_and_grad(INTRO_U, S, params, 1, LossWeights(1, 1, 1), parametrization)

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    def test_matches_finite_differences(self, parametrization):
        rng = np.random.default_rng(21)
        for _ in range(3):
            U = rng.uniform(0.05, 0.95, (4, 6))
            S = rng.uniform(0.05, 0.95, (4, 6))
            if parametrization == "logits":
                params = rng.normal(size=(4, 6))
                weights = LossWeights(1.0, 1.0, 1.0, 0.0)
            else:
                params = random_policy(rng, 4, 6)
                weights = LossWeights(1.0, 1.0, 1.0, 0.7)
            # keep every pair-envy expectation away from the hinge kink
            P = row_softmax(params) if parametrization == "logits" else params
            E = pair_envy_matrix(U, P, 2)
            if np.abs(E[~np.eye(4, dtype=bool)]).min() <= 1e-3:
                continue

            def loss_fn(x):
                Px = row_softmax(x) if parametrization == "logits" else x
                return loss_and_grad(U, S, Px, 2, weights, "direct")[0].total

            analytic = loss_and_grad(U, S, params, 2, weights, parametrization)[1]
            numeric = finite_diff_grad(loss_fn, params, 1e-5)
            assert rel_error(analytic, numeric) < 1e-5

    def test_symmetric_instance_antisymmetric_gradients(self):
        # equal score rows and a uniform policy: pushing user i mirrors user t
        U = np.tile(np.array([[0.3, 0.6, 0.9, 0.5]]), (2, 1))
        P = np.full((2, 4), 0.25)
        weights = LossWeights(1.0, 1.0, 0.0, 0.0)
        G = loss_and_grad(U, U, P, 2, weights, "direct")[1]
        np.testing.assert_allclose(G[0], G[1], atol=1e-12)

        def loss_fn(x):
            return loss_and_grad(U, U, x, 2, weights, "direct")[0].total

        # the instance sits exactly on the envy hinge, so compare absolutely
        # against the finite-difference noise floor instead of relatively
        numeric = finite_diff_grad(loss_fn, P, 1e-5)
        np.testing.assert_allclose(G, numeric, atol=1e-9)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float((x**2).sum()), np.array([[1.0]]), 1e-5)
        assert grad[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda x: 3.14, np.ones((2, 3)), 1e-5)
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.ones(2), 0.0)


class TestMonteCarlo:
    def test_deterministic_policy_zero_variance(self):
        P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        est = mc_estimate(INTRO_U, INTRO_S, P, 2, samples=200, seed=0)
        assert est.utility_se.max() < 1e-12
        assert est.utility_mean[0] == pytest.approx(2 * 0.2, abs=1e-12)
        assert est.envy_mean[0, 1] == pytest.approx(
            pair_envy_matrix(INTRO_U, P, 2)[0, 1], abs=1e-12
        )

    @settings(max_examples=10)
    @given(st.integers(0, 10**4))
    def test_within_three_standard_errors(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = 3, 4, 2
        U = rng.uniform(0.05, 0.95, (m, n))
        S = rng.uniform(0.05, 0.95, (m, n))
        P = random_policy(rng, m, n)
        est = mc_estimate(U, S, P, k, samples=20000, seed=seed + 1)
        for i in range(m):
            closed = expected_user_utility(i, U, P, k)
            # allow a tiny absolute slack on top of 3 SE for zero-variance corners
            assert abs(est.utility_mean[i] - closed) <= 3 * est.utility_se[i] + 1e-9

    def test_half_probability_inferiority(self):
        S = np.array([[0.2, 0.5], [0.6, 0.5]])
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        est = mc_estimate(S, S, P, 2, samples=400_000, seed=3)
        assert est.inferiority_mean[0, 1] == pytest.approx(0.5625 * 0.4, abs=4 * est.inferiority_se[0, 1])

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            mc_estimate(INTRO_U, INTRO_S, np.full((2, 3), 1 / 3), 1, samples=0)

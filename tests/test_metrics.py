import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from feir.core import DimensionError, top_k
from feir.losses import pair_envy_matrix
from feir.metrics import (
    competition_metrics,
    gini_index,
    inferiority_by_user,
    normalized_metrics,
    system_metrics,
)

INTRO_U = np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]])
INTRO_S = np.array([[0.3, 0.9, 0.4], [0.3, 0.8, 0.8]])
SECOND_TOY = np.array([[0.1, 0.9, 0.8], [0.4, 0.6, 0.5]])


class TestUserLevel:
    """Per-user values on the introductory matrices: utility through the
    reference, envy as `pair_envy_matrix(U, C, 1)` and, with two users,
    inferiority as `inferiority_by_user`."""

    def test_utility_single_item(self):
        C = np.array([[0, 0, 1], [0, 0, 1]])
        assert oracles.utility_user(0, INTRO_U, C) == pytest.approx(0.9, abs=1e-12)

    def test_utility_repeated_item_is_linear(self):
        C = np.array([[0, 3, 0], [0, 0, 3]])
        assert oracles.utility_user(0, INTRO_U, C) == pytest.approx(3 * 0.6, abs=1e-12)

    def test_utility_two_items(self):
        C = np.array([[0, 1, 1], [0, 1, 1]])
        assert oracles.utility_user(1, INTRO_U, C) == pytest.approx(1.5, abs=1e-12)

    def test_envy_split_recommendation(self):
        C = np.array([[1, 0, 0], [0, 1, 0]])
        envy = pair_envy_matrix(INTRO_U, C, 1)
        assert envy[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert envy[1, 0] == pytest.approx(-0.7, abs=1e-12)

    def test_envy_identical_lists(self):
        C = np.array([[1, 0, 1], [1, 0, 1]])
        assert pair_envy_matrix(INTRO_U, C, 1)[0, 1] == 0.0

    def test_inferiority_shared_triangle(self):
        C = np.array([[0, 0, 1], [0, 0, 1]])
        np.testing.assert_allclose(inferiority_by_user(INTRO_S, C), [0.4, 0.0],
                                   rtol=0, atol=1e-12)

    def test_inferiority_disjoint_lists(self):
        C = np.array([[1, 0, 0], [0, 1, 0]])
        assert inferiority_by_user(INTRO_S, C).tolist() == [0.0, 0.0]

    def test_inferiority_second_toy(self):
        C = np.array([[0, 1, 0], [0, 1, 0]])
        np.testing.assert_allclose(inferiority_by_user(SECOND_TOY, C), [0.0, 0.3],
                                   rtol=0, atol=1e-12)

    def test_inferiority_counts_item_once(self):
        C = np.array([[0, 2, 0], [0, 3, 0]])
        assert oracles.inferiority_user(1, 0, SECOND_TOY, C) == pytest.approx(0.3, abs=1e-12)


class TestSystemLevel:
    def test_both_triangle(self):
        C = np.array([[0, 0, 1], [0, 0, 1]])
        sys = system_metrics(INTRO_U, INTRO_S, C)
        assert sys.envy == 0.0
        assert sys.inferiority == pytest.approx(0.2, abs=1e-12)
        assert sys.overall_fairness == pytest.approx(0.2, abs=1e-12)

    def test_both_circle(self):
        C = np.array([[1, 0, 0], [1, 0, 0]])
        sys = system_metrics(INTRO_U, INTRO_S, C)
        assert sys.envy == 0.0 and sys.inferiority == 0.0
        assert sys.utility == pytest.approx(0.15, abs=1e-12)

    def test_single_user_has_no_pairs(self):
        sys = system_metrics(INTRO_U[:1], INTRO_S[:1], np.array([[1, 0, 0]]))
        assert sys.envy == 0.0 and sys.inferiority == 0.0

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 10), st.integers(1, 3))
    def test_naive_recommendation_is_envy_free(self, seed, m, n, k):
        rng = np.random.default_rng(seed)
        U = rng.uniform(0.01, 0.99, size=(m, max(n, k)))
        sys = system_metrics(U, U, top_k(U, k))
        assert sys.envy == 0.0

    @given(st.integers(0, 10**6))
    def test_inferiority_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.01, 0.99, size=(4, 6))
        C = top_k(rng.uniform(size=(4, 6)), 2)
        sys = system_metrics(S, S, C)
        assert sys.inferiority >= 0.0

    def test_disjoint_lists_have_zero_inferiority(self):
        C = np.eye(3, 5, dtype=int)
        rng = np.random.default_rng(1)
        S = rng.uniform(0.01, 0.99, (3, 5))
        assert system_metrics(S, S, C).inferiority == 0.0

    def test_rows_of_unequal_length_rejected(self):
        C = np.array([[1, 1, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="rows must all sum to the same k"):
            system_metrics(INTRO_U, INTRO_S, C)

    @pytest.mark.parametrize("metric", [
        lambda C: competition_metrics(INTRO_S, C, 2),
        lambda C: inferiority_by_user(INTRO_S, C),
    ], ids=["competition_metrics", "inferiority_by_user"])
    @pytest.mark.parametrize("C", [[[1, 1, 0], [1, 0, 0]], [[0, 0, 0], [0, 1, 1]]],
                             ids=["short_second_row", "empty_first_row"])
    def test_raw_counts_of_unequal_length_rejected(self, metric, C):
        # every reader of the picks shares their check of the list lengths
        with pytest.raises(ValueError, match="count matrix rows must all sum to the same k"):
            metric(np.array(C))

    def test_envy_antisymmetric_for_equal_utility_rows(self):
        U = np.tile(np.array([[0.2, 0.5, 0.8, 0.4]]), (2, 1))
        C = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        envy = pair_envy_matrix(U, C, 1)
        assert envy[0, 1] == pytest.approx(-envy[1, 0], abs=1e-12)

    def test_matches_bruteforce_on_small_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, n = rng.integers(2, 4), rng.integers(2, 5)
            k = int(rng.integers(1, min(n, 2) + 1))
            U = rng.uniform(0.01, 0.99, (m, n))
            S = rng.uniform(0.01, 0.99, (m, n))
            C = top_k(rng.uniform(size=(m, n)), k).C
            sys = system_metrics(U, S, C)
            u_ref, e_ref, f_ref = oracles.system_values(U.tolist(), S.tolist(), C.tolist())
            assert sys.utility == pytest.approx(u_ref, abs=1e-12)
            assert sys.envy == pytest.approx(e_ref, abs=1e-12)
            assert sys.inferiority == pytest.approx(f_ref, abs=1e-12)

    def test_matches_bruteforce_with_tied_suitabilities(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m, n = rng.integers(2, 7), rng.integers(2, 5)
            k = int(rng.integers(1, n + 1))
            U = rng.uniform(0.01, 0.99, (m, n))
            S = np.round(rng.uniform(0.0, 1.0, (m, n)), 1)
            C = top_k(rng.uniform(size=(m, n)), k).C
            sys = system_metrics(U, S, C)
            _, e_ref, f_ref = oracles.system_values(U.tolist(), S.tolist(), C.tolist())
            assert sys.inferiority == pytest.approx(f_ref, abs=1e-12)
            assert sys.envy == pytest.approx(e_ref, abs=1e-12)

    def test_inferiority_by_user_matches_system(self):
        rng = np.random.default_rng(3)
        S = rng.uniform(0.01, 0.99, (5, 8))
        C = top_k(rng.uniform(size=(5, 8)), 3)
        per_user = inferiority_by_user(S, C)
        assert per_user.sum() / 5 == pytest.approx(system_metrics(S, S, C).inferiority, abs=1e-12)


class TestNormalized:
    def test_identity(self):
        sys = system_metrics(INTRO_U, INTRO_S, np.array([[0, 0, 1], [0, 0, 1]]))
        norm = normalized_metrics(sys, sys)
        assert norm.utility_norm == pytest.approx(1.0)
        assert norm.inferiority_norm == pytest.approx(1.0)
        assert norm.overall_norm == pytest.approx(1.0)

    def test_ratio(self):
        a = system_metrics(INTRO_U, INTRO_S, np.array([[1, 0, 0], [1, 0, 0]]))
        b = system_metrics(INTRO_U, INTRO_S, np.array([[0, 0, 1], [0, 1, 0]]))
        norm = normalized_metrics(a, b)
        assert norm.utility_norm == pytest.approx(a.utility / b.utility)

    def test_zero_denominator_reported_absent(self):
        # disjoint naive lists: zero inferiority and zero overall fairness
        U = np.array([[0.9, 0.1, 0.2], [0.1, 0.9, 0.2]])
        naive_sys = system_metrics(U, U, top_k(U, 1))
        assert naive_sys.inferiority == 0.0
        norm = normalized_metrics(naive_sys, naive_sys)
        assert norm.inferiority_norm is None
        assert norm.overall_norm is None


class TestCompetition:
    def test_two_users_one_shared_item(self):
        S = np.array([[0.4, 0.5], [0.8, 0.5]])
        C = np.array([[1, 0], [1, 0]])
        comp = competition_metrics(S, C, 1)
        assert comp.mean_rank_per_user.tolist() == [1.0, 0.0]
        assert comp.mean_gap_per_user.tolist() == pytest.approx([0.4, 0.0], abs=1e-12)

    def test_three_way_competition(self):
        S = np.array([[0.1], [0.5], [0.9]])
        C = np.ones((3, 1), dtype=int)
        comp = competition_metrics(S, C, 1)
        assert comp.mean_rank_per_user.tolist() == [2.0, 1.0, 0.0]
        assert comp.mean_gap_per_user[0] == pytest.approx(0.6, abs=1e-12)

    def test_disjoint_items_no_competition(self):
        S = np.random.default_rng(0).uniform(0.01, 0.99, (3, 6))
        C = np.eye(3, 6, dtype=int) + np.eye(3, 6, 3, dtype=int)
        comp = competition_metrics(S, C, 2)
        assert comp.mean_rank == 0.0 and comp.mean_gap == 0.0

    def test_requires_binary(self):
        with pytest.raises(ValueError):
            competition_metrics(INTRO_S, np.array([[2, 0, 0], [0, 2, 0]]), 2)

    def test_bounds_and_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n, k = 4, 5, 2
            S = rng.uniform(0.01, 0.99, (m, n))
            C = top_k(rng.uniform(size=(m, n)), k).C
            comp = competition_metrics(S, C, k)
            ranks_ref, gaps_ref = oracles.rank_and_gap(S.tolist(), C.tolist(), k)
            np.testing.assert_allclose(comp.mean_rank_per_user, ranks_ref, atol=1e-12)
            np.testing.assert_allclose(comp.mean_gap_per_user, gaps_ref, atol=1e-12)
            assert (comp.mean_rank_per_user <= m - 1).all()
            assert (comp.mean_gap_per_user <= S.max()).all()

    def test_tied_suitabilities_are_not_rivals(self):
        # equally suitable users do not outrank each other: only strictly
        # more suitable ones count toward rank and gap
        S = np.array([[0.5], [0.5], [0.9], [0.9], [0.2]])
        C = np.ones((5, 1), dtype=int)
        comp = competition_metrics(S, C, 1)
        assert comp.mean_rank_per_user.tolist() == [2.0, 2.0, 0.0, 0.0, 4.0]
        np.testing.assert_allclose(comp.mean_gap_per_user, [0.4, 0.4, 0.0, 0.0, 0.5], atol=1e-12)

    def test_bruteforce_with_tied_suitabilities(self):
        rng = np.random.default_rng(12)
        tied_rivals = 0
        for _ in range(30):
            m, n, k = 6, 4, 2
            S = np.round(rng.uniform(0.0, 1.0, (m, n)), 1)
            C = top_k(rng.uniform(size=(m, n)), k).C
            comp = competition_metrics(S, C, k)
            ranks_ref, gaps_ref = oracles.rank_and_gap(S.tolist(), C.tolist(), k)
            np.testing.assert_allclose(comp.mean_rank_per_user, ranks_ref, atol=1e-12)
            np.testing.assert_allclose(comp.mean_gap_per_user, gaps_ref, atol=1e-12)
            for j in range(n):
                picked = S[C[:, j] == 1, j]
                tied_rivals += picked.size - np.unique(picked).size
        assert tied_rivals > 0


def tied_instance(seed, m, n):
    """U and a one-decimal S, so tied suitabilities (and tied rivals) are common."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 0.99, (m, n)), np.round(rng.uniform(0.0, 1.0, (m, n)), 1), rng


def assert_matches_dense(U, S, C, k):
    """Every metric of the pick path against the dense m x n kernel and the
    brute-force loops."""
    envy, deficits, rivals = oracles.realized_terms_dense(U, S, C)
    m = C.shape[0]
    sys = system_metrics(U, S, C)
    by_user = inferiority_by_user(S, C)
    np.testing.assert_allclose(by_user, deficits.sum(axis=1), rtol=1e-12, atol=1e-12)
    assert sys.inferiority == pytest.approx(deficits.sum() / m, rel=1e-12, abs=1e-12)
    assert sys.envy == pytest.approx(np.maximum(0.0, envy).sum() / m, rel=1e-12, abs=1e-12)
    u_ref, e_ref, f_ref = oracles.system_values(U.tolist(), S.tolist(), C.tolist())
    assert (sys.utility, sys.envy, sys.inferiority) == pytest.approx((u_ref, e_ref, f_ref), abs=1e-12)
    ref_by_user = [sum(oracles.inferiority_user(i, t, S.tolist(), C.tolist())
                       for t in range(m) if t != i) for i in range(m)]
    np.testing.assert_allclose(by_user, ref_by_user, atol=1e-12)
    assert (by_user >= 0.0).all()
    if np.all((C == 0) | (C == 1)):
        comp = competition_metrics(S, C, k)
        # rival counts are sums of ones, exact in any order
        assert comp.mean_rank_per_user.tolist() == (rivals.sum(axis=1) / k).tolist()
        gaps = np.sum(deficits / np.maximum(1.0, rivals), axis=1) / k
        np.testing.assert_allclose(comp.mean_gap_per_user, gaps, rtol=1e-12, atol=1e-12)
        ranks_ref, gaps_ref = oracles.rank_and_gap(S.tolist(), C.tolist(), k)
        np.testing.assert_allclose(comp.mean_rank_per_user, ranks_ref, atol=1e-12)
        np.testing.assert_allclose(comp.mean_gap_per_user, gaps_ref, atol=1e-12)


class TestPickPath:
    """The metrics score each list from its picks; the dense m x n kernel
    (oracles.realized_terms_dense) and the brute-force loops are the reference."""

    @given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 7), st.data())
    def test_binary_lists_match_dense(self, seed, m, n, data):
        k = data.draw(st.integers(1, n))
        U, S, rng = tied_instance(seed, m, n)
        C = top_k(rng.uniform(size=(m, n)), k).C
        assert_matches_dense(U, S, C, k)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
    def test_repeated_counts_match_dense(self, seed, m, n, k):
        U, S, rng = tied_instance(seed, m, n)
        C = rng.multinomial(k, np.full(n, 1.0 / n), size=m)
        assert_matches_dense(U, S, C, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_item_to_every_user(self, seed):
        # k = n: the padded layout is as large as S, with no padding
        U, S, _ = tied_instance(seed, 6, 4)
        assert_matches_dense(U, S, np.ones((6, 4), dtype=int), 4)

    def test_single_user(self):
        U, S, _ = tied_instance(1, 1, 5)
        C = np.array([[0, 1, 1, 0, 1]])
        assert_matches_dense(U, S, C, 3)
        sys = system_metrics(U, S, C)
        assert sys.envy == 0.0 and sys.inferiority == 0.0

    def test_unpicked_items(self):
        U, S, _ = tied_instance(2, 4, 9)
        C = np.zeros((4, 9), dtype=int)
        C[:, [1, 4]] = 1  # seven items no one received
        assert_matches_dense(U, S, C, 2)

    def test_recipient_tied_with_padding(self):
        # item 0 has three recipients and item 1 two, so item 1's column is
        # padded with the lowest picked suitability, 0.2, which user 3 also
        # has on item 1: a weightless padding entry sits in a tie with it
        S = np.array([[0.4, 0.9], [0.5, 0.9], [0.7, 0.9], [0.9, 0.2], [0.9, 0.6]])
        C = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1]])
        U = np.full(S.shape, 0.5)
        assert_matches_dense(U, S, C, 1)
        comp = competition_metrics(S, C, 1)
        assert comp.mean_rank_per_user.tolist() == [2.0, 1.0, 0.0, 1.0, 0.0]
        np.testing.assert_allclose(comp.mean_gap_per_user, [0.2, 0.2, 0.0, 0.4, 0.0], atol=1e-12)

    def test_all_zero_counts(self):
        U, S, _ = tied_instance(3, 3, 4)
        C = np.zeros((3, 4), dtype=int)
        sys = system_metrics(U, S, C)
        assert (sys.utility, sys.envy, sys.inferiority) == (0.0, 0.0, 0.0)
        assert inferiority_by_user(S, C).tolist() == [0.0, 0.0, 0.0]
        comp = competition_metrics(S, C, 1)
        assert comp.mean_rank == 0.0 and comp.mean_gap == 0.0

    @pytest.mark.parametrize("shape", [(4, 5), (3, 6), (5, 6), (4, 7)])
    def test_mismatched_counts_rejected(self, shape):
        U, S, _ = tied_instance(4, 4, 6)
        C = top_k(np.random.default_rng(1).uniform(size=shape), 2).C
        with pytest.raises(DimensionError):
            system_metrics(U, S, C)
        with pytest.raises(DimensionError):
            inferiority_by_user(S, C)
        with pytest.raises(DimensionError):
            competition_metrics(S, C, 2)


class TestGini:
    def test_uniform_exposure(self):
        C = np.ones((4, 4), dtype=int)
        assert gini_index(C) == pytest.approx(0.0, abs=1e-12)

    def test_single_spike(self):
        C = np.zeros((3, 5), dtype=int)
        C[:, 0] = 1
        assert gini_index(C) == pytest.approx(4 / 5, abs=1e-12)

    def test_known_exposure_vector(self):
        C = np.array([[1, 1, 0, 0], [1, 0, 1, 0]])
        # exposures (2, 1, 1, 0)
        assert gini_index(C) == pytest.approx(0.375, abs=1e-12)
        assert gini_index(C) == pytest.approx(oracles.gini(C.tolist()), abs=1e-12)

    def test_all_zero_exposure(self):
        assert gini_index(np.zeros((2, 3), dtype=int)) == 0.0

    @given(st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        C = top_k(rng.uniform(size=(5, 7)), 2).C
        perm = rng.permutation(7)
        assert gini_index(C[:, perm]) == pytest.approx(gini_index(C), abs=1e-12)

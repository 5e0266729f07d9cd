import csv
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import oracles
import pytest

import feir.cli
import feir.optim as optim
from feir.cli import cmd_run, derive_seed
from feir.core import Policy, ScorePair, row_softmax, top_k
from feir.datagen import GenSpec, generate
from feir.losses import LossWeights
from feir.metrics import system_metrics
from feir.optim import (
    SCALING_KINDS,
    Scaling,
    TrainConfig,
    TrainingDiverged,
    default_weight_grid,
    fit,
    make_training_view,
)
from feir.pareto import make_solution


def random_pair(seed, m=5, n=8):
    rng = np.random.default_rng(seed)
    return ScorePair.single(rng.uniform(0.01, 0.99, (m, n)))


def losses_of(trace):
    return [b.as_dict() for b in trace.steps]


class TestScalingConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scaling(kind="bogus")

    @pytest.mark.parametrize("kind", ["bogus", ["none"], {"none": 1}, None])
    def test_kind_must_be_a_known_name(self, kind):
        # a list or dict kind raised TypeError (unhashable) before the rule
        with pytest.raises(ValueError) as err:
            Scaling(kind=kind)
        kinds = "['none', 'minibatch', 'user_sample', 'item_sample', 'user_item_sample']"
        assert str(err.value) == f"scaling kind must be one of {kinds}, got {kind!r}"

    @pytest.mark.parametrize("kind, size", [
        ("minibatch", "b"), ("user_sample", "m_s"), ("item_sample", "n_s"),
        ("user_item_sample", "m_s"), ("user_item_sample", "n_s")])
    def test_sizes_too_large_for_a_float_refused(self, kind, size):
        sizes = {name: 2 for name in SCALING_KINDS[kind]}
        with pytest.raises(ValueError, match=f"^scaling '{kind}' {size} must be finite, got 1000"):
            Scaling(kind, **{**sizes, size: 10**400})

    def test_required_fields(self):
        with pytest.raises(ValueError):
            Scaling(kind="minibatch")
        with pytest.raises(ValueError):
            Scaling(kind="user_item_sample", m_s=2)

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            Scaling(kind="minibatch", b=20).validate_dims(10, 5)
        with pytest.raises(ValueError):
            Scaling(kind="item_sample", n_s=9).validate_dims(10, 5)

    def test_dim_bounds_check_only_the_sizes_a_kind_reads(self):
        pair = generate(GenSpec("user_groups", 8, 20, seed=3))
        # a size the kind does not read cannot be set, whatever its value
        for kind, sizes in [("none", {"b": 2.5}), ("none", {"n_s": 3}),
                            ("user_sample", {"m_s": 5, "n_s": 30}),
                            ("minibatch", {"b": 4, "m_s": 50}),
                            ("minibatch", {"b": 2, "n_s": 999}),
                            ("item_sample", {"n_s": 3, "b": 1})]:
            unread = next(name for name in sizes if name not in SCALING_KINDS[kind])
            with pytest.raises(ValueError, match=f"scaling '{kind}' does not read {unread}, "
                                                 f"got {sizes[unread]}"):
                Scaling(kind, **sizes)
        config = TrainConfig(k=3, weights=LossWeights(1, 1, 1), max_steps=3,
                             scaling=Scaling("minibatch", b=4))
        assert fit(pair, config).step_count == 3
        # a size the kind does read raises when it exceeds the instance
        with pytest.raises(ValueError, match="user sample m_s=9 exceeds m=8"):
            make_training_view(pair, Scaling("user_sample", m_s=9), 0, seed=1)
        with pytest.raises(ValueError, match="batch size b=9 exceeds m=8"):
            fit(pair, TrainConfig(k=3, weights=LossWeights(1, 1, 1),
                                  scaling=Scaling("minibatch", b=9)))
        with pytest.raises(ValueError, match="item sample n_s=21 exceeds n=20"):
            Scaling("user_item_sample", m_s=2, n_s=21).validate_dims(8, 20)


class TestTrainingView:
    def test_none_is_identity(self):
        pair = random_pair(0, 6, 9)
        view = make_training_view(pair, Scaling(), 0, seed=1)
        assert view.users.tolist() == list(range(6))
        assert view.items.tolist() == list(range(9))
        assert view.f_rows.tolist() == list(range(6))
        assert view.item_scale == 1.0

    def test_full_size_settings_match_none(self):
        pair = random_pair(0, 6, 9)
        none = make_training_view(pair, Scaling(), 3, seed=1)
        batch = make_training_view(pair, Scaling(kind="minibatch", b=6), 3, seed=1)
        users = make_training_view(pair, Scaling(kind="user_sample", m_s=6), 3, seed=1)
        items = make_training_view(pair, Scaling(kind="item_sample", n_s=9), 3, seed=1)
        for v in (batch, users, items):
            assert v.users.tolist() == none.users.tolist()
            assert v.items.tolist() == none.items.tolist()
            assert v.f_rows.tolist() == none.f_rows.tolist()
        assert items.item_scale == 1.0

    def test_minibatch_partitions_each_epoch(self):
        pair = random_pair(1, 10, 4)
        scaling = Scaling(kind="minibatch", b=3)
        n_batches = 10 // 3
        for epoch in range(3):
            seen = []
            for idx in range(n_batches):
                view = make_training_view(pair, scaling, epoch * n_batches + idx, seed=9)
                assert view.f_rows.size == 3
                assert view.users.size == 10 and view.items.size == 4
                seen.extend(view.f_rows.tolist())
            assert len(set(seen)) == len(seen) == n_batches * 3

    def test_user_sample_reproducible(self):
        pair = random_pair(2, 10, 4)
        scaling = Scaling(kind="user_sample", m_s=2)
        a = make_training_view(pair, scaling, 5, seed=3)
        b = make_training_view(pair, scaling, 5, seed=3)
        assert a.users.tolist() == b.users.tolist()
        c = make_training_view(pair, scaling, 6, seed=3)
        assert a.users.tolist() != c.users.tolist() or True  # resampled per step

    def test_user_sample_samples_no_items(self):
        pair = random_pair(2, 10, 4)
        with pytest.raises(ValueError, match="scaling 'user_sample' does not read n_s, got 3"):
            Scaling(kind="user_sample", m_s=5, n_s=3)
        view = make_training_view(pair, Scaling(kind="user_sample", m_s=5), 2, seed=3)
        assert view.users.size == 5
        assert view.items.tolist() == list(range(4)) and view.item_scale == 1.0
        assert view.f_rows.tolist() == list(range(5))

    def test_item_sample_scales_losses(self):
        pair = random_pair(3, 4, 10)
        view = make_training_view(pair, Scaling(kind="item_sample", n_s=5), 0, seed=0)
        assert view.item_scale == 2.0
        assert view.items.size == 5


class TestTrainConfig:
    def test_validation(self):
        w = LossWeights(1, 1, 1)
        with pytest.raises(ValueError):
            TrainConfig(k=1, weights=w, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(k=1, weights=w, max_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(k=1, weights=w, parametrization="implicit")
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match="learning_rate must be a positive number"):
                TrainConfig(k=1, weights=w, learning_rate=bad)
            with pytest.raises(ValueError, match="convergence_tol must be a number >= 0"):
                TrainConfig(k=1, weights=w, convergence_tol=bad)

    @pytest.mark.parametrize("parametrization", ["implicit", ["logits"], None])
    def test_parametrization_must_be_a_known_name(self, parametrization):
        message = f"parametrization must be one of ['logits', 'direct'], got {parametrization!r}"
        for build in (lambda: TrainConfig(k=1, weights=LossWeights(1, 1, 1),
                                          parametrization=parametrization),
                      lambda: optim.Objective(np.full((2, 3), 0.5), np.full((2, 3), 0.5), 1,
                                              LossWeights(1, 1, 1), parametrization)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    @pytest.mark.parametrize("bad", [float("inf"), np.inf, 10**400])
    def test_non_finite_rejected(self, bad):
        w = LossWeights(1, 1, 1)
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(k=1, weights=w, learning_rate=bad)
        with pytest.raises(ValueError, match="convergence_tol must be finite"):
            TrainConfig(k=1, weights=w, convergence_tol=bad)


    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", True), ("k", 0), ("k", "2"), ("seed", 1.5), ("seed", True),
        ("seed", -1)])
    def test_k_and_seed_must_be_integers(self, field, value):
        # numpy's generators take no negative seed, so the setting refuses one
        settings = {"k": 2, "weights": LossWeights(1, 1, 1), field: value}
        phrase = "an integer >= 1" if field == "k" else "an integer >= 0"
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {phrase}, got {value!r}")):
            TrainConfig(**settings)

    def test_settings_held_as_their_types(self):
        config = TrainConfig(k=np.int64(2), weights=LossWeights(1, 1, 1), learning_rate=10,
                             max_steps=np.int64(5), convergence_tol=0, seed=np.int64(4),
                             scaling=Scaling("minibatch", b=np.int64(3)))
        assert [type(getattr(config, name)) for name in
                ("k", "learning_rate", "max_steps", "convergence_tol", "seed")] == [
            int, float, int, float, int]
        assert type(config.scaling.b) is int
        assert config == TrainConfig(k=2, weights=LossWeights(1.0, 1.0, 1.0), learning_rate=10.0,
                                     max_steps=5, convergence_tol=0.0, seed=4,
                                     scaling=Scaling("minibatch", b=3))


class TestFit:
    def test_utility_only_recovers_argmax(self):
        for seed in range(3):
            pair = random_pair(seed)
            cfg = TrainConfig(k=1, weights=LossWeights(0, 0, 1, 0), learning_rate=30.0,
                              max_steps=2000, seed=0)
            trace = fit(pair, cfg)
            np.testing.assert_array_equal(
                top_k(trace.final_policy.P, 1).C, top_k(pair.U, 1).C
            )

    def test_pure_inferiority_training_beats_naive_on_structured_users(self):
        from feir.baselines import naive
        from feir.datagen import GenSpec, generate
        from feir.metrics import system_metrics

        pair = generate(GenSpec(family="user_groups", seed=7))
        k = 10
        naive_inf = system_metrics(pair.U, pair.S, naive(pair, k)).inferiority
        cfg = TrainConfig(k=k, weights=LossWeights(0, 1, 0, 0), learning_rate=10.0,
                          max_steps=2000, seed=0)
        trace = fit(pair, cfg)
        trained = system_metrics(pair.U, pair.S, top_k(trace.final_policy.P, k))
        assert trained.inferiority < naive_inf

    def test_single_step(self):
        pair = random_pair(4)
        cfg = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), max_steps=1)
        trace = fit(pair, cfg)
        assert trace.step_count == 1 and len(trace.steps) == 1

    def test_k_out_of_range(self):
        pair = random_pair(4)
        with pytest.raises(ValueError):
            fit(pair, TrainConfig(k=9, weights=LossWeights(1, 1, 1)))

    def test_final_policy_is_row_stochastic(self):
        pair = random_pair(5)
        for parametrization, lr in (("logits", 10.0), ("direct", 0.01)):
            cfg = TrainConfig(
                k=2, weights=LossWeights(1, 1, 1, 1.0 if parametrization == "direct" else 0.0),
                learning_rate=lr, max_steps=100, parametrization=parametrization,
            )
            trace = fit(pair, cfg)
            assert isinstance(trace.final_policy, Policy)

    def test_policy_row_stochastic_throughout_logits_training(self):
        pair = random_pair(6)
        cfg = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), learning_rate=10.0,
                          max_steps=25, seed=0)
        # replay the update loop and check the implied policy at every step
        params = pair.U.copy()
        for step in range(cfg.max_steps):
            P = row_softmax(params)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
            view = make_training_view(pair, cfg.scaling, step, cfg.seed)
            _, G = optim.loss_and_grad(pair.U, pair.S, params, cfg.k, cfg.weights,
                                       cfg.parametrization, view)
            params = params - cfg.learning_rate * G

    def test_monotone_decrease_at_small_learning_rate(self):
        for seed in range(3):
            pair = random_pair(seed)
            cfg = TrainConfig(k=2, weights=LossWeights(0, 0, 1, 0), learning_rate=1e-3,
                              max_steps=300, convergence_tol=0.0, seed=0)
            trace = fit(pair, cfg)
            totals = [b.total for b in trace.steps]
            diffs = np.diff(totals)
            assert (diffs <= 1e-12).all()

    def test_determinism(self):
        pair = random_pair(8)
        cfg = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), learning_rate=5.0,
                          max_steps=60, scaling=Scaling(kind="user_sample", m_s=3), seed=17)
        a, b = fit(pair, cfg), fit(pair, cfg)
        assert losses_of(a) == losses_of(b)
        np.testing.assert_array_equal(a.final_policy.P, b.final_policy.P)

    def test_divergence_reports_step_and_term(self):
        # direct mode is unbounded; a large step pushes probabilities negative
        # and the k-th powers explode
        pair = random_pair(9)
        cfg = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0.5), learning_rate=5.0,
                          max_steps=500, parametrization="direct", seed=0)
        with pytest.raises(TrainingDiverged, match="at step"):
            fit(pair, cfg)

    def test_convergence_stops_early(self):
        pair = random_pair(10)
        cfg = TrainConfig(k=2, weights=LossWeights(0, 0, 1, 0), learning_rate=1e-6,
                          max_steps=2000, convergence_tol=1e-3, seed=0)
        trace = fit(pair, cfg)
        assert trace.step_count < 2000


class TestScalingEquivalence:
    def test_full_size_scalings_reproduce_none(self):
        pair = random_pair(12, 8, 6)
        base = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), learning_rate=5.0,
                           max_steps=80, convergence_tol=0.0, seed=23)
        reference = fit(pair, base)
        for scaling in (
            Scaling(kind="minibatch", b=8),
            Scaling(kind="user_sample", m_s=8),
            Scaling(kind="item_sample", n_s=6),
            Scaling(kind="user_item_sample", m_s=8, n_s=6),
        ):
            trace = fit(pair, replace(base, scaling=scaling))
            assert losses_of(trace) == losses_of(reference), scaling.kind
            np.testing.assert_array_equal(trace.final_policy.P, reference.final_policy.P)

    def test_minibatch_differs_when_partial(self):
        pair = random_pair(13, 8, 6)
        base = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), learning_rate=5.0,
                           max_steps=30, convergence_tol=0.0, seed=5)
        partial = fit(pair, replace(base, scaling=Scaling(kind="minibatch", b=3)))
        full = fit(pair, base)
        assert losses_of(partial) != losses_of(full)


class TestSharedOrder:
    """S is sorted once per fit wherever every step sees every user and item."""

    @pytest.mark.parametrize("scaling", [Scaling(), Scaling(kind="minibatch", b=2)])
    def test_one_sort_per_fit(self, order_builds, scaling):
        pair = random_pair(4, 6, 8)
        config = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), max_steps=30,
                             convergence_tol=0.0, scaling=scaling)
        assert fit(pair, config).step_count == 30
        assert order_builds == [(6, 8)]

    def test_sampled_views_sort_their_sub_instance(self, order_builds):
        pair = random_pair(4, 6, 8)
        config = TrainConfig(k=2, weights=LossWeights(1, 1, 1, 0), max_steps=5,
                             convergence_tol=0.0, scaling=Scaling(kind="user_sample", m_s=3))
        fit(pair, config)
        assert order_builds == [(3, 8)] * 5


class TestViewLossAndGradient:
    """The sliced/scattered view path against independent references."""

    def test_minibatch_inferiority_matches_pairwise_sum(self):
        from feir.losses import expected_pair_inferiority

        rng = np.random.default_rng(20)
        pair = random_pair(20, 7, 5)
        k = 2
        P = row_softmax(rng.normal(size=(7, 5)))
        Z = np.log(P)  # logits reproducing P exactly up to softmax
        view = make_training_view(pair, Scaling(kind="minibatch", b=3), step=4, seed=2)
        weights = LossWeights(0.0, 1.0, 0.0, 0.0)
        breakdown, _ = optim.loss_and_grad(pair.U, pair.S, Z, k, weights, "logits", view)
        P_actual = row_softmax(Z)
        expected = sum(
            expected_pair_inferiority(i, t, pair.S, P_actual, k)
            for i in view.f_rows
            for t in range(7)
            if t != i
        ) / 7
        assert breakdown.inferiority_loss == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "scaling",
        [
            Scaling(kind="minibatch", b=3),
            Scaling(kind="user_sample", m_s=4),
            Scaling(kind="item_sample", n_s=3),
            Scaling(kind="user_item_sample", m_s=4, n_s=3),
        ],
        ids=lambda s: s.kind,
    )
    def test_view_gradient_matches_finite_differences(self, scaling):
        from feir.losses import finite_diff_grad

        pair = random_pair(21, 7, 5)
        rng = np.random.default_rng(22)
        Z = rng.normal(size=(7, 5))
        k = 2
        weights = LossWeights(1.0, 1.0, 1.0, 0.0)
        view = make_training_view(pair, scaling, step=3, seed=11)

        def view_loss(params):
            breakdown, _ = optim.loss_and_grad(
                pair.U, pair.S, params, k, weights, "logits", view
            )
            return breakdown.total

        breakdown, analytic = optim.loss_and_grad(pair.U, pair.S, Z, k, weights, "logits", view)
        numeric = finite_diff_grad(view_loss, Z, 1e-5)
        scale = max(np.abs(numeric).max(), 1e-12)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3 * scale)
        assert float(rel.max()) < 1e-5
        # an objective sorts S once for its full views; a sampled view sorts its own
        objective = optim.Objective(pair.U, pair.S, k, weights, "logits")
        for _ in range(2):
            reused = objective(Z, view)
            assert reused[0] == breakdown
            np.testing.assert_array_equal(reused[1], analytic)


# every subset of the four weights set to 0 that leaves a valid LossWeights
# (one of w1, w2, w3 must stay positive)
ZEROED = [zeros for size in range(4) for zeros in combinations(range(4), size)
          if not {0, 1, 2} <= set(zeros)]

# each weight's term: the function that evaluates it and its LossBreakdown field
TERMS = [("_envy_loss_grad", "envy_loss"), ("_inferiority_loss_grad", "inferiority_loss"),
         ("_utility_loss_grad", "neg_utility_loss"), ("_penalty_loss_grad", "penalty_loss")]

# the points of the default grid where envy or inferiority is off
ZERO_WEIGHT_POINTS = [w for w in default_weight_grid() if w.w1 == 0 or w.w2 == 0]


def evaluated(weights, parametrization):
    """Whether `optim.Objective` evaluates each term of TERMS: a term whose
    weight is not 0, but never the logits penalty, which is 0.0."""
    return [weights.w1 != 0, weights.w2 != 0, weights.w3 != 0,
            parametrization == "direct" and weights.w4 != 0]


def weighted_only(expected, weights, parametrization="logits"):
    """The every-term oracle's breakdown as an objective that evaluates only
    the weighted terms reports it: None for each term whose weight is 0,
    except the logits penalty, which stays 0.0."""
    skipped = [field for (_, field), on in zip(TERMS, evaluated(weights, parametrization))
               if not on and (field != "penalty_loss" or parametrization == "direct")]
    return replace(expected, **dict.fromkeys(skipped))


@pytest.fixture
def term_calls(monkeypatch):
    """A dict counting the calls of each term's function through `optim`."""
    calls = {name: 0 for name, _ in TERMS}
    for name in calls:
        real = getattr(optim, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(optim, name, counting)
    return calls


def every_term_descent(scores, config):
    """`fit`'s descent run on the every-term oracle: its breakdowns, and the
    final policy or the divergence message of the first non-finite field."""
    logits = config.parametrization == "logits"
    params = scores.U.copy() if logits else row_softmax(scores.U)
    steps = []
    for step in range(config.max_steps):
        with np.errstate(over="ignore", invalid="ignore"):  # as in optim.Objective
            breakdown, G = oracles.loss_and_grad_every_term(
                scores.U, scores.S, params, config.k, config.weights, config.parametrization)
        for name, value in breakdown.as_dict().items():
            if not np.isfinite(value):
                return steps, None, (name, f"{name} became {value} at step {step}")
        steps.append(breakdown)
        params = params - config.learning_rate * G
        if optim._converged(steps, config.convergence_tol):
            break
    return steps, (row_softmax(params) if logits else optim._project_rows(params)), None


class TestZeroWeightTerms:
    """A term whose weight is 0 is not evaluated: its function is never
    called and its field is None, while the total, every computed field and
    the gradient are the every-term assembly's, bit for bit."""

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    @pytest.mark.parametrize(
        "scaling",
        [
            Scaling(),
            Scaling(kind="minibatch", b=3),
            Scaling(kind="user_sample", m_s=4),
            Scaling(kind="item_sample", n_s=3),
        ],
        ids=lambda s: s.kind,
    )
    def test_matches_every_term_assembly(self, term_calls, scaling, parametrization):
        pair = random_pair(23, 7, 5)
        rng = np.random.default_rng(24)
        k = 2
        view = make_training_view(pair, scaling, step=3, seed=11)
        for zeros in ZEROED:
            base = [0.5, 2.0, 1.5, 0.7]
            weights = LossWeights(*(0.0 if i in zeros else w for i, w in enumerate(base)))
            # logits, or an off-simplex policy so that the penalty is active
            params = (rng.normal(size=(7, 5)) if parametrization == "logits"
                      else rng.uniform(0.1, 0.9, (7, 5)))
            breakdown, G = oracles.loss_and_grad_every_term(
                pair.U, pair.S, params, k, weights, parametrization, view)
            expected = weighted_only(breakdown, weights, parametrization)
            for name in term_calls:
                term_calls[name] = 0
            got = optim.loss_and_grad(pair.U, pair.S, params, k, weights, parametrization,
                                      view)
            assert got[0] == expected, zeros
            assert np.array_equal(got[1], G), zeros
            # an objective reused across steps recomputes its gradient,
            # whatever its caller did to the last one
            objective = optim.Objective(pair.U, pair.S, k, weights, parametrization)
            for _ in range(2):
                breakdown, G_again = objective(params, view)
                assert breakdown == expected, zeros
                assert np.array_equal(G_again, G), zeros
                G_again *= 2.0
            # each weighted term is evaluated once per call, and no other term
            assert [term_calls[name] for name, _ in TERMS] == [
                3 * on for on in evaluated(weights, parametrization)], zeros

    @pytest.mark.parametrize("weights, term, loss", [
        ((1.0, 0.0, 1.0, 0.0), "_inferiority_loss_grad", "inferiority_loss"),
        ((0.0, 1.0, 1.0, 0.0), "_envy_loss_grad", "envy_loss"),
    ], ids=["w2_zero", "w1_zero"])
    def test_fit_makes_no_gradient_pass_for_a_zero_weight(self, term_calls, order_builds,
                                                          weights, term, loss):
        pair = random_pair(25, 6, 8)
        config = TrainConfig(k=2, weights=LossWeights(*weights), max_steps=25,
                             convergence_tol=0.0)
        trace = fit(pair, config)
        assert term_calls[term] == 0
        assert all(getattr(b, loss) is None for b in trace.steps)
        # S is sorted only for a fit that weighs inferiority
        assert order_builds == ([] if term == "_inferiority_loss_grad" else [(6, 8)])
        params = pair.U.copy()
        for breakdown in trace.steps:
            expected, G = oracles.loss_and_grad_every_term(
                pair.U, pair.S, params, config.k, config.weights)
            assert breakdown == weighted_only(expected, config.weights)
            params = params - config.learning_rate * G
        assert np.array_equal(trace.final_policy.P, row_softmax(params))

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    @pytest.mark.parametrize("weights", ZERO_WEIGHT_POINTS,
                             ids=lambda w: f"w1={w.w1:g}-w2={w.w2:g}")
    def test_zero_weight_grid_points_match_every_term_descent(self, weights, parametrization):
        pair = generate(GenSpec("user_groups", 8, 20, seed=3))
        config = TrainConfig(k=3, weights=weights, max_steps=50,
                             parametrization=parametrization)
        steps, P, diverged = every_term_descent(pair, config)
        if diverged is None:
            trace = fit(pair, config)
            assert trace.step_count == len(steps)
            assert [b.total for b in trace.steps] == [b.total for b in steps]
            assert trace.steps == [weighted_only(b, weights, parametrization) for b in steps]
            assert np.array_equal(trace.final_policy.P, P)
            return
        # a direct fit whose weighted inferiority explodes stops where the
        # every-term descent does, naming the same term
        name, message = diverged
        assert parametrization == "direct" and name == "inferiority_loss" and weights.w2 != 0
        with pytest.raises(TrainingDiverged) as err:
            fit(pair, config)
        assert str(err.value) == message


class TestHeldBuffers:
    """A step on a view over every user and item writes into the objective's
    held buffers and `fit` updates the parameters in place; neither moves a
    bit of the descent."""

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    @pytest.mark.parametrize("scaling", [Scaling(), Scaling(kind="minibatch", b=3)],
                             ids=lambda s: s.kind)
    @pytest.mark.parametrize("weights", [(0.3, 3.0, 1.5, 0.5), (0.0, 3.0, 1.5, 0.5),
                                         (0.3, 0.0, 1.5, 0.5)],
                             ids=["all", "w1_zero", "w2_zero"])
    def test_fit_equals_fresh_calls(self, parametrization, scaling, weights):
        pair = generate(GenSpec("user_groups", 8, 20, seed=5))
        # direct steps need a small rate to stay finite
        rate = 0.7 if parametrization == "logits" else 0.005
        config = TrainConfig(k=3, weights=LossWeights(*weights), learning_rate=rate,
                             max_steps=60, convergence_tol=0.0,
                             parametrization=parametrization, scaling=scaling, seed=2)
        trace = fit(pair, config)
        assert trace.step_count == 60
        logits = parametrization == "logits"
        params = pair.U.copy() if logits else row_softmax(pair.U)
        for step, breakdown in enumerate(trace.steps):
            view = make_training_view(pair, scaling, step, config.seed)
            expected, G = optim.loss_and_grad(pair.U, pair.S, params, config.k,
                                              config.weights, parametrization, view)
            # the kernels' allocating assembly, as the step was before it held buffers
            oracle, G_oracle = oracles.loss_and_grad_every_term(
                pair.U, pair.S, params, config.k, config.weights, parametrization, view)
            assert breakdown == expected == weighted_only(oracle, config.weights,
                                                          parametrization), step
            assert np.array_equal(G, G_oracle), step
            params = params - config.learning_rate * G
        P = row_softmax(params) if logits else optim._project_rows(params)
        assert trace.final_policy.P.tobytes() == P.tobytes()

    @pytest.mark.parametrize("parametrization", ["logits", "direct"])
    @pytest.mark.parametrize("scaling", [Scaling(), Scaling(kind="minibatch", b=20)],
                             ids=lambda s: s.kind)
    def test_warm_step_allocates_less_than_one_array(self, parametrization, scaling):
        m, n = 200, 500
        pair = generate(GenSpec("user_groups", m, n, seed=1))
        objective = optim.Objective(pair.U, pair.S, 10, LossWeights(1, 3, 1), parametrization)
        params = pair.U.copy() if parametrization == "logits" else row_softmax(pair.U)
        view = make_training_view(pair, scaling, 0, seed=3)
        objective(params, view)  # sorts S and allocates the order's workspace
        tracemalloc.start()
        try:
            objective(params, view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n

    def test_gradients_and_their_aliasing(self):
        pair = random_pair(30, 6, 9)
        weights = LossWeights(1, 2, 1)
        params = np.random.default_rng(31).normal(size=(6, 9))
        first = optim.loss_and_grad(pair.U, pair.S, params, 2, weights)[1]
        second = optim.loss_and_grad(pair.U, pair.S, params, 2, weights)[1]
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        # an objective's full-view gradient is its held buffer, which its next
        # call overwrites; it never aliases the parameters
        objective = optim.Objective(pair.U, pair.S, 2, weights)
        G = objective(params)[1]
        assert not np.shares_memory(G, params)
        assert np.array_equal(G, first)
        again = objective(params + 1.0)[1]
        assert again is G
        assert not np.array_equal(G, first)


def sweep_rows(tmp_path, dataset, grid, k, **feir_cfg):
    """solutions.csv rows of a FEIR-only `feir run` over a weight grid."""
    config = {
        "seed": 5,
        "dataset": dataset,
        "ks": [k],
        "methods": {"feir": {"weight_grid": grid, **feir_cfg}},
    }
    with open(cmd_run(config, tmp_path / "out")) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    """The FEIR weight sweep of `feir run`: one fit per grid point."""

    def test_singleton_grid_matches_fit(self, tmp_path):
        spec = {"family": "random", "m": 5, "n": 8, "seed": 14}
        scaling = {"kind": "user_sample", "m_s": 3}  # the fit depends on its seed
        rows = sweep_rows(tmp_path, spec, [[1, 1, 1, 0]], 2, learning_rate=10.0,
                          max_steps=200, scaling=scaling)
        assert len(rows) == 1 and rows[0]["status"] == "ok"

        weights = LossWeights(1, 1, 1, 0)
        params = {"w1": 1.0, "w2": 1.0, "w3": 1.0, "w4": 0.0}  # weights are read as floats
        seed = derive_seed(5, "feir", params, 2)
        pair = generate(GenSpec(**spec))
        config = TrainConfig(k=2, weights=weights, learning_rate=10.0, max_steps=200,
                             scaling=Scaling(**scaling), seed=seed)
        counts = top_k(fit(pair, config).final_policy.P, 2)
        naive_sys = system_metrics(pair.U, pair.S, top_k(pair.U, 2))
        point = make_solution("feir", params, 2, seed, pair, counts, naive_sys)
        assert rows[0]["seed"] == str(seed)
        for name in feir.cli.METRIC_COLUMNS:  # solutions.csv keeps 12 significant digits
            assert rows[0][name] == format(point.metric(name), ".12g")

    def test_utility_anchor_dominates_utility_axis(self, tmp_path):
        spec = {"family": "random", "m": 5, "n": 8, "seed": 16}
        grid = [[0, 0, 1, 0], [1, 1, 1, 0], [3, 3, 1, 0]]
        rows = sweep_rows(tmp_path, spec, grid, 2, learning_rate=10.0, max_steps=1000)
        assert len(rows) == 3
        anchor = next(float(r["utility_norm"]) for r in rows if r["w1"] == r["w2"] == "0")
        assert all(anchor >= float(r["utility_norm"]) - 1e-12 for r in rows)

    def test_failures_recorded_not_raised(self, tmp_path, monkeypatch):
        real_fit = feir.cli.fit

        def flaky_fit(scores, config):
            if config.weights.w1 == 3.0:
                raise TrainingDiverged("synthetic failure")
            return real_fit(scores, config)

        monkeypatch.setattr(feir.cli, "fit", flaky_fit)
        spec = {"family": "random", "m": 5, "n": 8, "seed": 17}
        rows = sweep_rows(tmp_path, spec, [[1, 1, 1, 0], [3, 1, 1, 0]], 2, max_steps=10)
        by_w1 = {r["w1"]: r for r in rows}
        assert by_w1["1"]["status"] == "ok"
        assert by_w1["3"]["status"] == "error: synthetic failure"
        assert by_w1["3"]["utility"] == ""


def test_default_weight_grid_shape():
    grid = default_weight_grid()
    assert len(grid) == 36
    assert all(w.w3 == 1.0 and w.w4 == 0.0 for w in grid)
    assert any(w.w1 == 0.0 and w.w2 == 0.0 for w in grid)

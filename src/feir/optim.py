"""Gradient-descent post-processing of a score matrix against the combined
envy/inferiority/utility loss (`loss_and_grad`), with the four large-scale
training views (mini-batching, user sampling, item sampling, user-item
sampling) and the default weight grid that traces out the trade-off.

Training is deterministic: every random choice derives from the config seed,
and the none/minibatch(b=m)/user_sample(m_s=m)/item_sample(n_s=n) code paths
are arranged to produce bit-identical traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import DimensionError, Policy, ScorePair, row_softmax
from .losses import (
    LossBreakdown,
    LossWeights,
    SuitabilityOrder,
    _envy_loss_grad,
    _inferiority_loss_grad,
    _penalty_loss_grad,
    _utility_loss_grad,
    softmax_grad_chain,
)

CONVERGENCE_WINDOW = 10

SCALING_KINDS = ("none", "minibatch", "user_sample", "item_sample", "user_item_sample")

PARAMETRIZATIONS = ("logits", "direct")


class TrainingDiverged(RuntimeError):
    """Raised when a loss term goes non-finite during training."""


@dataclass(frozen=True)
class Scaling:
    """Which slice of the loss each training step sees.

    kind "none" uses the full instance. "minibatch" restricts the outgoing
    side of the inferiority pair sum to b users per step (everything else
    stays global); the batches partition the users anew each epoch.
    "user_sample"/"item_sample"/"user_item_sample" restrict every loss term to
    a fresh random subset each step.
    """

    kind: str = "none"
    b: int | None = None
    m_s: int | None = None
    n_s: int | None = None

    def __post_init__(self):
        if self.kind not in SCALING_KINDS:
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        needs = {
            "none": (),
            "minibatch": ("b",),
            "user_sample": ("m_s",),
            "item_sample": ("n_s",),
            "user_item_sample": ("m_s", "n_s"),
        }[self.kind]
        for name in needs:
            value = getattr(self, name)
            if value is None or value < 1:
                raise ValueError(f"scaling {self.kind!r} requires {name} >= 1")

    def validate_dims(self, m: int, n: int) -> None:
        if self.b is not None and self.b > m:
            raise ValueError(f"batch size b={self.b} exceeds m={m}")
        if self.m_s is not None and self.m_s > m:
            raise ValueError(f"user sample m_s={self.m_s} exceeds m={m}")
        if self.n_s is not None and self.n_s > n:
            raise ValueError(f"item sample n_s={self.n_s} exceeds n={n}")


@dataclass(frozen=True)
class TrainingView:
    """Index sets one step trains on. `users`/`items` (sorted, distinct)
    select the sub-instance for the global loss terms; `f_rows` (indices into the sliced user axis)
    selects whose outgoing inferiority is counted; `item_scale` rescales
    item-sampled losses back to full-instance magnitude."""

    users: np.ndarray
    items: np.ndarray
    f_rows: np.ndarray
    scope: str
    item_scale: float = 1.0


def _full_view(m: int, n: int) -> TrainingView:
    everyone = np.arange(m)
    return TrainingView(everyone, np.arange(n), everyone, "global")


def _view_index(view: TrainingView, m: int, n: int) -> tuple:
    """Index of the view's sub-instance. An axis the view covers whole is a
    plain slice, so it is read in place and written back as one block; only
    sampled axes are gathered."""
    rows = slice(None) if view.users.size == m else view.users
    cols = slice(None) if view.items.size == n else view.items
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


def make_training_view(scores: ScorePair, scaling: Scaling, step: int, seed: int) -> TrainingView:
    """Resolve the user/item index sets for one training step.

    Subsets are resampled every step; mini-batches walk a per-epoch random
    partition of the users (floor(m/b) batches of exactly b, remainder users
    sitting the epoch out). Index sets come out sorted, which keeps the
    degenerate full-size settings byte-identical to scaling "none".
    """
    m, n = scores.m, scores.n
    scaling.validate_dims(m, n)
    if scaling.kind == "none":
        return _full_view(m, n)
    all_users = np.arange(m)
    all_items = np.arange(n)
    if scaling.kind == "minibatch":
        n_batches = m // scaling.b
        epoch, idx = divmod(step, n_batches)
        perm = np.random.default_rng([seed, 1, epoch]).permutation(m)
        batch = np.sort(perm[idx * scaling.b : (idx + 1) * scaling.b])
        return TrainingView(all_users, all_items, batch, "inferiority_batch")
    rng = np.random.default_rng([seed, 2, step])
    if scaling.kind == "user_sample":
        users = np.sort(rng.choice(m, size=scaling.m_s, replace=False))
        return TrainingView(users, all_items, np.arange(scaling.m_s), "subset")
    if scaling.kind == "item_sample":
        items = np.sort(rng.choice(n, size=scaling.n_s, replace=False))
        return TrainingView(all_users, items, all_users, "subset", item_scale=n / scaling.n_s)
    users = np.sort(rng.choice(m, size=scaling.m_s, replace=False))
    items = np.sort(rng.choice(n, size=scaling.n_s, replace=False))
    return TrainingView(users, items, np.arange(scaling.m_s), "subset", item_scale=n / scaling.n_s)


@dataclass(frozen=True)
class TrainConfig:
    k: int
    weights: LossWeights
    learning_rate: float = 10.0
    max_steps: int = 2000
    convergence_tol: float = 1e-6
    parametrization: str = "logits"
    scaling: Scaling = field(default_factory=Scaling)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")
        if self.parametrization not in PARAMETRIZATIONS:
            raise ValueError(f"unknown parametrization {self.parametrization!r}")


@dataclass
class TrainTrace:
    steps: list[LossBreakdown]
    final_policy: Policy
    step_count: int
    wall_time: float

    def losses_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,envy_loss,inferiority_loss,neg_utility_loss,penalty_loss,total\n")
            for t, b in enumerate(self.steps):
                fh.write(
                    f"{t},{b.envy_loss:.17g},{b.inferiority_loss:.17g},"
                    f"{b.neg_utility_loss:.17g},{b.penalty_loss:.17g},{b.total:.17g}\n"
                )


@np.errstate(over="ignore", invalid="ignore")  # divergence surfaces via _check_finite
def loss_and_grad(U, S, params, k: int, weights: LossWeights, parametrization: str = "logits",
                  view: TrainingView | None = None,
                  order: SuitabilityOrder | None = None) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted combined loss at the parameters, and its analytic gradient
    w.r.t. them.

    "logits": params are unconstrained row scores, P = row_softmax(params),
    and the penalty is 0 because the softmax keeps rows stochastic.
    "direct": params is the probability matrix itself and the simplex penalty
    is active. The envy hinge uses subgradient 0 at the kink. The terms are
    evaluated on `view` (default: the full instance) and scattered back into
    a full-size gradient. `order` is S's SuitabilityOrder, which a view over
    every user and item reuses (None builds it); a sampled view builds the
    order of its sub-instance.
    """
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    params = np.asarray(params, dtype=float)
    if U.shape != S.shape or U.shape != params.shape:
        raise DimensionError(f"shape mismatch: U {U.shape}, S {S.shape}, params {params.shape}")
    if parametrization not in PARAMETRIZATIONS:
        raise ValueError(f"unknown parametrization {parametrization!r}")
    if view is None:
        view = _full_view(*U.shape)
    P = row_softmax(params) if parametrization == "logits" else params
    sel = _view_index(view, *U.shape)
    Uv, Sv, Pv = U[sel], S[sel], P[sel]
    mv = view.users.size
    l_u, g_u = _utility_loss_grad(Uv, Pv, k, mv)
    l_e, g_e = _envy_loss_grad(Uv, Pv, k, mv)
    if mv != U.shape[0] or view.items.size != U.shape[1]:
        order = None
    l_f, g_f = _inferiority_loss_grad(Sv, Pv, k, view.f_rows, mv, order=order)
    scale = view.item_scale
    l_u, l_e, l_f = l_u * scale, l_e * scale, l_f * scale
    G = np.zeros_like(P)
    G[sel] = (weights.w1 * g_e + weights.w2 * g_f + weights.w3 * g_u) * scale
    if parametrization == "direct":
        l_p, g_p = _penalty_loss_grad(P)
        G = G + weights.w4 * g_p
    else:
        l_p = 0.0
        G = softmax_grad_chain(P, G)
    total = weights.w1 * l_e + weights.w2 * l_f + weights.w3 * l_u + weights.w4 * l_p
    breakdown = LossBreakdown(
        envy_loss=l_e,
        inferiority_loss=l_f,
        neg_utility_loss=l_u,
        penalty_loss=l_p,
        total=total,
    )
    return breakdown, G


def _check_finite(breakdown: LossBreakdown, step: int) -> None:
    for name, value in breakdown.as_dict().items():
        if not np.isfinite(value):
            raise TrainingDiverged(f"{name} became {value} at step {step}")


def _converged(totals: list[float], tol: float) -> bool:
    if len(totals) < CONVERGENCE_WINDOW + 1:
        return False
    prev = totals[-1 - CONVERGENCE_WINDOW]
    return abs(totals[-1] - prev) / max(abs(prev), 1e-12) < tol


def _project_rows(P: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize rows; all-zero rows fall back to uniform."""
    Pc = np.clip(P, 0.0, None)
    sums = Pc.sum(axis=1, keepdims=True)
    n = P.shape[1]
    uniform = np.full_like(P, 1.0 / n)
    return np.where(sums > 0.0, Pc / np.where(sums > 0.0, sums, 1.0), uniform)


def fit(scores: ScorePair, config: TrainConfig) -> TrainTrace:
    """Optimize the policy by plain gradient descent on the combined loss.

    Logits mode starts from Z = the upstream scores, so the initial policy is
    their row softmax; direct mode starts from that softmax itself. Stops when
    the relative total-loss change over a 10-step window drops below
    convergence_tol, or at max_steps.
    """
    U, S = scores.U, scores.S
    m, n = scores.m, scores.n
    if not (1 <= config.k <= n):
        raise ValueError(f"k={config.k} outside [1, {n}]")
    config.scaling.validate_dims(m, n)
    logits_mode = config.parametrization == "logits"
    params = U.copy() if logits_mode else row_softmax(U)

    breakdowns: list[LossBreakdown] = []
    totals: list[float] = []
    start = time.perf_counter()
    # S is fixed, so the views over every user and item share one sort of it
    order = SuitabilityOrder(S) if config.scaling.kind in ("none", "minibatch") else None
    for step in range(config.max_steps):
        view = make_training_view(scores, config.scaling, step, config.seed)
        breakdown, G = loss_and_grad(
            U, S, params, config.k, config.weights, config.parametrization, view, order
        )
        _check_finite(breakdown, step)
        breakdowns.append(breakdown)
        totals.append(breakdown.total)
        params = params - config.learning_rate * G
        if _converged(totals, config.convergence_tol):
            break
    wall = time.perf_counter() - start

    P_final = row_softmax(params) if logits_mode else _project_rows(params)
    policy = Policy(P=P_final, k=config.k)
    return TrainTrace(
        steps=breakdowns,
        final_policy=policy,
        step_count=len(breakdowns),
        wall_time=wall,
    )


def default_weight_grid() -> list[LossWeights]:
    """Log-spaced envy/inferiority weights around a fixed utility anchor."""
    levels = (0.0, 0.1, 0.3, 1.0, 3.0, 10.0)
    return [LossWeights(w1, w2, 1.0, 0.0) for w1 in levels for w2 in levels]

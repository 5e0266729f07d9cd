"""Gradient-descent post-processing of a score matrix against the combined
envy/inferiority/utility loss (`loss_and_grad`), with the four large-scale
training views (mini-batching, user sampling, item sampling, user-item
sampling) and the default weight grid that traces out the trade-off.

Training is deterministic: every random choice derives from the config seed,
and the none/minibatch(b=m)/user_sample(m_s=m)/item_sample(n_s=n) code paths
are arranged to produce bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (AT_LEAST_ZERO, COUNT, NON_NEGATIVE, POSITIVE, DimensionError, Policy, ScorePair,
                   check_settings, checked, one_of, row_softmax, setting)
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

# Each scaling kind and the sizes it requires.
SCALING_KINDS = {
    "none": (),
    "minibatch": ("b",),
    "user_sample": ("m_s",),
    "item_sample": ("n_s",),
    "user_item_sample": ("m_s", "n_s"),
}

SCALING_KIND = one_of(SCALING_KINDS)
PARAMETRIZATION = one_of(("logits", "direct"))


class TrainingDiverged(RuntimeError):
    """Raised when a loss term goes non-finite during training."""


@dataclass(frozen=True)
class Scaling:
    """Which slice of the loss each training step sees.

    kind "none" uses the full instance. "minibatch" restricts the outgoing
    side of the inferiority pair sum to b users per step (everything else
    stays global); the batches partition the users anew each epoch.
    "user_sample"/"item_sample"/"user_item_sample" restrict every loss term to
    a fresh random subset each step. A size that its kind does not read (see
    SCALING_KINDS) must be left None.
    """

    kind: str = setting(SCALING_KIND, "none")
    b: int | None = None
    m_s: int | None = None
    n_s: int | None = None

    def __post_init__(self):
        check_settings(self, prefix="scaling ")
        reads = SCALING_KINDS[self.kind]
        for name in ("b", "m_s", "n_s"):
            value = getattr(self, name)
            if name in reads:
                value = checked(COUNT, f"scaling {self.kind!r} {name}", value)
                object.__setattr__(self, name, value)
            elif value is not None:
                raise ValueError(f"scaling {self.kind!r} does not read {name}, got {value!r}")

    def validate_dims(self, m: int, n: int) -> None:
        """Reject a size this kind reads that exceeds the instance."""
        limits = {"b": ("batch size", "m", m), "m_s": ("user sample", "m", m),
                  "n_s": ("item sample", "n", n)}
        for name in SCALING_KINDS[self.kind]:
            what, dim, limit = limits[name]
            value = getattr(self, name)
            if value > limit:
                raise ValueError(f"{what} {name}={value} exceeds {dim}={limit}")


@dataclass(frozen=True)
class TrainingView:
    """Index sets one step trains on. `users`/`items` (sorted, distinct)
    select the sub-instance for the global loss terms; `f_rows` (indices into the sliced user axis)
    selects whose outgoing inferiority is counted; `item_scale` rescales
    item-sampled losses back to full-instance magnitude."""

    users: np.ndarray
    items: np.ndarray
    f_rows: np.ndarray
    item_scale: float = 1.0


def _full_view(m: int, n: int) -> TrainingView:
    everyone = np.arange(m)
    return TrainingView(everyone, np.arange(n), everyone)


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
    if scaling.kind == "minibatch":
        n_batches = m // scaling.b
        epoch, idx = divmod(step, n_batches)
        perm = np.random.default_rng([seed, 1, epoch]).permutation(m)
        batch = np.sort(perm[idx * scaling.b : (idx + 1) * scaling.b])
        return TrainingView(np.arange(m), np.arange(n), batch)
    # the sampled kinds draw users, then items, from one stream, each only
    # when SCALING_KINDS lists its size for this kind
    rng = np.random.default_rng([seed, 2, step])
    sizes = SCALING_KINDS[scaling.kind]
    users, items = np.arange(m), np.arange(n)
    if "m_s" in sizes:
        users = np.sort(rng.choice(m, size=scaling.m_s, replace=False))
    if "n_s" in sizes:
        items = np.sort(rng.choice(n, size=scaling.n_s, replace=False))
    return TrainingView(users, items, np.arange(users.size), item_scale=n / items.size)


@dataclass(frozen=True)
class TrainConfig:
    k: int = setting(COUNT)
    weights: LossWeights
    learning_rate: float = setting(POSITIVE, 10.0)
    max_steps: int = setting(COUNT, 2000)
    convergence_tol: float = setting(NON_NEGATIVE, 1e-6)
    parametrization: str = setting(PARAMETRIZATION, "logits")
    scaling: Scaling = field(default_factory=Scaling)
    seed: int = setting(AT_LEAST_ZERO, 0)

    __post_init__ = check_settings


@dataclass
class TrainTrace:
    steps: list[LossBreakdown]
    final_policy: Policy

    @property
    def step_count(self) -> int:
        return len(self.steps)


class Objective:
    """The weighted combined loss on one instance and its analytic gradient
    w.r.t. the parameters (see `loss_and_grad`), built once per fit.

    It checks U, S and the parametrization once and holds what no step
    changes: the full view, the weighted utility gradient of a view over
    every user and item, and S's order: `order` when the caller holds one
    (`fit` passes its pair's), else sorted on the first step that evaluates
    inferiority on a view covering every user and item (a sampled view sorts
    its sub-instance). It also holds the step's m x n buffers, which every
    step writes into: P (logits only), the gradient, one scratch array and,
    from that first step, the inferiority kernel's workspace. So the
    gradient a call returns may be overwritten by the next call (copy it to
    keep it), and one objective must not run two calls at once; objectives
    that share an order share none of these.

    A term whose weight is 0 is not evaluated at all: no loss, no gradient,
    and its LossBreakdown field is None; with w2 = 0, S is never sorted.
    Leaving a 0 * x term out of a sum changes no bit of a non-zero total or
    of the gradient (up to the sign of a zero), so the total, the gradient
    and every computed field equal those of the sum over every term.
    """

    def __init__(self, U, S, k: int, weights: LossWeights, parametrization: str = "logits", *,
                 order: SuitabilityOrder | None = None):
        U = np.asarray(U, dtype=float)
        S = np.asarray(S, dtype=float)
        if U.shape != S.shape:
            raise DimensionError(f"shape mismatch: U {U.shape}, S {S.shape}")
        self.U, self.S, self.k, self.weights = U, S, k, weights
        if order is not None:  # fills the cached property below
            self.order = order
        self.logits = checked(PARAMETRIZATION, "parametrization", parametrization) == "logits"
        self._full = _full_view(*U.shape)
        # w3 times the utility gradient -(k/m) U, which does not depend on P
        self._utility_grad = weights.w3 * (-(k / U.shape[0]) * U)
        self._P = np.empty(U.shape) if self.logits else None
        self._G, self._scratch = np.empty(U.shape), np.empty(U.shape)

    @cached_property
    def order(self) -> SuitabilityOrder:
        return SuitabilityOrder(self.S)

    @cached_property
    def _workspace(self) -> tuple:
        return self.order._workspace()

    @np.errstate(over="ignore", invalid="ignore")  # divergence surfaces via _check_finite
    def __call__(self, params: np.ndarray,
                 view: TrainingView | None = None) -> tuple[LossBreakdown, np.ndarray]:
        """The LossBreakdown and gradient at `params` (float, U's shape) on
        `view` (default: the full instance)."""
        w, k = self.weights, self.k
        m, n = self.U.shape
        view = self._full if view is None else view
        P = row_softmax(params, out=self._P) if self.logits else params
        mv = view.users.size
        whole = mv == m and view.items.size == n
        # a view over every user and item writes the weighted terms into the
        # held gradient, the first directly and each later one through the
        # scratch array; a sampled view's terms allocate their own
        if whole:
            sel, Uv, Sv, Pv = None, self.U, self.S, P
            G, scratch = self._G, self._scratch
        else:
            sel = _view_index(view, m, n)
            Uv, Sv, Pv = self.U[sel], self.S[sel], P[sel]
            G = scratch = None
        # only the weighted terms are evaluated; grad is w1 g_e + w2 g_f + w3 g_u,
        # left to right over them
        l_e = l_f = l_u = grad = None
        if w.w1:
            l_e, grad = _envy_loss_grad(Uv, Pv, k, mv, out=G, scratch=scratch)
            if w.w1 != 1.0:  # x * 1.0 is x for every float
                grad *= w.w1
        if w.w2:
            # a sampled view sorts its sub-instance into a fresh workspace
            order, workspace = (self.order, self._workspace) if whole else (None, None)
            l_f, g_f = _inferiority_loss_grad(Sv, Pv, k, view.f_rows, mv, order=order,
                                              out=G if grad is None else scratch,
                                              workspace=workspace)
            if w.w2 != 1.0:
                g_f *= w.w2
            if grad is None:
                grad = g_f
            else:
                grad += g_f
        if w.w3:
            l_u, g_u = _utility_loss_grad(Uv, Pv, k, mv, with_grad=not whole, scratch=scratch)
            if whole:
                g_u = self._utility_grad
            else:
                g_u *= w.w3
            if grad is not None:
                grad += g_u
            elif G is None:
                grad = g_u
            else:  # copied: the held utility gradient is never handed out
                np.copyto(G, g_u)
                grad = G
        scale = view.item_scale
        if scale != 1.0:
            l_e, l_f, l_u = (None if loss is None else loss * scale for loss in (l_e, l_f, l_u))
            grad *= scale
        if sel is not None:
            G = np.zeros_like(P)
            G[sel] = grad
            grad = G
        l_p = None
        if self.logits:
            l_p = 0.0  # the softmax keeps every row stochastic
            grad = softmax_grad_chain(P, grad)
        elif w.w4:
            l_p, g_p = _penalty_loss_grad(P)
            g_p *= w.w4
            grad += g_p
        terms = ((w.w1, l_e), (w.w2, l_f), (w.w3, l_u), (w.w4, l_p))
        total = sum(weight * loss for weight, loss in terms if weight)
        breakdown = LossBreakdown(
            envy_loss=l_e,
            inferiority_loss=l_f,
            neg_utility_loss=l_u,
            penalty_loss=l_p,
            total=total,
        )
        return breakdown, grad


def loss_and_grad(U, S, params, k: int, weights: LossWeights, parametrization: str = "logits",
                  view: TrainingView | None = None) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted combined loss at the parameters, and its analytic gradient
    w.r.t. them: one call of a fresh `Objective`, which leaves every term
    whose weight is 0 unevaluated.

    "logits": params are unconstrained row scores, P = row_softmax(params),
    and the penalty is 0 because the softmax keeps rows stochastic.
    "direct": params is the probability matrix itself and the simplex penalty
    is active. The envy hinge uses subgradient 0 at the kink. The terms are
    evaluated on `view` (default: the full instance) and scattered back into
    a full-size gradient.
    """
    objective = Objective(U, S, k, weights, parametrization)
    params = np.asarray(params, dtype=float)
    if params.shape != objective.U.shape:
        raise DimensionError(f"shape mismatch: U {objective.U.shape}, params {params.shape}")
    return objective(params, view)


def _check_finite(breakdown: LossBreakdown, step: int) -> None:
    # each computed term enters the total times a finite weight > 0, so a
    # non-finite term makes the total non-finite; name the first such term
    if math.isfinite(breakdown.total):
        return
    for name, value in breakdown.as_dict().items():
        if value is not None and not math.isfinite(value):
            raise TrainingDiverged(f"{name} became {value} at step {step}")


def _converged(steps: list[LossBreakdown], tol: float) -> bool:
    if len(steps) < CONVERGENCE_WINDOW + 1:
        return False
    prev = steps[-1 - CONVERGENCE_WINDOW].total
    return abs(steps[-1].total - prev) / max(abs(prev), 1e-12) < tol


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
    convergence_tol, or at max_steps. Fits on one pair may run at once: what
    they share of it (S's sort) none of them writes to.
    """
    U, S, n = scores.U, scores.S, scores.n
    if not (1 <= config.k <= n):
        raise ValueError(f"k={config.k} outside [1, {n}]")
    # Every view of these kinds covers every user and item, so a fit that
    # weighs inferiority trains on the pair's order. The first such fit
    # builds it here, before the fit allocates: arrays held past the fit but
    # made after its buffers would keep the heap from shrinking when those
    # are freed. The index of users that a minibatch reads is held too.
    order = None
    if config.weights.w2 and config.scaling.kind in ("none", "minibatch"):
        order = scores._order
        if config.scaling.kind == "minibatch":
            order._users
    objective = Objective(U, S, config.k, config.weights, config.parametrization, order=order)
    params = U.copy() if objective.logits else row_softmax(U)

    breakdowns: list[LossBreakdown] = []
    for step in range(config.max_steps):
        # with scaling "none" every step takes the objective's full view
        view = None if config.scaling.kind == "none" else make_training_view(
            scores, config.scaling, step, config.seed)
        breakdown, G = objective(params, view)
        _check_finite(breakdown, step)
        breakdowns.append(breakdown)
        G *= config.learning_rate
        params -= G
        if _converged(breakdowns, config.convergence_tol):
            break

    P_final = row_softmax(params) if objective.logits else _project_rows(params)
    return TrainTrace(steps=breakdowns, final_policy=Policy(P=P_final))


def default_weight_grid() -> list[LossWeights]:
    """Log-spaced envy/inferiority weights around a fixed utility anchor."""
    levels = (0.0, 0.1, 0.3, 1.0, 3.0, 10.0)
    return [LossWeights(w1, w2, 1.0, 0.0) for w1 in levels for w2 in levels]

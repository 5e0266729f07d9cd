"""Comparison strategies: naive top-k, randomized shuffle of top scores,
congestion alleviation via entropically regularized optimal transport, and a
threshold round-robin allocator.

All baselines consume a ScorePair and emit the same CountMatrix / Policy
containers as the trained method, so evaluation is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AT_LEAST_ZERO, COUNT, FLAG, HALF_OPEN_UNIT, POSITIVE, CountMatrix, Policy,
                   ScorePair, _logsumexp, check_settings, row_softmax, setting, top_k)


@dataclass(frozen=True)
class CAConfig:
    """Entropic transport settings; larger epsilon spreads probability more
    evenly (and trades away utility)."""

    epsilon: float = setting(POSITIVE)
    max_iters: int = setting(COUNT, 20000)
    marginal_tol: float = setting(POSITIVE, 1e-9)

    __post_init__ = check_settings


@dataclass(frozen=True)
class RRConfig:
    """Round-robin settings: suitability threshold tau in [0, 1), the shuffle
    seed, and whether an item may be allocated to at most one user overall."""

    tau: float = setting(HALF_OPEN_UNIT, 0.0)
    seed: int = setting(AT_LEAST_ZERO, 0)
    exclusive: bool = setting(FLAG, True)

    __post_init__ = check_settings


@dataclass(frozen=True)
class CAInfo:
    """Convergence diagnostics for one congestion-alleviation solve."""

    sweeps: int
    row_residual: float
    col_residual: float
    dual_history: np.ndarray
    objective: float


class SinkhornError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def naive(scores: ScorePair, k: int) -> CountMatrix:
    """Recommend each user their k highest-utility items."""
    return top_k(scores.U, k)


def shuffle(scores: ScorePair, k: int, d: int, seed: int = 0) -> CountMatrix:
    """Uniformly pick k of each user's top-d items."""
    U = scores.U
    m, n = U.shape
    if not (k <= d <= n):
        raise ValueError(f"need k <= d <= n, got k={k}, d={d}, n={n}")
    pool = top_k(U, d).C
    rng = np.random.default_rng(seed)
    C = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        candidates = np.flatnonzero(pool[i])
        chosen = rng.choice(candidates, size=k, replace=False)
        C[i, chosen] = 1
    return CountMatrix(C=C, k=k)


def congestion_alleviation(
    scores: ScorePair, k: int, config: CAConfig, return_info: bool = False
):
    """Rebalance recommendation probability so every item gets its even share.

    Solves max <Q, P0> + eps * H(Q) over matrices whose rows each sum to 1 and
    whose columns each sum to m/n, where P0 is the row softmax of the utility
    scores. Log-domain Sinkhorn scaling alternates the column and row
    constraints until both marginals are within marginal_tol in L1, or raises
    SinkhornError after max_iters sweeps; a k outside [1, n] raises
    ValueError first. Only return_info computes the diagnostics: the dual
    value of each sweep (the Sinkhorn ascent objective, non-decreasing) and
    the primal entropic objective of the last iterate (not monotone).
    """
    U = scores.U
    m, n = U.shape
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    P0 = row_softmax(U)
    eps = config.epsilon
    a = np.ones(m)
    b = np.full(n, m / n)
    log_b = np.full(n, np.log(m / n))

    f = np.zeros(m)
    duals = []
    for sweeps in range(1, config.max_iters + 1):
        # column step then row step (log a = 0), so the row constraint ends exact
        g = eps * log_b - eps * _logsumexp((P0 + f[:, None]) / eps, axis=0)
        f = -eps * _logsumexp((P0 + g[None, :]) / eps, axis=1)
        logQ = (P0 + f[:, None] + g[None, :]) / eps
        Q = np.exp(logQ)
        if return_info:
            duals.append(float(f @ a + g @ b - eps * Q.sum()))
        row_res = float(np.abs(Q.sum(axis=1) - a).sum())
        col_res = float(np.abs(Q.sum(axis=0) - b).sum())
        if row_res < config.marginal_tol and col_res < config.marginal_tol:
            break
    else:
        raise SinkhornError(
            f"no convergence in {config.max_iters} sweeps "
            f"(row L1 {row_res:.3e}, col L1 {col_res:.3e})",
            residual=max(row_res, col_res),
        )
    policy = Policy(P=Q)
    if not return_info:
        return policy
    entropy = -np.sum(np.where(Q > 0.0, Q * (logQ - 1.0), 0.0))
    info = CAInfo(
        sweeps=sweeps,
        row_residual=row_res,
        col_residual=col_res,
        dual_history=np.array(duals),
        objective=float(np.sum(Q * P0) + eps * entropy),
    )
    return policy, info


def round_robin(U, S, k: int, config: RRConfig) -> CountMatrix:
    """Allocate items over k rounds in a random fixed user order.

    Each turn a user takes their highest-utility item among those still
    available to them with suitability above tau; when no item passes the
    threshold the turn falls back to plain highest utility. With exclusive
    allocation an item is handed out at most once overall, which makes all
    lists pairwise disjoint (and requires m*k <= n).
    """
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    m, n = U.shape
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    if config.exclusive and m * k > n:
        raise ValueError(
            f"m*k = {m * k} exceeds n = {n}: exclusive allocation is infeasible; "
            "lower k or pass exclusive=False"
        )
    order = np.random.default_rng(config.seed).permutation(m)
    C = np.zeros((m, n), dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    for _ in range(k):
        for i in order:
            available = C[i] == 0
            if config.exclusive:
                available &= ~taken
            preferred = available & (S[i] > config.tau)
            pick_from = preferred if preferred.any() else available
            j = int(np.argmax(np.where(pick_from, U[i], -np.inf)))
            C[i, j] = 1
            taken[j] = True
    return CountMatrix(C=C, k=k)

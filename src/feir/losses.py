"""Differentiable expected utility, envy, and inferiority under the multinomial
recommendation model, their hand-derived gradients, and the oracles (finite
differences, Monte Carlo) that keep the closed forms honest. The weighted
combination of the terms is `optim.Objective` (`optim.loss_and_grad` for a
single evaluation).

For a policy row P[i] and list length k, the per-user expectations are

    E[utility_i]        = k * sum_j P[i,j] U[i,j]
    E[envy_{i -> t}]    = k * sum_j (P[t,j] - P[i,j]) U[i,j]
    E[inferiority_{i->t}] = sum_j max(0, S[t,j] - S[i,j])
                                  * (1 - (1-P[i,j])^k) * (1 - (1-P[t,j])^k)

where (1 - (1-p)^k) is the probability the item lands in the list at least
once. System losses average over users; the envy hinge max(0, .) applies to
the pairwise expectation, with subgradient 0 on the inactive branch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class LossWeights:
    """Term weights (envy, inferiority, negative utility, simplex penalty)."""

    w1: float
    w2: float
    w3: float
    w4: float = 0.0

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3, self.w4) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.w1 == self.w2 == self.w3 == 0:
            raise ValueError("at least one of the envy/inferiority/utility weights must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    envy_loss: float
    inferiority_loss: float
    neg_utility_loss: float
    penalty_loss: float
    total: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def hit_probability(P, k: int) -> np.ndarray:
    """Probability that an item is drawn at least once in k rolls: 1-(1-p)^k.

    Integer powers keep this a polynomial (valid even when an unconstrained
    direct-mode iterate strays outside [0, 1]). They lose nothing near p = 1:
    for p >= 0.5 the complement 1 - p is exact (Sterbenz lemma).
    """
    with np.errstate(over="ignore"):
        return 1.0 - (1.0 - np.asarray(P, dtype=float)) ** int(k)


def hit_probability_grad(P, k: int) -> np.ndarray:
    """d/dp of 1-(1-p)^k, i.e. k (1-p)^(k-1), exact in 1 - p as above."""
    with np.errstate(over="ignore"):
        return k * (1.0 - np.asarray(P, dtype=float)) ** (int(k) - 1)


def expected_user_utility(i: int, U, P, k: int) -> float:
    U = np.asarray(U)
    P = np.asarray(P)
    return float(k * np.dot(P[i], U[i]))


def expected_pair_envy(i: int, i_star: int, U, P, k: int) -> float:
    """Signed expected envy from i toward i_star (hinge applied system-side)."""
    if i == i_star:
        raise ValueError("envy is defined between two distinct users")
    U = np.asarray(U)
    P = np.asarray(P)
    return float(k * np.dot(P[i_star] - P[i], U[i]))


def expected_pair_inferiority(i: int, i_star: int, S, P, k: int) -> float:
    if i == i_star:
        raise ValueError("inferiority is defined between two distinct users")
    S = np.asarray(S)
    q = hit_probability(np.asarray(P), k)
    deficit = np.maximum(0.0, S[i_star] - S[i])
    return float(np.sum(deficit * q[i] * q[i_star]))


def pair_envy_matrix(U, P, k: int) -> np.ndarray:
    """All pairwise expected envies; entry [i, t] is envy from i toward t.

    With a count matrix for P and k=1 it is the realized pairwise envy; a
    scipy.sparse count matrix costs a product over its nonzeros only.
    """
    U = np.asarray(U, dtype=float)
    if not sparse.issparse(P):
        P = np.asarray(P, dtype=float)
    M = U @ P.T
    # the own-list term is M's diagonal; reusing it makes equal rows cancel exactly
    E = k * (M - np.diag(M)[:, None])
    np.fill_diagonal(E, 0.0)
    return E


# Each term's (loss, grad) function returns (loss, None) when called with
# with_grad=False, for a caller whose weight on the term is 0.


def _utility_loss_grad(U, P, k, m_norm, with_grad=True):
    loss = -(k / m_norm) * float(np.sum(P * U))
    if not with_grad:
        return loss, None
    return loss, -(k / m_norm) * U


def _envy_loss_grad(U, P, k, m_norm, with_grad=True):
    E = pair_envy_matrix(U, P, k)
    active = E > 0.0
    loss = float(np.sum(np.where(active, E, 0.0)) / m_norm)
    if not with_grad:
        return loss, None
    A = active.astype(float)
    # d/dP[t]: +k U[i] for every active pair (i, t); d/dP[i]: -k U[i] per active pair
    grad = (k / m_norm) * (A.T @ U - A.sum(axis=1)[:, None] * U)
    return loss, grad


class SuitabilityOrder:
    """Users sorted by suitability on every item, for exact weighted sums of
    the pairwise deficits d[i, t, j] = max(0, S[t, j] - S[i, j]) in
    O(m n log m) time and O(m n) memory, where the dense (i, t, j) form takes
    O(m^2 n) of both.

    On item j, d[i, t, j] is the sum of the gaps between consecutive sorted
    suitabilities from i's position up to t's, so a weighted sum over the
    users above i (or below t) is a suffix (or prefix) sum of gap * weight.
    Gaps are >= 0, so with non-negative weights every term is >= 0 and a sum
    with no positive deficit is exactly 0. The sort need not be stable: tied
    users sit across a zero gap and get identical sums in any order.

    S never changes during a fit, so one order serves all of it.
    The `sorted_*` methods work in sorted coordinates (`gather`), which lets
    a caller gather its inputs once and scatter only its results.
    """

    def __init__(self, S):
        S = np.asarray(S, dtype=float)
        # flat index of the entry at sorted position r of item j's column
        self._flat = np.argsort(S, axis=0) * S.shape[1] + np.arange(S.shape[1])
        self._gap = np.diff(np.take(S, self._flat), axis=0)

    def gather(self, w) -> np.ndarray:
        """w in sorted coordinates: [r, j] is w's entry for the user at
        sorted position r on item j."""
        return np.take(np.asarray(w, dtype=float), self._flat)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """The inverse of `gather`: x back in user coordinates."""
        out = np.empty_like(x)
        out.reshape(-1)[self._flat] = x
        return out

    @cached_property
    def users(self) -> np.ndarray:
        """[r, j] = the user at sorted position r on item j."""
        return self._flat // self._flat.shape[1]

    @cached_property
    def _run_end(self) -> np.ndarray:
        # flat sorted-layout index of the last position of each position's
        # tie run; a run ends at a positive gap or at the top
        m, n = self._flat.shape
        is_end = np.ones((m, n), dtype=bool)
        is_end[:-1] = self._gap > 0
        end = np.where(is_end, np.arange(m)[:, None], m - 1)
        end = np.minimum.accumulate(end[::-1], axis=0)[::-1]
        return end * n + np.arange(n)

    @staticmethod
    def _weight_above(ws: np.ndarray) -> np.ndarray:
        # row r of the (m-1, n) result sums the sorted weights ws[r+1:]
        return np.cumsum(ws[:0:-1], axis=0)[::-1]

    def sorted_shortfall(self, ws: np.ndarray) -> np.ndarray:
        """`shortfall` of the gathered weights, in sorted coordinates."""
        out = np.zeros_like(ws)
        out[:-1] = np.cumsum((self._gap * self._weight_above(ws))[::-1], axis=0)[::-1]
        return out

    def sorted_lead(self, vs: np.ndarray) -> np.ndarray:
        """[r, j] = sum_i d[i, t, j] * v[i, j] for the user t at sorted
        position r, with vs = gather(v): how far the weighted users below t
        trail it on item j, in sorted coordinates."""
        out = np.zeros_like(vs)
        out[1:] = np.cumsum(self._gap * np.cumsum(vs[:-1], axis=0), axis=0)
        return out

    def shortfall(self, w) -> np.ndarray:
        """[i, j] = sum_t d[i, t, j] * w[t, j]: how far user i trails the
        weighted users above it on item j."""
        return self.scatter(self.sorted_shortfall(self.gather(w)))

    def weight_strictly_above(self, w) -> np.ndarray:
        """[i, j] = sum of w[t, j] over the users t with S[t, j] > S[i, j]."""
        ws = self.gather(w)
        above = np.zeros_like(ws)
        above[:-1] = self._weight_above(ws)
        # each member of a tie run reads the weight above the run's last position
        return self.scatter(np.take(above, self._run_end))


def _inferiority_loss_grad(S, P, k, f_rows, m_norm, order=None, with_grad=True):
    """Expected inferiority summed over ordered pairs (i in f_rows, t any other
    user), divided by m_norm, plus its gradient w.r.t. every row of P.

    `order` is S's SuitabilityOrder when the caller holds one (None builds
    it). The work runs in sorted coordinates: P is gathered once, and only
    the loss terms and the gradient are scattered back. with_grad=False
    stops after the loss.
    """
    if order is None:
        order = SuitabilityOrder(S)
    Ps = order.gather(P)
    q = hit_probability(Ps, k)
    shortfall = order.sorted_shortfall(q)
    measured = np.zeros(P.shape[0])
    measured[f_rows] = 1.0
    if measured.all():  # a factor of 1.0 changes nothing, so skip the products
        q_measured, own = q, shortfall
    else:
        measured = measured[order.users]
        q_measured, own = q * measured, measured * shortfall
    # summed in user coordinates, in the order of a kernel that never sorts
    loss = float(np.sum(order.scatter(q_measured * shortfall)) / m_norm)
    if not with_grad:
        return loss, None
    qg = hit_probability_grad(Ps, k)
    # a user's row gets its role as measured user i (if in f_rows) and as rival t
    grad = qg * (own + order.sorted_lead(q_measured))
    return loss, order.scatter(grad) / m_norm


def _penalty_loss_grad(P, with_grad=True):
    # the squared deviation of each row sum from 1, summed over rows
    residual = P.sum(axis=1) - 1.0
    loss = float(np.sum(residual**2))
    if not with_grad:
        return loss, None
    grad = np.broadcast_to(2.0 * residual[:, None], P.shape).copy()
    return loss, grad


def softmax_grad_chain(P, G) -> np.ndarray:
    """Pull a gradient w.r.t. probabilities back through a row softmax."""
    return P * (G - np.einsum("ij,ij->i", G, P)[:, None])


def finite_diff_grad(loss_fn, params, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    it = np.nditer(params, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = params.copy()
        bumped[idx] = params[idx] + h
        up = loss_fn(bumped)
        bumped[idx] = params[idx] - h
        down = loss_fn(bumped)
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


@dataclass(frozen=True)
class MCEstimate:
    """Empirical means and standard errors over repeated list samples.

    Pairwise envy is the signed expectation (the hinge belongs outside the
    expectation).
    """

    utility_mean: np.ndarray
    utility_se: np.ndarray
    envy_mean: np.ndarray
    envy_se: np.ndarray
    inferiority_mean: np.ndarray
    inferiority_se: np.ndarray
    samples: int


def mc_estimate(U, S, P, k: int, samples: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo check of the closed-form expectations.

    Draws `samples` full recommendation rounds (every user's list resampled
    each round), evaluates the deterministic per-user utility and per-pair
    envy/inferiority on each, and returns means with standard errors.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    P = np.asarray(P, dtype=float)
    m, n = U.shape
    rng = np.random.default_rng(seed)
    pvals = P / P.sum(axis=1, keepdims=True)
    X = rng.multinomial(k, pvals, size=(samples, m)).astype(float)   # (s, m, n)

    util = np.einsum("smj,mj->sm", X, U)
    # listval[s, i, t] = value of t's list through i's utilities
    listval = np.einsum("ij,stj->sit", U, X)
    envy = listval - np.einsum("sii->si", listval)[:, :, None]

    B = X > 0
    deficit = np.maximum(0.0, S[None, :, :] - S[:, None, :])         # (i, t, j)
    inf_samples = np.einsum("itj,sij,stj->sit", deficit, B, B)

    def _mean_se(A):
        mean = A.mean(axis=0)
        if samples > 1:
            se = A.std(axis=0, ddof=1) / np.sqrt(samples)
        else:
            se = np.zeros_like(mean)
        return mean, se

    util_mean, util_se = _mean_se(util)
    envy_mean, envy_se = _mean_se(envy)
    inf_mean, inf_se = _mean_se(inf_samples)
    eye = np.eye(m, dtype=bool)
    for M in (envy_mean, envy_se, inf_mean, inf_se):
        M[eye] = 0.0
    return MCEstimate(
        utility_mean=util_mean,
        utility_se=util_se,
        envy_mean=envy_mean,
        envy_se=envy_se,
        inferiority_mean=inf_mean,
        inferiority_se=inf_se,
        samples=samples,
    )

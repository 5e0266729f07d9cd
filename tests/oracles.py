"""Deliberately naive reference implementations used to cross-check the
vectorized code. Everything here is plain Python loops over the definitions;
keep it slow and obvious."""

from pathlib import Path

import numpy as np
from scipy.stats import truncnorm

from feir.core import CountMatrix, MatrixFormatError, _logsumexp, row_softmax
from feir.losses import (
    LossBreakdown,
    SuitabilityOrder,
    _envy_loss_grad,
    _inferiority_loss_grad,
    _penalty_loss_grad,
    _utility_loss_grad,
    hit_probability,
    pair_envy_matrix,
    softmax_grad_chain,
)
from feir.optim import _full_view, _view_index


def utility_user(i, U, C):
    return sum(U[i][j] * C[i][j] for j in range(len(U[i])))


def envy_user(i, t, U, C):
    return sum(U[i][j] * (C[t][j] - C[i][j]) for j in range(len(U[i])))


def inferiority_user(i, t, S, C):
    total = 0.0
    for j in range(len(S[i])):
        if C[i][j] > 0 and C[t][j] > 0:
            total += max(0.0, S[t][j] - S[i][j])
    return total


def system_values(U, S, C):
    m = len(U)
    utility = sum(utility_user(i, U, C) for i in range(m)) / m
    envy = 0.0
    inferiority = 0.0
    for i in range(m):
        for t in range(m):
            if i == t:
                continue
            envy += max(0.0, envy_user(i, t, U, C))
            inferiority += inferiority_user(i, t, S, C)
    return utility, envy / m, inferiority / m


def rank_and_gap(S, C, k):
    m, n = len(S), len(S[0])
    ranks, gaps = [], []
    for i in range(m):
        rank_total = 0.0
        gap_total = 0.0
        for j in range(n):
            if C[i][j] != 1:
                continue
            rivals = [t for t in range(m) if t != i and C[t][j] == 1 and S[t][j] > S[i][j]]
            rank_total += len(rivals)
            if rivals:
                gap_total += sum(S[t][j] - S[i][j] for t in rivals) / len(rivals)
        ranks.append(rank_total / k)
        gaps.append(gap_total / k)
    return ranks, gaps


def realized_terms_dense(U, S, C):
    """The evaluation kernel before it scored only the recommended entries:
    a SuitabilityOrder of the whole m x n S and a dense envy product.

    Returns the pairwise envy matrix and, for each entry (i, j) with
    C[i, j] > 0, the summed deficit max(0, S[t, j] - S[i, j]) and the count
    of strictly more suitable users t over the other recipients of item j
    (both 0 where i did not receive j)."""
    B = (np.asarray(C) > 0).astype(float)
    order = SuitabilityOrder(S)
    envy = pair_envy_matrix(U, C, 1)
    return envy, B * order.shortfall(B), B * order.weight_strictly_above(B)


def gini(C):
    x = [sum(C[i][j] for i in range(len(C))) for j in range(len(C[0]))]
    n = len(x)
    total = sum(x)
    if total == 0:
        return 0.0
    diff = sum(abs(a - b) for a in x for b in x)
    return diff / (2.0 * n * total)


def expected_envy_bruteforce(i, t, U, P, k):
    """Exact expectation by enumerating both users' multinomial outcomes.

    Only feasible for tiny n and k; enumerates compositions of k over n.
    """
    from itertools import product
    from math import comb, prod

    n = len(P[i])

    def outcomes(p):
        for counts in product(range(k + 1), repeat=n):
            if sum(counts) != k:
                continue
            prob = 1.0
            multinom = 1
            left = k
            for c in counts:
                multinom *= comb(left, c)
                left -= c
            prob = multinom * prod(pj**c for pj, c in zip(p, counts))
            yield counts, prob

    total = 0.0
    for ci, pi in outcomes(P[i]):
        for ct, pt in outcomes(P[t]):
            val = sum(U[i][j] * (ct[j] - ci[j]) for j in range(n))
            total += pi * pt * val
    return total


def expected_inferiority_bruteforce(i, t, S, P, k):
    from itertools import product
    from math import comb, prod

    n = len(P[i])

    def outcomes(p):
        for counts in product(range(k + 1), repeat=n):
            if sum(counts) != k:
                continue
            multinom = 1
            left = k
            for c in counts:
                multinom *= comb(left, c)
                left -= c
            yield counts, multinom * prod(pj**c for pj, c in zip(p, counts))

    total = 0.0
    for ci, pi in outcomes(P[i]):
        for ct, pt in outcomes(P[t]):
            val = sum(
                max(0.0, S[t][j] - S[i][j]) * min(1, ci[j] * ct[j]) for j in range(n)
            )
            total += pi * pt * val
    return total


def inferiority_loss_grad_dense(S, P, k, f_rows, m_norm):
    """The expected-inferiority loss and gradient of the training kernel,
    built from the dense (i, t, j) deficit tensor in O(m^2 n) memory."""
    q = hit_probability(P, k)
    qg = k * (1.0 - P) ** (k - 1)  # d/dP of q
    # deficit[i, t, j] = max(0, S[t, j] - S[f_rows[i], j]); the t == i slice is 0
    deficit = np.maximum(0.0, S[None, :, :] - S[f_rows][:, None, :])
    loss = float(np.einsum("itj,ij,tj->", deficit, q[f_rows], q) / m_norm)
    grad = np.zeros_like(P)
    grad += qg * np.einsum("itj,ij->tj", deficit, q[f_rows])      # role: rival t
    own = qg[f_rows] * np.einsum("itj,tj->ij", deficit, q)        # role: measured user i
    grad[f_rows] += own
    return loss, grad / m_norm


def hypervolume_mc(points, ref, samples=200_000, seed=0):
    """Monte-Carlo area of the dominated region inside the reference box."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x_ref, y_ref = ref
    qual = pts[(pts[:, 0] <= x_ref) & (pts[:, 1] >= y_ref)]
    if qual.size == 0:
        return 0.0
    x_lo = qual[:, 0].min()
    y_hi = qual[:, 1].max()
    box = (x_ref - x_lo) * (y_hi - y_ref)
    if box == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_lo, x_ref, samples)
    ys = rng.uniform(y_ref, y_hi, samples)
    covered = np.zeros(samples, dtype=bool)
    for x, y in qual:
        covered |= (xs >= x) & (ys <= y)
    return float(covered.mean() * box)


def save_matrix_per_element(matrix, path):
    """Reference CSV matrix writer: one `format(v, ".17g")` call per
    element. `core.save_matrix` must write exactly these bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix):
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def load_matrix_per_token(path):
    """Reference CSV matrix reader: one `float()` call per token, blank lines
    skipped. `core.load_matrix` must return the same values, or raise the
    same exception type with the same message."""
    path = Path(path)
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for r, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            parsed = []
            for c, token in enumerate(fields):
                try:
                    parsed.append(float(token))
                except ValueError:
                    raise MatrixFormatError(
                        f"{path}: non-numeric token {token!r} at row {r}, column {c}"
                    ) from None
            if rows and len(parsed) != len(rows[0]):
                raise MatrixFormatError(
                    f"{path}: ragged row {r} has {len(parsed)} fields, expected {len(rows[0])}"
                )
            rows.append(parsed)
    if not rows:
        raise MatrixFormatError(f"{path}: empty matrix file")
    return np.array(rows, dtype=float)


def truncated_normal_whole(shape, seed_key, loc, scale):
    """Reference sampler: inverse-CDF truncated-normal draws computed on the
    whole matrix at once. `datagen._truncated_normal` must return the same
    bits."""
    edge = 1e-12
    rng = np.random.default_rng(seed_key)
    u = rng.random(shape)
    u = np.clip(u, edge, 1.0 - edge)
    loc = np.broadcast_to(np.asarray(loc, dtype=float), shape)
    alpha = (0.0 - loc) / scale
    beta = (1.0 - loc) / scale
    x = truncnorm.ppf(u, alpha, beta, loc=loc, scale=scale)
    return np.clip(x, edge, 1.0 - edge)


def top_k_argsort(M, k):
    """Reference top-k rounding by a full stable sort of each row's negated
    values, which keeps the lowest index first among ties. `core.top_k` must
    mark exactly these entries."""
    M = np.asarray(M, dtype=float)
    order = np.argsort(-M, axis=1, kind="stable")[:, :k]
    C = np.zeros(M.shape, dtype=np.int64)
    np.put_along_axis(C, order, 1, axis=1)
    return CountMatrix(C=C, k=k)


def round_robin_by_preference(U, S, k, tau, exclusive, seed):
    """`baselines.round_robin` from each user's preference list: the items
    with suitability above tau by decreasing utility, then the rest by
    decreasing utility, ties to the lower index. Without exclusivity a list
    is the head of its user's preferences; with it, users take turns in the
    seeded order, each taking its first preferred item that nobody holds."""
    m, n = len(U), len(U[0])
    prefs = [sorted(range(n), key=lambda j: (not S[i][j] > tau, -U[i][j], j)) for i in range(m)]
    C = np.zeros((m, n), dtype=np.int64)
    if not exclusive:
        for i in range(m):
            C[i, prefs[i][:k]] = 1
        return C
    taken = set()
    turns = np.random.default_rng(seed).permutation(m)
    for _ in range(k):
        for i in turns:
            j = next(j for j in prefs[i] if j not in taken)
            C[i, j] = 1
            taken.add(j)
    return C


def loss_and_grad_every_term(U, S, params, k, weights, parametrization="logits", view=None):
    """`optim.loss_and_grad` as it was before zero-weight terms skipped their
    gradient: every term's loss and gradient are computed on the view's
    sub-instance, summed as w1 g_e + w2 g_f + w3 g_u, scaled, scattered into
    a zero full-size gradient, and then the penalty or the softmax chain."""
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    params = np.asarray(params, dtype=float)
    if view is None:
        view = _full_view(*U.shape)
    P = row_softmax(params) if parametrization == "logits" else params
    sel = _view_index(view, *U.shape)
    Uv, Sv, Pv = U[sel], S[sel], P[sel]
    mv = view.users.size
    l_u, g_u = _utility_loss_grad(Uv, Pv, k, mv)
    l_e, g_e = _envy_loss_grad(Uv, Pv, k, mv)
    l_f, g_f = _inferiority_loss_grad(Sv, Pv, k, view.f_rows, mv)
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
    return LossBreakdown(envy_loss=l_e, inferiority_loss=l_f, neg_utility_loss=l_u,
                         penalty_loss=l_p, total=total), G


class RankMajorOrder:
    """`losses.SuitabilityOrder` as it was in rank-major sorted coordinates,
    frozen as the exact oracle of the item-major one: [r, j] is the user at
    sorted position r on item j, every suffix and prefix sum runs down a
    column, and every step allocates its result. The item-major order must
    give the same bits."""

    def __init__(self, S):
        S = np.asarray(S, dtype=float)
        # flat index of the entry at sorted position r of item j's column
        self._flat = np.argsort(S, axis=0) * S.shape[1] + np.arange(S.shape[1])
        self._gap = np.diff(np.take(S, self._flat), axis=0)

    def gather(self, w):
        return np.take(np.asarray(w, dtype=float), self._flat)

    def scatter(self, x):
        out = np.empty_like(x)
        out.reshape(-1)[self._flat] = x
        return out

    @property
    def users(self):
        return self._flat // self._flat.shape[1]

    @property
    def _run_end(self):
        m, n = self._flat.shape
        is_end = np.ones((m, n), dtype=bool)
        is_end[:-1] = self._gap > 0
        end = np.where(is_end, np.arange(m)[:, None], m - 1)
        end = np.minimum.accumulate(end[::-1], axis=0)[::-1]
        return end * n + np.arange(n)

    @staticmethod
    def _weight_above(ws):
        return np.cumsum(ws[:0:-1], axis=0)[::-1]

    def sorted_shortfall(self, ws):
        out = np.zeros_like(ws)
        out[:-1] = np.cumsum((self._gap * self._weight_above(ws))[::-1], axis=0)[::-1]
        return out

    def sorted_lead(self, vs):
        out = np.zeros_like(vs)
        out[1:] = np.cumsum(self._gap * np.cumsum(vs[:-1], axis=0), axis=0)
        return out

    def shortfall(self, w):
        return self.scatter(self.sorted_shortfall(self.gather(w)))

    def weight_strictly_above(self, w):
        ws = self.gather(w)
        above = np.zeros_like(ws)
        above[:-1] = self._weight_above(ws)
        return self.scatter(np.take(above, self._run_end))


def inferiority_loss_grad_rank_major(S, P, k, f_rows, m_norm):
    """`losses._inferiority_loss_grad` as it was on `RankMajorOrder`, with
    q = 1 - (1-P)^k and q' = k (1-P)^(k-1) each from its own 1 - P."""
    order = RankMajorOrder(S)
    Ps = order.gather(P)
    with np.errstate(over="ignore"):
        q = 1.0 - (1.0 - Ps) ** int(k)
    shortfall = order.sorted_shortfall(q)
    measured = np.zeros(P.shape[0])
    measured[f_rows] = 1.0
    if measured.all():
        q_measured, own = q, shortfall
    else:
        measured = measured[order.users]
        q_measured, own = q * measured, measured * shortfall
    loss = float(np.sum(order.scatter(q_measured * shortfall)) / m_norm)
    with np.errstate(over="ignore"):
        qg = k * (1.0 - Ps) ** (int(k) - 1)
    grad = qg * (own + order.sorted_lead(q_measured))
    return loss, order.scatter(grad) / m_norm


def sinkhorn_every_sweep(U, eps, max_iters, tol):
    """Reference congestion alleviation: the log-domain Sinkhorn loop with a
    convergence flag, both marginals' logs in their steps, and the dual of
    every sweep and the primal objective always computed.
    `baselines.congestion_alleviation` must return the same bits. Returns
    (Q, sweeps, row residual, col residual, duals, objective); Q and the
    objective are None when max_iters sweeps do not converge."""
    P0 = row_softmax(U)
    m, n = P0.shape
    a, b = np.ones(m), np.full(n, m / n)
    log_a, log_b = np.zeros(m), np.full(n, np.log(m / n))
    f, g = np.zeros(m), np.zeros(n)
    duals = []
    converged = False
    sweeps = 0
    row_res = col_res = np.inf
    for sweeps in range(1, max_iters + 1):
        g = eps * log_b - eps * _logsumexp((P0 + f[:, None]) / eps, axis=0)
        f = eps * log_a - eps * _logsumexp((P0 + g[None, :]) / eps, axis=1)
        logQ = (P0 + f[:, None] + g[None, :]) / eps
        Q = np.exp(logQ)
        duals.append(float(f @ a + g @ b - eps * Q.sum()))
        row_res = float(np.abs(Q.sum(axis=1) - a).sum())
        col_res = float(np.abs(Q.sum(axis=0) - b).sum())
        if row_res < tol and col_res < tol:
            converged = True
            break
    if not converged:
        return None, sweeps, row_res, col_res, duals, None
    entropy = -np.sum(np.where(Q > 0.0, Q * (logQ - 1.0), 0.0))
    return Q, sweeps, row_res, col_res, duals, float(np.sum(Q * P0) + eps * entropy)

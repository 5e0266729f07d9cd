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

from .core import NON_NEGATIVE, check_settings, setting


@dataclass(frozen=True)
class LossWeights:
    """Term weights (envy, inferiority, negative utility, simplex penalty),
    held as finite floats; a weight of 0 leaves its term out of the objective."""

    w1: float = setting(NON_NEGATIVE)
    w2: float = setting(NON_NEGATIVE)
    w3: float = setting(NON_NEGATIVE)
    w4: float = setting(NON_NEGATIVE, 0.0)

    def __post_init__(self):
        check_settings(self, prefix="loss weight ")
        if self.w1 == self.w2 == self.w3 == 0:
            raise ValueError("at least one of the envy/inferiority/utility weights must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the weighted objective, term by term.

    A term whose weight is 0 is not evaluated and its field is None. In
    "logits" mode the penalty is 0.0 whatever its weight, since the softmax
    keeps rows stochastic. `total` is the left-to-right sum of the weighted
    terms.
    """

    envy_loss: float | None
    inferiority_loss: float | None
    neg_utility_loss: float | None
    penalty_loss: float | None
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


def expected_user_utility(i: int, U, P, k: int) -> float:
    U = np.asarray(U)
    P = np.asarray(P)
    return float(k * np.dot(P[i], U[i]))


def expected_pair_inferiority(i: int, i_star: int, S, P, k: int) -> float:
    if i == i_star:
        raise ValueError("inferiority is defined between two distinct users")
    S = np.asarray(S)
    q = hit_probability(np.asarray(P), k)
    deficit = np.maximum(0.0, S[i_star] - S[i])
    return float(np.sum(deficit * q[i] * q[i_star]))


def pair_envy_matrix(U, P, k: int) -> np.ndarray:
    """All pairwise expected envies; entry [i, t] is the signed envy from i
    toward t (the hinge is applied system-side).

    With a count matrix for P and k=1 it is the realized pairwise envy; a
    scipy.sparse count matrix costs a product over its nonzeros only.
    """
    U = np.asarray(U, dtype=float)
    if not sparse.issparse(P):
        P = np.asarray(P, dtype=float)
    E = U @ P.T
    # the own-list term is the diagonal; reusing it makes equal rows cancel exactly
    E -= E.diagonal().copy()[:, None]
    E *= k
    E.flat[:: E.shape[0] + 1] = 0.0
    return E


# `optim.Objective` calls a term's (loss, grad) function only when the term's
# weight is not 0. with_grad=False returns (loss, None): for the utility term
# of a full view, whose gradient the objective holds, and for evaluation.
# `out` (float, P's shape) receives the gradient and `scratch` (the same,
# another array) an intermediate of P's shape; None allocates either.


def _utility_loss_grad(U, P, k, m_norm, with_grad=True, *, scratch=None):
    loss = -(k / m_norm) * float(np.multiply(P, U, out=scratch).sum())
    if not with_grad:
        return loss, None
    return loss, -(k / m_norm) * U


def _envy_loss_grad(U, P, k, m_norm, with_grad=True, *, out=None, scratch=None):
    E = pair_envy_matrix(U, P, k)
    active = E > 0.0
    # E becomes the hinged envies, then the active pairs as 1.0 / 0.0
    np.copyto(E, 0.0, where=~active)
    loss = float(E.sum() / m_norm)
    if not with_grad:
        return loss, None
    np.copyto(E, active)
    # d/dP[t]: +k U[i] for every active pair (i, t); d/dP[i]: -k U[i] per active pair
    grad = np.matmul(E.T, U, out=out)
    grad -= np.multiply(E.sum(axis=1)[:, None], U, out=scratch)
    grad *= k / m_norm
    return loss, grad


class _Sorted:
    """An array in sorted coordinates and the views of it that the running
    sums, the gap products and the scatter read and write, each sliced once.

    `a` is a float (pairs, m, 2) array whose [p, r, c] belongs to item
    2p + c at sorted position r, made from the complex (pairs, m) array z,
    which the running-sum views read. `items` is an item-major (n, m)
    staging view of a's first n * m entries, and `T` its transpose."""

    __slots__ = ("a", "items", "T", "head", "head_rev", "tail", "tail_rev",
                 "head_f", "tail_f", "top", "bottom")

    def __init__(self, z: np.ndarray, n: int):
        pairs, m = z.shape
        self.a = z.view(np.float64).reshape(pairs, m, 2)
        self.items = self.a.reshape(-1)[: n * m].reshape(n, m)
        self.T = self.items.T
        # complex views, for the running sums
        self.head = z[:, :-1]  # every position but the top
        self.head_rev = self.head[:, ::-1]
        self.tail = z[:, 1:]  # every position but the bottom
        self.tail_rev = z[:, :0:-1]
        # float views, for the gap products and the zero ends
        self.head_f = self.a[:, :-1]
        self.tail_f = self.a[:, 1:]
        self.top = self.a[:, -1:]
        self.bottom = self.a[:, :1]


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

    Sorted coordinates hold items in pairs: [p, r, c] is the user at sorted
    position r on item 2p + c, in a float (ceil(n/2), m, 2) array. Its memory
    read as a complex (ceil(n/2), m) array puts items 2p and 2p + 1 in the
    two parts of one number, so every suffix or prefix sum runs along a row
    and each complex add advances two independent items: the same IEEE adds,
    in the same order, as one running sum per item. Gap products stay on the
    float view, where a complex product would mix the pair. For an odd n
    the last pair's second lane repeats item n - 1 and is never written back.
    An array enters sorted coordinates by one take of its flat entries
    (`_gather`), and leaves by one take into an item-major staging view and
    one transposed copy (`_scatter`).

    S never changes during a fit, so one order serves all of it. The
    training kernel (`_inferiority_loss_grad`) writes its intermediates into
    the order's workspace, allocated and sliced on its first call and reused
    by every later one, so one order must not run two kernel calls at once.
    """

    def __init__(self, S):
        S = np.asarray(S, dtype=float)
        m, n = S.shape
        pairs = -(-n // 2)
        # [j, r] = the user at sorted position r on item j
        ranked = np.argsort(S.T, axis=1)
        # flat index, in user coordinates, that each sorted entry [p, r, c]
        # reads: item 2p + c's (item n - 1's in the padding lane of an odd n)
        lanes = np.minimum(np.arange(2 * pairs), n - 1)
        reads = ranked[lanes]
        reads *= n
        reads += lanes[:, None]
        self._flat = np.ascontiguousarray(reads.reshape(pairs, 2, m).transpose(0, 2, 1))
        # item j = 2p + c's entry for user u, [j, u] in item-major order, holds
        # the flat sorted index 2 (p m + r) + c of u's sorted position r
        slot = np.arange(reads.size).reshape(pairs, m, 2).transpose(0, 2, 1).reshape(2 * pairs, m)
        ranked += np.arange(n)[:, None] * m
        self._inverse = np.empty((n, m), dtype=np.intp)
        self._inverse.reshape(-1)[ranked] = slot[:n]
        self._gap = np.diff(S.take(self._flat), axis=1)

    def _empty(self, z=None) -> _Sorted:
        if z is None:
            z = np.empty(self._flat.shape[:2], dtype=complex)
        return _Sorted(z, self._inverse.shape[0])

    def _gather(self, w, out: _Sorted) -> np.ndarray:
        """w (user coordinates) into `out` in sorted coordinates."""
        return np.asarray(w, dtype=float).take(self._flat, out=out.a, mode="clip")

    def _scatter(self, xs: _Sorted, out: np.ndarray, stage: _Sorted) -> np.ndarray:
        """The inverse of `_gather`: xs (sorted coordinates) into `out` in
        user coordinates, through `stage` (not xs)."""
        xs.a.take(self._inverse, out=stage.items, mode="clip")
        np.copyto(out, stage.T)
        return out

    @cached_property
    def _workspace(self) -> tuple[np.ndarray, ...]:
        # the training kernel's five intermediates, m x n floats each (and
        # one padding lane for an odd n)
        return tuple(np.empty(self._flat.shape[:2], dtype=complex) for _ in range(5))

    @cached_property
    def _kernel_views(self) -> tuple[_Sorted, ...]:
        return tuple(self._empty(z) for z in self._workspace)

    @cached_property
    def _users(self) -> np.ndarray:
        """[p, r, c] = the user at sorted position r on item 2p + c."""
        return self._flat // self._inverse.shape[0]

    @cached_property
    def _run_end(self) -> np.ndarray:
        # flat sorted index of the last position of each position's tie run;
        # a run ends at a positive gap or at the top
        end = np.arange(self._flat.size).reshape(self._flat.shape)
        end[:, :-1][~(self._gap > 0)] = end.size
        return np.ascontiguousarray(np.minimum.accumulate(end[:, ::-1], axis=1)[:, ::-1])

    @staticmethod
    def _weight_above(ws: _Sorted, out: _Sorted) -> np.ndarray:
        # out.head[:, r] sums the sorted weights ws[:, r+1:]
        np.add.accumulate(ws.tail_rev, axis=1, out=out.head_rev)
        return out.head_f

    def _shortfall(self, ws: _Sorted, out: _Sorted) -> np.ndarray:
        """`shortfall` of the gathered weights ws, into `out` (not ws), in
        sorted coordinates."""
        body = self._weight_above(ws, out)
        body *= self._gap
        np.add.accumulate(out.head_rev, axis=1, out=out.head_rev)
        out.top.fill(0.0)
        return out.a

    def _lead(self, vs: _Sorted, out: _Sorted) -> np.ndarray:
        """[p, r, c] = sum_i d[i, t, j] * v[i, j] for the user t at sorted
        position r on item j = 2p + c, with vs = v in sorted coordinates, into
        `out` (not vs): how far the weighted users below t trail it on j."""
        np.add.accumulate(vs.head, axis=1, out=out.tail)
        out.tail_f *= self._gap
        np.add.accumulate(out.tail, axis=1, out=out.tail)
        out.bottom.fill(0.0)
        return out.a

    def shortfall(self, w) -> np.ndarray:
        """[i, j] = sum_t d[i, t, j] * w[t, j]: how far user i trails the
        weighted users above it on item j."""
        ws, out = self._empty(), self._empty()
        self._gather(w, ws)
        self._shortfall(ws, out)
        return self._scatter(out, np.empty(ws.T.shape), ws)

    def weight_strictly_above(self, w) -> np.ndarray:
        """[i, j] = sum of w[t, j] over the users t with S[t, j] > S[i, j]."""
        ws, above = self._empty(), self._empty()
        self._gather(w, ws)
        self._weight_above(ws, above)
        above.top.fill(0.0)
        # each member of a tie run reads the weight above the run's last position
        np.take(above.a, self._run_end, out=ws.a, mode="clip")
        return self._scatter(ws, np.empty(ws.T.shape), above)


def _inferiority_loss_grad(S, P, k, f_rows, m_norm, order=None, *, out=None):
    """Expected inferiority summed over ordered pairs (i in f_rows, t any other
    user), divided by m_norm, plus its gradient w.r.t. every row of P.
    f_rows holds distinct users, so it measures every user when it has m.

    `order` is S's SuitabilityOrder when the caller holds one (None builds
    it). The work runs in the order's sorted coordinates and workspace: P is
    gathered once, 1 - P is shared by q = 1 - (1-P)^k and q' = k (1-P)^(k-1),
    and only the loss terms and the gradient are scattered back, both into
    `out` (float, P's shape, not P), which None allocates: the one m x n
    array such a call allocates.
    """
    if order is None:
        order = SuitabilityOrder(S)
    stage, slope, hit, shortfall, x = order._kernel_views
    q, qg = hit.a, slope.a
    k = int(k)
    order._gather(P, slope)
    with np.errstate(over="ignore"):  # as in hit_probability
        np.subtract(1.0, qg, out=qg)
        np.copyto(q, qg)
        q **= k
        np.subtract(1.0, q, out=q)
        qg **= k - 1
        qg *= k
    order._shortfall(hit, shortfall)
    if len(f_rows) == P.shape[0]:  # a factor of 1.0 changes nothing, so skip the products
        own, terms = shortfall, x
    else:  # q becomes q * measured, x measured * shortfall
        measured = np.zeros(P.shape[0])
        measured[f_rows] = 1.0
        np.take(measured, order._users, out=x.a, mode="clip")
        q *= x.a
        x.a *= shortfall.a
        own, terms = x, shortfall
    np.multiply(q, shortfall.a, out=terms.a)
    grad = np.empty(P.shape) if out is None else out
    # the loss terms are summed in user coordinates, in the order of a kernel
    # that never sorts
    loss = float(order._scatter(terms, grad, stage).sum() / m_norm)
    # a user's row gets its role as measured user i (if in f_rows) and as rival t
    lead = order._lead(hit, terms)
    lead += own.a
    lead *= qg
    order._scatter(terms, grad, stage)
    grad /= m_norm
    return loss, grad


def _penalty_loss_grad(P):
    # the squared deviation of each row sum from 1, summed over rows
    residual = P.sum(axis=1) - 1.0
    loss = float(np.sum(residual**2))
    grad = np.broadcast_to(2.0 * residual[:, None], P.shape).copy()
    return loss, grad


def softmax_grad_chain(P, G) -> np.ndarray:
    """Pull a gradient w.r.t. probabilities back through a row softmax, in
    G's place (G is returned)."""
    G -= np.einsum("ij,ij->i", G, P)[:, None]
    G *= P
    return G


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
    )

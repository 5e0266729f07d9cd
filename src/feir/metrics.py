"""Deterministic evaluation of realized recommendation lists: utility, envy,
inferiority, overall fairness, competition indicators, and item-exposure Gini.

All functions are pure and operate on plain arrays (CountMatrix instances are
unwrapped). Pair sums run in a fixed order so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import CountMatrix, DimensionError
from .losses import SuitabilityOrder, _envy_loss_grad


def _counts(C) -> np.ndarray:
    return C.C if isinstance(C, CountMatrix) else np.asarray(C)


def _require_binary(C: np.ndarray) -> None:
    if not np.all((C == 0) | (C == 1)):
        raise ValueError("this metric requires a binary count matrix")


@dataclass(frozen=True)
class _Picks:
    """The (user, item) entries a count matrix recommends, in item-major
    order, with each pick's inferiority terms against the item's other
    recipients, and the length k that every user's list shares."""

    k: float               # the count every row of the matrix sums to
    users: np.ndarray      # the recipient of each pick
    lists: sparse.csc_array  # the count matrix, stored column by column
    shortfall: np.ndarray  # sum over more suitable co-recipients t of S[t, j] - S[i, j]
    rivals: np.ndarray     # how many co-recipients are strictly more suitable

    def per_user(self, values: np.ndarray) -> np.ndarray:
        """Sum a per-pick array over each user's picks."""
        return np.bincount(self.users, weights=values, minlength=self.lists.shape[0])


def _picks(S, C) -> _Picks:
    """List C's picks, check that every row of C sums to the same k, and
    score each pick against the item's other recipients.

    Item j's recipients fill column j of a (most recipients of any item) x
    (picked items) matrix. The padding has weight 0, so it adds nothing to
    any sum, and the lowest picked suitability, so it sits at the bottom of
    every column and splits no gap between recipients. `SuitabilityOrder` of
    that small matrix gives the exact deficit and rival sums without sorting
    the whole m x n S.
    """
    C = _counts(C)
    if np.shape(S) != C.shape:
        raise DimensionError(f"shape mismatch: S {np.shape(S)}, C {C.shape}")
    m, n = C.shape
    users, items = np.divmod(np.flatnonzero(C), n)
    by_item = np.argsort(items, kind="stable")
    users, items = users[by_item], items[by_item]
    counts = C[users, items].astype(float)
    lengths = np.bincount(users, weights=counts, minlength=m)
    if np.any(lengths != lengths[:1]):
        raise ValueError("count matrix rows must all sum to the same k")
    per_item = np.bincount(items, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_item, out=indptr[1:])
    lists = sparse.csc_array((counts, users, indptr), shape=(m, n))

    # slot of each pick in the padded layout: (position among the item's
    # recipients, index among the picked items)
    picked = per_item > 0
    col = (np.cumsum(picked) - 1)[items]
    row = np.arange(items.size) - indptr[items]
    s = np.asarray(S, dtype=float)[users, items]
    # `initial` gives an all-zero C, with no picks, an empty layout
    layout = np.full((per_item.max(initial=0), np.count_nonzero(picked)), s.min(initial=np.inf))
    flat = row * layout.shape[1] + col
    layout.flat[flat] = s
    weight = np.zeros_like(layout)
    weight.flat[flat] = 1.0
    order = SuitabilityOrder(layout)
    return _Picks(
        k=lengths.max(initial=0.0),
        users=users,
        lists=lists,
        shortfall=order.shortfall(weight).take(flat),
        rivals=order.weight_strictly_above(weight).take(flat),
    )


@dataclass(frozen=True)
class SystemMetrics:
    """System-level averages; overall_fairness = envy + inferiority."""

    utility: float
    envy: float
    inferiority: float
    overall_fairness: float


@dataclass(frozen=True)
class CompetitionMetrics:
    mean_rank_per_user: np.ndarray
    mean_gap_per_user: np.ndarray
    mean_rank: float
    mean_gap: float


@dataclass(frozen=True)
class NormalizedMetrics:
    """Ratios against the naive recommendation at the same k.

    Envy has no ratio, since the naive baseline has zero envy by construction;
    it is reported raw, as `SystemMetrics.envy`.
    A ratio is None (absent, never infinite) when the naive denominator is 0.
    """

    utility_norm: float | None
    inferiority_norm: float | None
    overall_norm: float | None


def system_metrics(U, S, C, picks: _Picks | None = None) -> SystemMetrics:
    """System utility, envy, and inferiority of a realized recommendation.

    Utility is the per-user mean. Envy sums max(0, pairwise envy) and
    inferiority sums all pairwise deficits, each over ordered user pairs and
    divided by the number of users m, never by the number of pairs. Envy is
    the training envy loss (`_envy_loss_grad`) of the lists themselves. Both
    pair sums and the check that all lists are as long come from the picks
    (`_picks`), so the cost grows with the m*k recommended entries, not with
    m*n; a caller that already holds `_picks(S, C)` passes it to skip rebuilding it.
    """
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    C = _counts(C)
    if U.shape != S.shape or U.shape != C.shape:
        raise DimensionError(f"shape mismatch: U {U.shape}, S {S.shape}, C {C.shape}")
    m = U.shape[0]
    if picks is None:
        picks = _picks(S, C)

    utility = float(np.sum(U * C) / m)
    envy, _ = _envy_loss_grad(U, picks.lists, 1, m, with_grad=False)
    inferiority = float(np.sum(picks.per_user(picks.shortfall)) / m)
    return SystemMetrics(
        utility=utility,
        envy=envy,
        inferiority=inferiority,
        overall_fairness=envy + inferiority,
    )


def inferiority_by_user(S, C) -> np.ndarray:
    """Total outgoing inferiority of each user, summed over all rivals.

    The mean of this vector over any user subset gives that group's
    inferiority; the mean over everyone times m recovers the system pair sum.
    """
    picks = _picks(S, C)
    return picks.per_user(picks.shortfall)


def normalized_metrics(metrics: SystemMetrics, naive_metrics: SystemMetrics) -> NormalizedMetrics:
    """Divide utility, inferiority, and overall fairness by the naive values.

    Ratios with a zero naive denominator are reported as None rather than
    infinity so downstream trade-off tooling never sees non-finite values.
    """

    def ratio(value: float, denom: float) -> float | None:
        return value / denom if denom != 0.0 else None

    return NormalizedMetrics(
        utility_norm=ratio(metrics.utility, naive_metrics.utility),
        inferiority_norm=ratio(metrics.inferiority, naive_metrics.inferiority),
        overall_norm=ratio(metrics.overall_fairness, naive_metrics.overall_fairness),
    )


def competition_metrics(S, C, k: int, picks: _Picks | None = None) -> CompetitionMetrics:
    """Per-user competition indicators on a binary recommendation.

    For each recommended item, a user's rivals are the strictly more suitable
    users who received the same item. rank(i) averages rival counts over the
    k slots; gap(i) averages the mean suitability shortfall against those
    rivals (a slot with no rivals contributes 0). Both come from the picks,
    as in `system_metrics`, which is also where `picks` is described.
    """
    if picks is None:
        picks = _picks(S, C)
    _require_binary(picks.lists.data)
    rank_per_user = picks.per_user(picks.rivals) / k
    gap_per_user = picks.per_user(picks.shortfall / np.maximum(1.0, picks.rivals)) / k
    rank_per_user.setflags(write=False)
    gap_per_user.setflags(write=False)
    return CompetitionMetrics(
        mean_rank_per_user=rank_per_user,
        mean_gap_per_user=gap_per_user,
        mean_rank=float(rank_per_user.mean()),
        mean_gap=float(gap_per_user.mean()),
    )


def gini_index(C) -> float:
    """Gini coefficient of item exposure (how often each item is recommended).

    Equals sum_{j,j'} |x_j - x_j'| / (2 n sum_j x_j) for the exposure vector
    x; evaluated via the sorted form. All-zero exposure returns 0.
    """
    C = _counts(C)
    _require_binary(C)
    x = np.sort(C.sum(axis=0).astype(float))
    n = x.size
    total = x.sum()
    if total == 0.0:
        return 0.0
    idx = np.arange(1, n + 1)
    return float(np.sum((2 * idx - n - 1) * x) / (n * total))

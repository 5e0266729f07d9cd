"""Trade-off analysis over evaluated solution sets: Pareto-front extraction
under (minimize unfairness, maximize utility), 2-D hypervolume against a
reference point, and fairness-above-utility-threshold summaries.

Solutions with an undefined metric on a requested axis are simply excluded;
undefined stays None end to end, never NaN or infinity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .core import CountMatrix, ScorePair
from .metrics import (
    SystemMetrics,
    _picks,
    competition_metrics,
    gini_index,
    normalized_metrics,
    system_metrics,
)

@dataclass(frozen=True)
class SolutionPoint:
    """One evaluated strategy: who produced it, with what knobs, and every
    deterministic metric (raw and normalized against naive at the same k)."""

    method: str
    params: dict
    k: int
    seed: int
    utility: float | None = None
    utility_norm: float | None = None
    envy: float | None = None
    inferiority: float | None = None
    inferiority_norm: float | None = None
    overall_fairness: float | None = None
    overall_norm: float | None = None
    mean_rank: float | None = None
    mean_gap: float | None = None
    gini: float | None = None
    status: str = "ok"

    def metric(self, name: str) -> float | None:
        if name not in METRIC_FIELDS:
            raise ValueError(f"unknown metric {name!r}; choose from {METRIC_FIELDS}")
        return getattr(self, name)

    def params_json(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))


# The metric fields of a SolutionPoint: those that default to None, undefined.
METRIC_FIELDS = tuple(f.name for f in fields(SolutionPoint) if f.default is None)


def make_solution(
    method: str,
    params: dict,
    k: int,
    seed: int,
    scores: ScorePair,
    counts: CountMatrix,
    naive_system: SystemMetrics,
) -> SolutionPoint:
    """Evaluate a realized recommendation into a SolutionPoint.

    The lists' picks, with each pick's deficit and rival count, are built
    once and shared by the system and competition metrics. Lists whose
    lengths differ, or whose common length is not k, raise ValueError.
    """
    picks = _picks(scores.S, counts)
    if picks.k != k:
        raise ValueError(f"k={k}, but the lists hold {picks.k:g} to {picks.k:g} items")
    sys = system_metrics(scores.U, scores.S, counts, picks=picks)
    norm = normalized_metrics(sys, naive_system)
    comp = competition_metrics(scores.S, counts, k, picks=picks)
    return SolutionPoint(method, params, k, seed, **vars(sys), **vars(norm),
                         mean_rank=comp.mean_rank, mean_gap=comp.mean_gap,
                         gini=gini_index(counts))


@dataclass(frozen=True)
class Front2D:
    """Non-dominated subset under (minimize x, maximize y), sorted by x."""

    x_metric: str
    y_metric: str
    points: tuple = field(default_factory=tuple)

    def coords(self) -> np.ndarray:
        return np.array(
            [(p.metric(self.x_metric), p.metric(self.y_metric)) for p in self.points],
            dtype=float,
        ).reshape(-1, 2)


def _defined_points(points, x_metric: str, y_metric: str):
    out = []
    for p in points:
        x, y = p.metric(x_metric), p.metric(y_metric)
        if x is not None and y is not None and p.status == "ok":
            out.append((float(x), float(y), p))
    return out


def pareto_front(points, x_metric: str, y_metric: str) -> Front2D:
    """Maximal non-dominated subset; weak dominance with one strict inequality.

    Exact duplicates on both axes collapse to a single representative.
    """
    defined = _defined_points(points, x_metric, y_metric)
    if not defined:
        raise ValueError(f"no point defines both {x_metric!r} and {y_metric!r}")
    defined.sort(key=lambda t: (t[0], -t[1]))
    kept = []
    best_y = -np.inf
    for x, y, p in defined:
        if y > best_y:
            kept.append(p)
            best_y = y
    return Front2D(x_metric=x_metric, y_metric=y_metric, points=tuple(kept))


def _front_coords(front) -> np.ndarray:
    if isinstance(front, Front2D):
        return front.coords()
    return np.asarray(front, dtype=float).reshape(-1, 2)


def hypervolume_2d(front, ref: tuple[float, float]) -> float:
    """Area dominated by the front inside the reference box.

    Each point (x, y) with x <= x_ref and y >= y_ref contributes the rectangle
    [x, x_ref] x [y_ref, y]; the result is the area of their union, computed
    by a single sweep over the points sorted by x. Points that do not
    dominate the reference contribute nothing.
    """
    coords = _front_coords(front)
    x_ref, y_ref = float(ref[0]), float(ref[1])
    qualifying = coords[(coords[:, 0] <= x_ref) & (coords[:, 1] >= y_ref)]
    if qualifying.size == 0:
        return 0.0
    order = np.lexsort((-qualifying[:, 1], qualifying[:, 0]))
    area = 0.0
    y_prev = y_ref
    for x, y in qualifying[order]:
        if y > y_prev:
            area += (x_ref - x) * (y - y_prev)
            y_prev = y
    return float(area)


def min_fairness_above_threshold(
    points, phi_metric: str, t: float, utility_metric: str = "utility_norm"
) -> float | None:
    """Smallest phi among solutions whose utility metric strictly exceeds t.

    None when no solution qualifies.
    """
    values = [phi for phi, u, _ in _defined_points(points, phi_metric, utility_metric) if u > t]
    return min(values) if values else None

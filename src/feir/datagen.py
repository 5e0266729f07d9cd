"""Synthetic score-matrix generators: i.i.d. truncated-normal matrices, an
independent suitability/utility pair, and the structured scenarios where some
items (or some users) score systematically higher.

Scores come from a normal distribution truncated to the open interval (0, 1);
the interval is what the scenario fixes, the moments are fixed conventions of
each family (`BASE_LOC` and the scale in `FAMILIES`). Unstructured families
use Normal(0.5, 0.25^2). The structured families use a tighter within-group
spread (0.1) so that a boost of +0.3 on the pre-truncation mean separates the
advantaged group unambiguously; with the wide spread the groups blur together
and the scenario loses its point. Sampling is by inverse CDF on seed-derived
uniform streams, so every generator is a pure function of its GenSpec. The
inverse CDF repeats scipy 1.17.1's `truncnorm.ppf` without `scipy.stats`,
in two parts: `_truncnorm_log_terms` evaluates the `scipy.special` terms
of the bounds once on the n, m or 1 values of loc, and `_truncnorm_ppf`
does the rest per draw, its real log-sum-exp by `core._logsumexp`. Both
take scipy's steps in its order, so the values are that function's to the
bit, and importing the module does not load `scipy.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log1p, log_ndtr, logsumexp, ndtr, ndtri_exp

from .core import (AT_LEAST_TWO, AT_LEAST_ZERO, OPEN_UNIT, POSITIVE, ScorePair, _logsumexp,
                   check_settings, checked, one_of, setting)

# family -> (default (m, n), None where both must be given; scale; the seed
# stream of U, then of S when S is drawn on its own)
FAMILIES = {
    "random": (None, 0.25, (0,)),
    "su_pair": ((50, 50), 0.25, (1, 2)),
    "item_groups": ((20, 100), 0.1, (3,)),
    "user_groups": ((20, 100), 0.1, (4,)),
}

FAMILY = one_of(FAMILIES)

BASE_LOC = 0.5
_EDGE = 1e-12  # keep inverse-CDF output strictly inside (0, 1)


@dataclass(frozen=True)
class GenSpec:
    """One synthetic dataset. A group_boost from about 1e11 up to the refused
    9e15 should put every boosted score at the clip 1 - 1e-12, but the
    sampler's `ppf * scale + loc` cancels there and gives values as coarse
    as 0.9375, 0.5 or 1e-12, as scipy's `truncnorm.ppf` does."""

    family: str = setting(FAMILY)
    m: int | None = setting(AT_LEAST_TWO, None)
    n: int | None = setting(AT_LEAST_TWO, None)
    seed: int = setting(AT_LEAST_ZERO, 0)
    group_fraction: float = setting(OPEN_UNIT, 0.5)
    group_boost: float = setting(POSITIVE, 0.3)

    def __post_init__(self):
        if self.m is None or self.n is None:
            dims = FAMILIES[checked(FAMILY, "family", self.family)][0]
            if dims is None:
                raise ValueError(f"family {self.family!r} needs explicit m and n")
            object.__setattr__(self, "m", dims[0] if self.m is None else self.m)
            object.__setattr__(self, "n", dims[1] if self.n is None else self.n)
        check_settings(self)
        if self.family in ("item_groups", "user_groups"):
            size, unit = (self.n, "columns") if self.family == "item_groups" else (self.m, "rows")
            boosted = int(round(self.group_fraction * size))
            if boosted in (0, size):
                raise ValueError(f"group_fraction must leave both groups non-empty, got "
                                 f"{self.group_fraction!r}, which boosts {boosted} of {size} {unit}")
            # the sampler's bounds (0 - loc) / scale and (1 - loc) / scale
            # round to one float once the boosted mean passes about 2^53
            loc, scale = BASE_LOC + self.group_boost, FAMILIES[self.family][1]
            if not (0.0 - loc) / scale < (1.0 - loc) / scale:
                raise ValueError(f"group_boost leaves (0, 1) no width at float precision, "
                                 f"got {self.group_boost!r}")

    def label(self) -> str:
        scale = FAMILIES[self.family][1]
        base = f"{self.family}(m={self.m},n={self.n},seed={self.seed},loc={BASE_LOC},scale={scale}"
        if self.family in ("item_groups", "user_groups"):
            base += f",fraction={self.group_fraction},boost={self.group_boost}"
        return base + ")"


# Elements per `_truncnorm_ppf` call. One call holds about 8 temporaries the
# size of its input, so a block of 2^14 peaks near 1.1 MB whatever the shape.
_BLOCK = 1 << 14


def _truncnorm_log_terms(a, b):
    """The half of the inverse CDF of the standard normal truncated to
    (a, b) that depends on the bounds alone: `log_ndtr(a)` and the log of
    the Gaussian mass of (a, b), taking scipy 1.17.1's `truncnorm._ppf`
    and `_log_gauss_mass` steps with the same `scipy.special` calls, so
    its bits are theirs. The bounds come from loc, which has one value per
    column, per row or one in all, so this runs on n, m or 1 values, not
    on every draw.

    Only the branches that datagen reaches are kept: GenSpec keeps a < b,
    which scipy checks first, and loc >= BASE_LOC > 0 puts a < 0
    everywhere, so only `ppf_left` runs, and the mass is the b <= 0 case
    (boost >= 0.5) or the central case, never `case_right`.
    """
    # the central case everywhere (special functions raise no warning where
    # b <= 0), then the b <= 0 case over it where there is any
    mass = log1p(-ndtr(a) - ndtr(-b))
    left = b <= 0
    if left.any():
        mass[left] = np.real(logsumexp([log_ndtr(b[left]), log_ndtr(a[left]) + np.pi * 1j], axis=0))
    return log_ndtr(a), mass


def _truncnorm_ppf(q, log_cdf_a, log_mass):
    """The per-draw half of that inverse CDF, at the uniforms q, given
    `_truncnorm_log_terms(a, b)` read at each draw: scipy's
    `ndtri_exp(logsumexp([log_ndtr(a), log(q) + mass]))`, with the real
    log-sum-exp taken by `core._logsumexp`, whose bits are scipy's."""
    return ndtri_exp(_logsumexp(np.stack([log_cdf_a, np.log(q) + log_mass]), axis=0))


def _truncated_normal(shape, seed_key, loc, scale) -> np.ndarray:
    """Inverse-CDF samples of Normal(loc, scale^2) truncated to (0, 1).

    `loc` may be an array broadcasting against `shape` (boosted rows/columns).
    The bounds' terms are evaluated once on `loc` as given, before
    broadcasting. The uniforms are drawn at once into the output array,
    which the inverse CDF then overwrites block by block: as many whole rows
    as fit in `_BLOCK` elements, or `_BLOCK` columns of one row when a row
    is longer, so every block is contiguous and memory stays a small
    multiple of the output however wide a row is. Each block reads loc and
    its terms through broadcast views. The transform is elementwise, so the
    values are those of one whole-matrix call.
    """
    rng = np.random.default_rng(seed_key)
    out = rng.random(shape)
    np.clip(out, _EDGE, 1.0 - _EDGE, out=out)
    loc = np.atleast_1d(np.asarray(loc, dtype=float))
    log_cdf_a, log_mass = _truncnorm_log_terms((0.0 - loc) / scale, (1.0 - loc) / scale)
    views = [np.broadcast_to(x, shape) for x in (loc, log_cdf_a, log_mass)]
    m, n = shape
    rows, cols = max(1, _BLOCK // n), min(n, _BLOCK)
    for r in range(0, m, rows):
        for c in range(0, n, cols):
            block = np.s_[r:r + rows, c:c + cols]
            loc_block, log_cdf_a_block, log_mass_block = (x[block] for x in views)
            x = _truncnorm_ppf(out[block], log_cdf_a_block, log_mass_block)
            np.clip(x * scale + loc_block, _EDGE, 1.0 - _EDGE, out=out[block])
    return out


def boosted_rows(spec: GenSpec) -> np.ndarray:
    """Row indices of the advantaged user group (first rows by convention)."""
    return np.arange(int(round(spec.group_fraction * spec.m)))


def boosted_cols(spec: GenSpec) -> np.ndarray:
    """Column indices of the boosted item group (first columns by convention)."""
    return np.arange(int(round(spec.group_fraction * spec.n)))


def generate(spec: GenSpec) -> ScorePair:
    """The family's scores, a pure function of the spec.

    random: one matrix serving as both utility and suitability. su_pair:
    independent utility and suitability matrices. item_groups: the boosted
    columns get +group_boost on the pre-truncation mean, so all users chase
    the same items. user_groups: the boosted rows get it, putting the rest at
    a blanket disadvantage. The groups share U and S.
    """
    _, scale, streams = FAMILIES[spec.family]
    loc = BASE_LOC
    if spec.family == "item_groups":
        loc = np.full((1, spec.n), BASE_LOC)
        loc[0, boosted_cols(spec)] += spec.group_boost
    elif spec.family == "user_groups":
        loc = np.full((spec.m, 1), BASE_LOC)
        loc[boosted_rows(spec), 0] += spec.group_boost
    matrices = [_truncated_normal((spec.m, spec.n), [spec.seed, stream], loc, scale)
                for stream in streams]
    if len(matrices) == 1:
        return ScorePair.single(matrices[0])
    U, S = matrices
    return ScorePair(U=U, S=S)

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
uniform streams, so every generator is a pure function of its GenSpec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import truncnorm

from .core import ScorePair, _is_int, _is_real

# family -> (default (m, n), None where both must be given; scale; the seed
# stream of U, then of S when S is drawn on its own)
FAMILIES = {
    "random": (None, 0.25, (0,)),
    "su_pair": ((50, 50), 0.25, (1, 2)),
    "item_groups": ((20, 100), 0.1, (3,)),
    "user_groups": ((20, 100), 0.1, (4,)),
}

BASE_LOC = 0.5
_EDGE = 1e-12  # keep inverse-CDF output strictly inside (0, 1)


@dataclass(frozen=True)
class GenSpec:
    family: str
    m: int | None = None
    n: int | None = None
    seed: int = 0
    group_fraction: float = 0.5
    group_boost: float = 0.3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        dims = FAMILIES[self.family][0]
        if self.m is None or self.n is None:
            if dims is None:
                raise ValueError(f"family {self.family!r} needs explicit m and n")
            object.__setattr__(self, "m", dims[0] if self.m is None else self.m)
            object.__setattr__(self, "n", dims[1] if self.n is None else self.n)
        for name in ("m", "n", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m < 2 or self.n < 2:
            raise ValueError("need m >= 2 and n >= 2")
        if not (_is_real(self.group_fraction) and 0.0 < self.group_fraction < 1.0):
            raise ValueError(f"group_fraction must be a number in (0, 1), got {self.group_fraction!r}")
        if not (_is_real(self.group_boost) and self.group_boost > 0.0):
            raise ValueError(f"group_boost must be a positive number, got {self.group_boost!r}")

    def label(self) -> str:
        scale = FAMILIES[self.family][1]
        base = f"{self.family}(m={self.m},n={self.n},seed={self.seed},loc={BASE_LOC},scale={scale}"
        if self.family in ("item_groups", "user_groups"):
            base += f",fraction={self.group_fraction},boost={self.group_boost}"
        return base + ")"


# Elements per truncnorm.ppf call. One call holds about 30 temporaries the
# size of its input, so a block of 2^14 peaks near 4 MB whatever the shape.
_BLOCK = 1 << 14


def _truncated_normal(shape, seed_key, loc, scale) -> np.ndarray:
    """Inverse-CDF samples of Normal(loc, scale^2) truncated to (0, 1).

    `loc` may be an array broadcasting against `shape` (boosted rows/columns).
    The uniforms are drawn at once into the output array, which the inverse
    CDF then overwrites in C-order blocks of `_BLOCK` elements, so memory
    stays a small multiple of the output however wide a row is. The
    transform is elementwise, so the values are those of one whole-matrix
    call.
    """
    rng = np.random.default_rng(seed_key)
    out = rng.random(shape)
    np.clip(out, _EDGE, 1.0 - _EDGE, out=out)
    flat = out.reshape(-1)
    locs = np.broadcast_to(np.asarray(loc, dtype=float), shape).flat
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        loc_block = locs[block]
        alpha = (0.0 - loc_block) / scale
        beta = (1.0 - loc_block) / scale
        x = truncnorm.ppf(flat[block], alpha, beta, loc=loc_block, scale=scale)
        np.clip(x, _EDGE, 1.0 - _EDGE, out=flat[block])
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

"""Shared data model: score matrices, stochastic policies, count matrices, and
the bridge from scores to lists (row softmax, deterministic top-k rounding).

All matrix containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9


class MatrixFormatError(ValueError):
    """Malformed matrix file: empty, ragged rows, or unparseable tokens."""


class DimensionError(ValueError):
    """Matrix dimensions do not match what the caller declared."""


class NumericError(ValueError):
    """An operation received non-finite input."""


def load_matrix(path, expected_dims: tuple[int, int] | None = None) -> np.ndarray:
    """Read a headerless CSV of decimal values into a 2-D float array.

    Every row must have the same number of comma-separated fields; blank
    lines are skipped. Each field is read as Python's `float()` reads it.
    numpy's C reader parses the file first; a file it rejects (say one
    holding `1_0`, non-ASCII digits or a whitespace-only line) or finds
    empty is read again by `_parse_per_token`, one `float()` call per
    token, which decides what is accepted. So both paths give the same
    values, and a bad file the same error. Raises MatrixFormatError (with
    the offending row/column) for empty, ragged or non-numeric input and
    DimensionError when `expected_dims` is given and does not match.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # an empty file is reported by the per-token reader instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            M = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, dtype=float,
                           encoding="utf-8")
    except (ValueError, OSError):
        M = None
    if M is None or M.size == 0:
        M = _parse_per_token(path)
    if expected_dims is not None and M.shape != tuple(expected_dims):
        raise DimensionError(
            f"{path}: expected {expected_dims[0]}x{expected_dims[1]}, got {M.shape[0]}x{M.shape[1]}"
        )
    return M


def _parse_per_token(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
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


def save_matrix(matrix, path) -> None:
    """Write a matrix as headerless CSV with full float round-trip precision.

    Every value is printed as `%.17g`, one matrix row per line, so floats
    read back bit-exact and integer counts print as plain digits. An integer
    matrix whose entries all lie in 0-9, such as every 0/1 count matrix that
    `top_k`, `baselines.shuffle` and `baselines.round_robin` make, is
    formatted as one byte buffer of digits, commas and newlines instead:
    the same bytes, without a format call per row.
    """
    M = np.asarray(matrix)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("save_matrix requires a non-empty 2-D matrix")
    if np.issubdtype(M.dtype, np.integer) and M.min() >= 0 and M.max() <= 9:
        # each row is "d,d,...,d\n": digits at even offsets, separators at odd
        text = np.full((M.shape[0], 2 * M.shape[1]), ord(","), dtype=np.uint8)
        text[:, 0::2] = M
        text[:, 0::2] += ord("0")
        text[:, -1] = ord("\n")
        lines = [text.tobytes().decode("ascii")]
    else:
        template = ",".join(["%.17g"] * M.shape[1]) + "\n"
        lines = (template % tuple(row.tolist()) for row in M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_sidecar(matrix_path, m: int, n: int, k=None, seed=None, generator=None) -> Path:
    """Write the optional JSON sidecar (same stem, .meta.json) recording provenance."""
    meta_path = Path(matrix_path).with_suffix(".meta.json")
    payload = {"m": int(m), "n": int(n), "k": k, "seed": seed, "generator": generator}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return meta_path


def _frozen_copy(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScorePair:
    """Utility matrix U (item value to each user) and suitability matrix S
    (user competitiveness for each item), both m x n with entries strictly
    inside (0, 1). `shared` marks the common case S is U; when the same
    array is passed for both, the pair holds one frozen copy of it.
    """

    U: np.ndarray
    S: np.ndarray
    shared: bool = False

    def __post_init__(self):
        U = _frozen_copy(self.U)
        S = U if self.S is self.U else _frozen_copy(self.S)
        if U.ndim != 2:
            raise DimensionError("U must be 2-D")
        if U.shape != S.shape:
            raise DimensionError(f"U is {U.shape}, S is {S.shape}")
        for name, M in (("U", U), ("S", S)):
            if not np.all(np.isfinite(M)):
                raise NumericError(f"{name} contains non-finite entries")
            if np.any(M <= 0.0) or np.any(M >= 1.0):
                bad = np.argwhere((M <= 0.0) | (M >= 1.0))[0]
                raise ValueError(
                    f"{name}[{bad[0]},{bad[1]}] = {M[bad[0], bad[1]]} outside the open interval (0, 1)"
                )
        if self.shared and not np.array_equal(U, S):
            raise ValueError("shared=True requires S and U to be element-wise equal")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)

    @classmethod
    def single(cls, scores) -> "ScorePair":
        """Build a pair where one matrix serves as both utility and suitability."""
        return cls(U=scores, S=scores, shared=True)

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[1]


def load_scores(u_path, s_path=None, expected_dims=None) -> ScorePair:
    """Load a ScorePair from CSV file(s); one path means shared U = S.

    Range enforcement happens here: entries outside (0, 1) are rejected, not
    clamped, so upstream scoring bugs surface immediately.
    """
    U = load_matrix(u_path, expected_dims)
    if s_path is None:
        return ScorePair.single(U)
    S = load_matrix(s_path, expected_dims)
    return ScorePair(U=U, S=S, shared=False)


@dataclass(frozen=True)
class Policy:
    """Row-stochastic m x n matrix of recommendation probabilities plus the
    list length k. Row i is the parameter vector of user i's multinomial."""

    P: np.ndarray
    k: int

    def __post_init__(self):
        P = _frozen_copy(self.P)
        if P.ndim != 2:
            raise DimensionError("P must be 2-D")
        if not np.all(np.isfinite(P)):
            raise NumericError("P contains non-finite entries")
        if np.any(P < -1e-12) or np.any(P > 1.0 + 1e-12):
            raise ValueError("P entries must lie in [0, 1]")
        row_sums = P.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"row {worst} sums to {row_sums[worst]!r}, not 1 within {ROW_SUM_TOL}"
            )
        if not (1 <= self.k <= P.shape[1]):
            raise ValueError(f"k={self.k} outside [1, {P.shape[1]}]")
        object.__setattr__(self, "P", P)

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.P.shape[1]


@dataclass(frozen=True)
class CountMatrix:
    """Integer m x n matrix whose row i counts how often each item appears in
    user i's k-item recommendation list; every row sums to exactly k."""

    C: np.ndarray
    k: int

    def __post_init__(self):
        C = np.array(self.C, copy=True)
        if C.ndim != 2:
            raise DimensionError("C must be 2-D")
        if not np.issubdtype(C.dtype, np.integer):
            if not np.all(C == np.round(C)):
                raise ValueError("C entries must be integers")
            C = C.astype(np.int64)
        if np.any(C < 0):
            raise ValueError("C entries must be non-negative")
        row_sums = C.sum(axis=1)
        if np.any(row_sums != self.k):
            worst = int(np.argmax(row_sums != self.k))
            raise ValueError(f"row {worst} sums to {row_sums[worst]}, expected k={self.k}")
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]


def row_softmax(Z) -> np.ndarray:
    """Row-wise softmax with row-max subtraction as the overflow guard.

    Adding a constant to a row leaves the output unchanged, so the transform
    preserves within-row ordering.
    """
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise NumericError("softmax input contains non-finite entries")
    shifted = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(shifted)
    return E / E.sum(axis=1, keepdims=True)


def top_k(P, k: int) -> CountMatrix:
    """Deterministic rounding: mark the k largest entries of each row with 1.

    Ties break toward the lowest column index so results are reproducible;
    -0.0 and 0.0 tie. A NaN entry has no rank and raises NumericError.
    """
    M = P.P if isinstance(P, Policy) else np.asarray(P, dtype=float)
    m, n = M.shape
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    if np.isnan(M).any():
        raise NumericError("top_k input contains NaN")
    # no full sort: every entry above a row's k-th largest value is in, and
    # the slots left go to the lowest-index entries equal to it
    kth = np.partition(M, n - k, axis=1)[:, n - k, None]
    above = M > kth
    tied = M == kth
    slots_left = k - above.sum(axis=1, keepdims=True)
    if np.any(tied.sum(axis=1, keepdims=True) > slots_left):
        tied &= np.cumsum(tied, axis=1) <= slots_left
    return CountMatrix(C=(above | tied).astype(np.int64), k=k)

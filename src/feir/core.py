"""Shared data model: score matrices, stochastic policies, count matrices, and
the bridge from scores to lists (row softmax, deterministic top-k rounding).

All matrix containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import secrets
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-9


class MatrixFormatError(ValueError):
    """Malformed matrix file: empty, ragged rows, or unparseable tokens."""


class DimensionError(ValueError):
    """Matrix dimensions do not match what the caller declared."""


class NumericError(ValueError):
    """An operation received non-finite input."""


def load_matrix(path) -> np.ndarray:
    """Read a headerless CSV of decimal values into a 2-D float array.

    Every row must have the same number of comma-separated fields; blank
    lines are skipped. Each field is read as Python's `float()` reads it.
    numpy's C reader parses the file first; a file it rejects (say one
    holding `1_0`, non-ASCII digits or a whitespace-only line) or finds
    empty is read again by `_parse_per_token`, one `float()` call per
    token, which decides what is accepted. So both paths give the same
    values, and a bad file the same error. Raises MatrixFormatError (with
    the offending row/column) for empty, ragged or non-numeric input.
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
    formatted as one byte buffer of digits, commas and newlines. Any other
    matrix is formatted `_BLOCK` entries at a time by `_format_block`, which
    writes the bytes of `%.17g` with numpy arithmetic, so the whole file is
    never held in memory.

    The file is replaced atomically, and its directory created if missing
    (see `_replacing`).
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
        chunks = [text.tobytes()]
    else:
        chunks = _format_blocks(M)
    with _replacing(path, binary=True) as fh:
        # a loop, not writelines: holding each chunk until the next is made
        # kept malloc from trimming and re-faulting a block's memory every
        # block (22k page faults per 400x1000 matrix)
        for chunk in chunks:
            fh.write(chunk)


@contextmanager
def _replacing(path, binary: bool = False):
    """Open a file that replaces `path` once the block exits cleanly.

    Everything is written to a temporary file (binary, or UTF-8 text with no
    newline translation) in the nearest existing directory on the path; on a
    clean exit the missing directories are made and `os.replace` moves the
    file over the target. An error or interrupt in the block leaves any
    earlier file at `path` as it was, and no temporary file or new directory.
    """
    path = Path(path)
    stage = next(d for d in path.parents if d.is_dir())
    tmp = stage / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# `%.17g` without a format call per value. For 1e-4 <= |x| < 1e16, %.17g
# prints the 17 significant digits of x, rounded half to even from its exact
# binary value, in fixed notation with trailing zeros dropped. Scaling |x|
# by an exact power of ten with an error-free product gives those digits by
# float64 and int64 arithmetic. Every other value (zero, |x| < 1e-4 or
# >= 1e16, nan, inf, a non-real dtype) is printed by `%` on its own.
#
# A block of 8192 entries keeps its temporaries near 0.5 MB; with blocks of
# 2048 the su-eval-csv policy matrices took about half as long again.
_BLOCK = 8192
_FAST_MIN, _FAST_MAX = 1e-4, 1e16
_POW10 = 10.0 ** np.arange(23)  # 10**0 .. 10**22, each exact in float64


def _veltkamp_split(a):
    """a == hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp_split(_POW10)
# "0000" .. "9999" as little-endian uint32, and the trailing zeros of each
# four-digit group, 4 for "0000"
_GROUPS4 = np.arange(10_000, dtype=np.uint16)[:, None]
_DIGITS4 = (_GROUPS4 // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(
    np.uint8).view("<u4").ravel()
_TRAILING_ZEROS4 = (_GROUPS4 % np.array([10, 100, 1000, 10_000], dtype=np.uint16) == 0).sum(
    axis=1, dtype=np.uint8)

# Each entry is laid out in a row of _W bytes. Its 17 digits sit in cols
# 6-22. Right before them sit its minus sign and, for |x| < 1, the "0." and
# zeros of its exponent X in -4..-1 (`_PREFIXES[X + 4]`); for |x| >= 1 the
# integer digits move one col left to make room for the point. The
# separator goes right after the last digit printed, so each entry prints
# one run of bytes: `_MASKS[code]` marks it by exponent, digit count after
# dropping trailing zeros, and sign, and `_SEP_COL[code]` is its last col.
# The last code prints col 23 alone, the separator of a value printed by `%`.
_W = 24
# _POINT_AT[X] gathers digits 0..16 and "." (index 17) into cols 5-22
_POINT_AT = np.array([[*range(X + 1), 17, *range(X + 1, 17)] for X in range(16)])


def _layout_tables():
    prefixes = np.zeros((20, _W), dtype=np.uint8)
    masks = np.zeros((20 * 17 * 2 + 1, _W), dtype=bool)
    sep_col = np.full(len(masks), _W - 1)
    for X in range(-4, 16):
        head = b"-0." + b"0" * (-X - 1) if X < 0 else b"-"
        prefixes[X + 4, 6 - len(head) - (X >= 0):6 - (X >= 0)] = list(head)
        for L in range(1, 18):
            for neg in (0, 1):
                code = ((X + 4) * 17 + L - 1) * 2 + neg
                first = 5 - neg + X if X < 0 else 5 - neg
                sep_col[code] = 6 + L if X < 0 or L > X + 1 else 6 + X
                masks[code, first:sep_col[code] + 1] = True
    masks[-1, -1] = True
    return prefixes, masks, sep_col


_PREFIXES, _MASKS, _SEP_COL = _layout_tables()
_BY_PERCENT = len(_MASKS) - 1


def _format_blocks(M: np.ndarray):
    """Yield the `%.17g` CSV bytes of M, `_BLOCK` entries at a time."""
    n = M.shape[1]
    for start in range(0, M.size, _BLOCK):
        x = M.flat[start:start + _BLOCK]
        if x.dtype.kind in "biuf":
            x = x.astype(np.float64)
        col = np.arange(start, start + x.size) % n
        yield _format_block(x, np.where(col == n - 1, ord("\n"), ord(",")).astype(np.uint8))


def _times_pow10(a, a_hi, a_lo, s):
    """hi + lo == a * 10**s exactly (Dekker's two-product)."""
    p_hi, p_lo = _POW10_HI.take(s), _POW10_LO.take(s)
    hi = a * _POW10.take(s)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _below_above(hi, lo):
    """Whether hi + lo < 1e16, and whether hi + lo >= 1e17."""
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0)), (hi > 1e17) | ((hi == 1e17) & (lo >= 0))


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytes:
    """`%.17g` of each entry of the 1-D block x, each followed by its byte
    of seps."""
    B = x.size
    if x.dtype == np.float64:
        a = np.abs(x)
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
        neg = x < 0
    else:
        a, fast, neg = np.ones(B), np.zeros(B, dtype=bool), 0
    all_fast = fast.all()
    if not all_fast:
        a[~fast] = 1.0  # in range; its digits are not printed
    # a * 10**s lies in [1e16, 1e17) for s = 16 - X. log10 can miss the
    # exponent X by one near a power of ten; the exact product says which way.
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    a_hi, a_lo = _veltkamp_split(a)
    hi, lo = _times_pow10(a, a_hi, a_lo, s)
    if ((hi <= 1e16) | (hi >= 1e17)).any():
        low, high = _below_above(hi, lo)
        s += low.astype(np.intp) - high
        hi, lo = _times_pow10(a, a_hi, a_lo, s)
        bad = np.logical_or(*_below_above(hi, lo))  # never seen; left to `%`
        if bad.any():
            fast &= ~bad
            all_fast = False
            s[bad], hi[bad], lo[bad] = 16, 1e16, 0.0  # the product for a = 1
    # hi is an even integer here, so rounding lo half to even rounds the sum
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    X = 16 - s
    carry = N == 10**17
    if carry.any():
        N[carry] = 10**16
        X += carry

    # N's digits: a lead digit, then four groups of four
    head, tail = np.divmod(N, 10**8)
    lead, head = np.divmod(head, 10**8)
    groups = np.empty((B, 4), dtype=np.intp)
    np.divmod(head, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(tail, 10**4, out=(groups[:, 2], groups[:, 3]))
    zeros = _TRAILING_ZEROS4.take(groups)
    trailing = zeros[:, 3].copy()
    for j in (2, 1, 0):  # add group j's zeros when every group after it is zero
        trailing += zeros[:, j] * (trailing == 4 * (3 - j))

    if not all_fast:
        X[~fast] = -1  # keeps them out of the point shift below
    out = _PREFIXES.take(X + 4, axis=0)
    out[:, 6] = lead + ord("0")
    out[:, 7:23] = _DIGITS4.take(groups).view(np.uint8).reshape(B, 16)
    whole = np.flatnonzero(X >= 0)
    if whole.size:
        digits = np.empty((whole.size, 18), dtype=np.uint8)
        digits[:, :17] = out[whole, 6:23]
        digits[:, 17] = ord(".")
        out[whole, 5:23] = np.take_along_axis(digits, _POINT_AT.take(X[whole], axis=0), axis=1)
    code = ((X + 4) * 17 + 16 - trailing) * 2 + neg
    if not all_fast:
        code[~fast] = _BY_PERCENT
    out.reshape(-1)[np.arange(0, B * _W, _W) + _SEP_COL.take(code)] = seps
    text = out[_MASKS.take(code, axis=0)].tobytes()
    if all_fast:
        return text
    # splice each `%`-printed value in before its separator
    ends = np.cumsum(_MASKS.sum(axis=1).take(code)) - 1
    pieces, done = [], 0
    for i in np.flatnonzero(~fast):
        pieces += [text[done:ends[i]], ("%.17g" % x.item(i)).encode()]
        done = ends[i]
    pieces.append(text[done:])
    return b"".join(pieces)


def write_sidecar(matrix_path, m: int, n: int, k=None, seed=None, generator=None) -> Path:
    """Write the optional JSON sidecar (same stem, .meta.json) recording provenance."""
    meta_path = Path(matrix_path).with_suffix(".meta.json")
    payload = {"m": int(m), "n": int(n), "k": k, "seed": seed, "generator": generator}
    with _replacing(meta_path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return meta_path


def _is_int(value) -> bool:
    """An integer setting: Python or numpy integers, but not bool, which
    JSON true and false load as."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A real setting whose float is finite: not inf or nan, and not an
    integer too large for a float."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _is_list(value) -> bool:
    """A JSON array setting, as a list or a tuple."""
    return isinstance(value, (list, tuple))


class Rule(NamedTuple):
    """A setting's phrase in error messages, its test, and the type it is held as."""

    phrase: str
    test: Callable[[object], bool]
    held: type


POSITIVE = Rule("a positive number", lambda v: _is_real(v) and v > 0, float)
NON_NEGATIVE = Rule("a number >= 0", lambda v: _is_real(v) and v >= 0, float)
OPEN_UNIT = Rule("a number in (0, 1)", lambda v: _is_real(v) and 0 < v < 1, float)
HALF_OPEN_UNIT = Rule("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1, float)
NUMBER = Rule("a number", _is_real, float)
AT_LEAST_ZERO = Rule("an integer >= 0", lambda v: _is_int(v) and v >= 0, int)
COUNT = Rule("an integer >= 1", lambda v: _is_int(v) and v >= 1, int)
AT_LEAST_TWO = Rule("an integer >= 2", lambda v: _is_int(v) and v >= 2, int)
INTEGER = Rule("an integer", _is_int, int)
FLAG = Rule("true or false", lambda v: isinstance(v, bool), bool)
OBJECT = Rule("an object", lambda v: isinstance(v, dict), dict)
PATH = Rule("a path", lambda v: isinstance(v, (str, os.PathLike)), Path)
LIST = Rule("a list", _is_list, list)
INTEGERS = Rule("a list of integers", lambda v: _is_list(v) and all(map(_is_int, v)), list)
# each entry is then held to the rule of the setting it fills
NUMBERS = Rule("a list of numbers", _is_list, list)
TWO_FINITE = Rule("two finite numbers",
                  lambda v: _is_list(v) and len(v) == 2 and all(map(_is_finite_real, v)), list)
WEIGHT_GRID = Rule("a non-empty list of [w1, w2, w3] or [w1, w2, w3, w4] lists",
                   lambda v: _is_list(v) and len(v) > 0
                   and all(_is_list(w) and len(w) in (3, 4) for w in v), list)


def one_of(names) -> Rule:
    """The rule of a string setting that must be one of `names`."""
    names = tuple(names)
    return Rule(f"one of {list(names)}", lambda v: isinstance(v, str) and v in names, str)


def checked(rule: Rule, name: str, value):
    """`value` held as `rule`'s type. A value that breaks the rule raises
    ValueError "{name} must be {phrase}, got {value!r}", and an integer or a
    number whose float is not finite (inf, nan or 10**400) "{name} must be
    finite, got {value!r}"."""
    if not rule.test(value):
        raise ValueError(f"{name} must be {rule.phrase}, got {value!r}")
    if rule.held in (int, float) and not _is_finite_real(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return rule.held(value)


def setting(rule: Rule, default=MISSING):
    """A settings dataclass field that `check_settings` holds to `rule`."""
    return field(default=default, metadata={"rule": rule})


def check_settings(obj, prefix: str = "") -> None:
    """Hold each `setting` field of the dataclass `obj` to its rule by `checked`,
    named "{prefix}{name}", and store it as the rule's type, so 1 and 1.0 are one
    value."""
    for f in fields(obj):
        if "rule" in f.metadata:
            value = checked(f.metadata["rule"], prefix + f.name, getattr(obj, f.name))
            object.__setattr__(obj, f.name, value)


def _frozen_copy(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScorePair:
    """Utility matrix U (item value to each user) and suitability matrix S
    (user competitiveness for each item), both m x n with entries strictly
    inside (0, 1). When the same array is passed for both (as `single`
    does), the pair holds one frozen copy of it and is `shared`; two arrays
    stay two copies, even when they are equal. Nothing is sorted when a pair
    is made.
    """

    U: np.ndarray
    S: np.ndarray

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
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)

    @classmethod
    def single(cls, scores) -> "ScorePair":
        """Build a pair where one matrix serves as both utility and suitability."""
        return cls(U=scores, S=scores)

    @property
    def shared(self) -> bool:
        """Whether one matrix serves as both utility and suitability."""
        return self.S is self.U

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[1]

    @cached_property
    def _order(self):
        """S's `losses.SuitabilityOrder`, sorted by the first fit that trains
        on it (see `optim.fit`) and then held for the pair's lifetime, and
        shared by every later fit: three m x n arrays, and a fourth once a
        minibatch fit has run."""
        from .losses import SuitabilityOrder  # losses imports this module

        return SuitabilityOrder(self.S)


def load_scores(u_path, s_path=None) -> ScorePair:
    """Load a ScorePair from CSV file(s); one path means shared U = S.

    Range enforcement happens here: entries outside (0, 1) are rejected, not
    clamped, so upstream scoring bugs surface immediately.
    """
    U = load_matrix(u_path)
    if s_path is None:
        return ScorePair.single(U)
    S = load_matrix(s_path)
    return ScorePair(U=U, S=S)


@dataclass(frozen=True)
class Policy:
    """Row-stochastic m x n matrix of recommendation probabilities: row i is
    user i's multinomial parameter vector. The list length k is the caller's."""

    P: np.ndarray

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
        object.__setattr__(self, "P", P)


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


def row_softmax(Z, *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with row-max subtraction as the overflow guard.

    Adding a constant to a row leaves the output unchanged, so the transform
    preserves within-row ordering. `out` (float, Z's shape, not Z) receives
    the result; None allocates it.
    """
    Z = np.asarray(Z, dtype=float)
    if not np.isfinite(Z).all():
        raise NumericError("softmax input contains non-finite entries")
    E = np.subtract(Z, Z.max(axis=1, keepdims=True), out=out)
    np.exp(E, out=E)
    E /= E.sum(axis=1, keepdims=True)
    return E


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, for finite real a, by the steps that
    scipy.special.logsumexp takes for real input (as of scipy 1.17), in its
    order, so the bits match: the maxima are counted and kept out of the
    shifted sum. Congestion alleviation's Sinkhorn sweeps and the synthetic
    sampler's inverse CDF both use it."""
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    count = np.sum(at_max, axis=axis, keepdims=True, dtype=a.dtype)
    s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
    # scipy divides only where s != 0, but 0 / count is 0 anyway
    return np.squeeze(np.log1p(s / count) + np.log(count) + a_max, axis=axis)


def top_k(P, k: int) -> CountMatrix:
    """Deterministic rounding: mark the k largest entries of each row with 1.

    Ties break toward the lowest column index so results are reproducible;
    -0.0 and 0.0 tie. A NaN entry has no rank and raises NumericError.
    """
    M = np.asarray(P, dtype=float)
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

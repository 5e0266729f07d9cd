import json
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import log_ndtr, logsumexp

import feir.core
from feir.core import (
    CountMatrix,
    DimensionError,
    MatrixFormatError,
    NumericError,
    Policy,
    ScorePair,
    _logsumexp,
    checked,
    load_matrix,
    load_scores,
    one_of,
    row_softmax,
    save_matrix,
    top_k,
    write_sidecar,
)

INTRO_U = np.array([[0.2, 0.6, 0.9], [0.1, 0.8, 0.7]])


def _dyadic_ties():
    """x = j / 2**e with exactly 18 significant digits, the last a 5: %.17g
    rounds each half to even. j odd makes j * 5**e, x's digits, end in 5."""
    rng = np.random.default_rng(11)
    ties = [26215 / 2**18]
    for e in range(1, 58):
        lo, hi = -(-10**17 // 5**e), min(10**18 // 5**e, 2**53)
        for j in rng.integers(lo, hi, 6) if lo < hi else []:
            x = int(j) | 1
            if 10**17 <= x * 5**e < 10**18:
                ties.append(x / 2**e)
    return np.array(ties)


def _rounds_up_to_a_power_of_ten():
    """Floats below 10**p whose 17 significant digits round up to 10**p."""
    up = []
    for p in range(-307, 309):
        x = float(Fraction(10) ** p)
        for _ in range(3):
            if Fraction(x) < Fraction(10) ** p and ("%.17g" % x).startswith("1"):
                up.append(x)
            x = float(np.nextafter(x, 0.0))
    return np.array(up)


_POWERS = 10.0 ** np.arange(-6, 18)
_MIXED = np.random.default_rng(12).uniform(-1, 1, 3 * 7001) * 10.0 ** (
    np.random.default_rng(13).integers(-8, 20, 3 * 7001))
_MIXED[::97] = 0.0
_MIXED[::101] = np.nan

# Matrices the CSV writer must print exactly as the per-element oracle does.
WRITER_CASES = {
    "float_edges": np.array([
        [0.1, 5e-324, 1e-300, 1.0 - 2.0**-53, -0.0],
        [np.nan, np.inf, -np.inf, 1.7976931348623157e308, 1.0 / 3.0],
    ]),
    "int64_counts": np.random.default_rng(3).multinomial(10, [1 / 6] * 6, size=4).astype(np.int64),
    "binary_int64_counts": (np.random.default_rng(5).random((6, 11)) < 0.3).astype(np.int64),
    "binary_int32_counts": (np.random.default_rng(6).random((4, 7)) < 0.5).astype(np.int32),
    "binary_uint8_counts": (np.random.default_rng(7).random((5, 3)) < 0.5).astype(np.uint8),
    "digits": np.arange(30, dtype=np.int64).reshape(3, 10) % 10,
    "holds_a_ten": np.array([[0, 9, 3], [10, 1, 0]], dtype=np.int64),
    "one_by_one": np.array([[0.7]]),
    "one_by_n": np.random.default_rng(4).uniform(0.001, 0.999, size=(1, 9)),
    "dyadic_ties": np.r_[_dyadic_ties(), -_dyadic_ties()].reshape(2, -1),
    "around_powers_of_ten": np.stack([
        _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(np.nextafter(_POWERS, 0.0), 0.0),
        np.nextafter(_POWERS, np.inf), np.nextafter(np.nextafter(_POWERS, np.inf), np.inf),
    ]),
    "rounds_up_to_a_power_of_ten": _rounds_up_to_a_power_of_ten()[None, :],
    # every exponent from -4 to 15, long and short, with and without a point
    "negative_each_layout": -np.stack([
        1.2345678901234567 * 10.0 ** np.arange(-4, 16), 10.0 ** np.arange(-4, 16),
        3.5 * 10.0 ** np.arange(-4, 16), np.nextafter(10.0 ** np.arange(-3, 17), 0.0),
    ]),
    "whole_numbers": np.array([[1.0, 10.0, 12345.0, 1e15, 123456789012345.6,
                                9999999999999998.0, 2.0**53, 7.0]]),
    # 21003 entries in three blocks, with rows ending inside the blocks
    "several_blocks": _MIXED.reshape(3, 7001),
    "float32": np.r_[np.random.default_rng(14).uniform(-2, 2, 10), 1e-30, np.inf, 0.5,
                     -0.0, np.nan, 3e38].astype(np.float32).reshape(2, 8),
    "bool": np.random.default_rng(15).random((3, 5)) < 0.5,
}


class TestMatrixIO:
    def test_load_intro_utility_matrix(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("0.2,0.6,0.9\n0.1,0.8,0.7\n")
        M = load_matrix(path)
        np.testing.assert_array_equal(M, INTRO_U)

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2,0.3\n0.4,0.5\n")
        with pytest.raises(MatrixFormatError, match="ragged"):
            load_matrix(path)

    def test_bad_token_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(MatrixFormatError, match="row 1, column 1"):
            load_matrix(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.uniform(0.001, 0.999, size=(7, 5))
        path = tmp_path / "m.csv"
        save_matrix(M, path)
        back = load_matrix(path)
        np.testing.assert_allclose(back, M, atol=1e-12, rtol=0)

    def test_single_entry_file(self, tmp_path):
        path = tmp_path / "one.csv"
        save_matrix(np.array([[0.5]]), path)
        assert path.read_text().strip() == "0.5"

    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_save_writes_oracle_bytes_and_reads_back(self, tmp_path, name):
        M = WRITER_CASES[name]
        path, expected = tmp_path / "m.csv", tmp_path / "oracle.csv"
        save_matrix(M, path)
        oracles.save_matrix_per_element(M, expected)
        assert path.read_bytes() == expected.read_bytes()
        back = load_matrix(path)
        assert back.shape == M.shape
        # bit-equal, so -0.0 keeps its sign and nan compares equal to itself
        assert np.array_equal(back.view(np.uint64), M.astype(float).view(np.uint64))

    def test_tie_rounds_half_to_even(self, tmp_path):
        save_matrix(np.array([[26215 / 2**18]]), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == "0.10000228881835938\n"

    @settings(max_examples=200)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.one_of(st.floats(), st.floats(-1e16, 1e16))))
    def test_save_matches_per_element_writer(self, tmp_path_factory, M):
        folder = tmp_path_factory.mktemp("writer")
        save_matrix(M, folder / "m.csv")
        oracles.save_matrix_per_element(M, folder / "oracle.csv")
        assert (folder / "m.csv").read_bytes() == (folder / "oracle.csv").read_bytes()

    def test_count_matrix_prints_plain_digits(self, tmp_path):
        path = tmp_path / "c.csv"
        save_matrix(np.array([[0, 1, 12], [3, 0, 10]], dtype=np.int64), path)
        assert path.read_text() == "0,1,12\n3,0,10\n"

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 3)), np.zeros((2, 2, 2))])
    def test_save_rejects_non_matrix(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            save_matrix(bad, tmp_path / "m.csv")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("bad", [np.array([[0.5, 1 + 2j]]), np.array([["0.5", "0.25"]])],
                             ids=["complex", "str"])
    def test_save_rejects_non_real_without_writing(self, tmp_path, bad):
        with pytest.raises(TypeError, match="must be real number"):
            save_matrix(bad, tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []

    def test_save_to_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            save_matrix(np.array([[0.5]]), tmp_path)

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, error):
        path = tmp_path / "m.csv"
        save_matrix(np.array([[0.5]]), path)
        blocks = []
        real = feir.core._format_block

        def fail_on_second_block(*args):
            blocks.append(args)
            if len(blocks) == 2:
                raise error("cut mid-write")
            return real(*args)

        monkeypatch.setattr(feir.core, "_format_block", fail_on_second_block)
        M = WRITER_CASES["several_blocks"]
        for target in (path, tmp_path / "new.csv"):
            blocks.clear()
            with pytest.raises(error):
                save_matrix(M, target)
        assert path.read_text() == "0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_save_peak_memory_below_matrix_size(self, tmp_path):
        M = np.random.default_rng(0).uniform(0.001, 0.999, (1000, 500))
        tracemalloc.start()
        try:
            save_matrix(M, tmp_path / "m.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= M.nbytes

    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(np.array([[0.5, 0.25]]), path)
        write_sidecar(path, 1, 2, k=1, seed=7, generator="random(...)")
        meta = json.loads(path.with_suffix(".meta.json").read_text())
        assert meta == {"m": 1, "n": 2, "k": 1, "seed": 7, "generator": "random(...)"}

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_sidecar_write_keeps_earlier_file(self, tmp_path, cut_second_write, error):
        meta = write_sidecar(tmp_path / "m.csv", 1, 2, seed=7)
        before = meta.read_bytes()
        cut_second_write(feir.core, meta.name, error)
        with pytest.raises(error):
            write_sidecar(tmp_path / "m.csv", 3, 4, seed=8)
        assert meta.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [meta.name]

    def test_load_scores_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("0.5,1.5\n0.2,0.3\n")
        with pytest.raises(ValueError, match="outside the open interval"):
            load_scores(path)


def _random_17g(seed, m, n):
    M = np.random.default_rng(seed).uniform(-1e3, 1e3, (m, n)) ** 3
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in M)


# Files load_matrix must read as the per-token oracle does: the same values
# or the same exception type and message.
LOADER_CASES = {
    "random_17g": _random_17g(0, 9, 13).encode(),
    "random_17g_wide": _random_17g(1, 3, 200).encode(),
    "blank_lines": b"\n0.1,0.2\n\n\n0.3,0.4\n\n",
    "whitespace_lines": b"  \t\n0.1,0.2\n   \n0.3,0.4\n\x0b\n",
    "padded_fields": b" 0.1 ,\t0.2\n0.3,0.4  \n",
    "crlf": b"0.1,0.2\r\n0.3,0.4\r\n",
    "cr_only": b"0.1,0.2\r0.3,0.4\r",
    "no_trailing_newline": b"0.1,0.2\n0.3,0.4",
    "plus_sign": b"+0.1,0.2\n0.3,+4e-1\n",
    "underscore": b"1_0,2\n3,4_5.5\n",
    "arabic_indic_digits": "\u0661.\u0665,2\n3,\u0664\n".encode(),
    "non_finite": b"nan,inf,Infinity,-INF\n-nan,+inf,NaN,infinity\n",
    "one_row": b"0.1,0.2,0.3\n",
    "one_column": b"0.1\n0.2\n0.3\n",
    "hash": b"# comment\n0.1,0.2\n",
    "hash_in_field": b"0.1,0.2#\n",
    "quotes": b'"0.1",0.2\n',
    "bom": "\ufeff0.1,0.2\n".encode(),
    "trailing_comma": b"0.1,0.2,\n0.3,0.4,\n",
    "ragged": b"0.1,0.2\n0.3\n",
    "ragged_after_blank": b"0.1,0.2\n\n0.3,0.4,0.5\n",
    "hex": b"0x1p3,1\n",
    "line_separator": "0.1\u2028,0.2\n".encode(),
    "empty": b"",
    "blank_only": b"\n\n",
    "whitespace_only": b"  \n\t\n",
}


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestLoadMatrixMatchesPerTokenReader:
    @pytest.mark.parametrize("name", list(LOADER_CASES))
    def test_same_values_or_same_error(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LOADER_CASES[name])
        # a warning numpy's reader leaks, such as "input contained no data"
        # for an empty file, fails the comparison
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load_matrix, path)
        expected = _outcome(oracles.load_matrix_per_token, path)
        if isinstance(expected, tuple):
            assert isinstance(got, tuple) and got == expected
        else:
            assert isinstance(got, np.ndarray) and got.dtype == float
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_missing_file_error_unchanged(self, tmp_path):
        path = tmp_path / "absent.csv"
        assert _outcome(load_matrix, path) == _outcome(oracles.load_matrix_per_token, path)

    def test_peak_memory_near_array_size(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(np.random.default_rng(0).uniform(0.001, 0.999, (1000, 500)), path)
        tracemalloc.start()
        try:
            M = load_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * M.nbytes


class TestScorePair:
    def test_shared_pair(self):
        pair = ScorePair.single(INTRO_U)
        assert pair.shared and pair.m == 2 and pair.n == 3
        np.testing.assert_array_equal(pair.U, pair.S)

    def test_one_array_for_both_roles(self, tmp_path):
        save_matrix(INTRO_U, tmp_path / "u.csv")
        pairs = (ScorePair.single(INTRO_U), ScorePair(INTRO_U, INTRO_U),
                 load_scores(tmp_path / "u.csv"))
        for pair in pairs:
            assert pair.shared and pair.U is pair.S and not pair.U.flags.writeable
            assert not np.shares_memory(pair.U, INTRO_U)
        # two arrays keep two copies, even when they are equal
        pair = ScorePair(U=INTRO_U, S=INTRO_U.copy())
        assert not pair.shared and not np.shares_memory(pair.U, pair.S)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ScorePair(U=INTRO_U, S=INTRO_U[:, :2])

    def test_boundary_values_rejected(self):
        bad = INTRO_U.copy()
        bad[0, 0] = 1.0
        with pytest.raises(ValueError):
            ScorePair.single(bad)

    def test_arrays_frozen(self):
        pair = ScorePair.single(INTRO_U)
        with pytest.raises(ValueError):
            pair.U[0, 0] = 0.5


class TestPolicyAndCounts:
    def test_policy_row_sum_validation(self):
        P = np.array([[0.5, 0.5], [0.9, 0.2]])
        with pytest.raises(ValueError, match="sums to"):
            Policy(P=P)

    def test_policy_is_its_matrix(self):
        policy = Policy(P=np.full((2, 3), 1 / 3))
        assert [f.name for f in fields(Policy)] == ["P"]
        assert policy.P.shape == (2, 3) and not policy.P.flags.writeable
        with pytest.raises(TypeError):
            Policy(P=policy.P, k=1)

    def test_count_row_sum_validation(self):
        with pytest.raises(ValueError):
            CountMatrix(C=np.array([[1, 0], [1, 1]]), k=1)

    def test_count_accepts_integral_floats(self):
        cm = CountMatrix(C=np.array([[1.0, 1.0], [2.0, 0.0]]), k=2)
        assert cm.C.dtype == np.int64


class TestRowSoftmax:
    def test_uniform_on_constant_row(self):
        out = row_softmax(np.zeros((1, 3)))
        np.testing.assert_allclose(out, 1 / 3, atol=1e-15)

    def test_log_ratio_row(self):
        out = row_softmax(np.log([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_dominant_entry(self):
        row = np.array([[20.0, 0.0, 0.0, 0.0]])
        assert row_softmax(row)[0, 0] > 0.999999

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            row_softmax(np.array([[np.inf, 0.0]]))

    @given(st.integers(0, 10**6), st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        Z = np.random.default_rng(seed).normal(size=(3, 5))
        np.testing.assert_allclose(row_softmax(Z + shift), row_softmax(Z), atol=1e-12)

    @given(st.integers(0, 10**6))
    def test_rows_sum_to_one(self, seed):
        Z = np.random.default_rng(seed).normal(scale=10, size=(4, 6))
        sums = row_softmax(Z).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("eps", [0.0003, 0.003, 0.01, 0.1])
    def test_matches_scipy_bits(self, eps, axis):
        # congestion alleviation's shape: scores over eps
        rng = np.random.default_rng(9)
        smooth = rng.uniform(0.01, 0.99, (30, 50))
        # one-decimal entries tie at many lines' maximum; a constant line is
        # all maxima, so its shifted sum is exactly 0
        a = np.where(rng.random(smooth.shape) < 0.5, smooth, np.round(smooth, 1) + 0.05)
        a[3] = 0.5
        a[:, 3] = 0.5
        a = a / eps
        at_max = (a == a.max(axis=axis, keepdims=True)).sum(axis=axis)
        assert (at_max == 1).any() and (at_max > 1).any()
        assert np.array_equal(_logsumexp(a, axis), logsumexp(a, axis=axis))

    def test_matches_scipy_bits_on_the_samplers_pairs(self):
        # the sampler's (2, B) stack, log_ndtr(a) over log(q) + a mass,
        # reduced along axis 0: boosts up to 1e15 put log_ndtr(a) near
        # -5e31; then exact ties (a count of 2), and pairs whose smaller
        # operand's shifted exp underflows to 0, either way round
        loc = 0.5 + np.array([0.0, 0.3, 0.7, 5.0, 1e5, 1e10, 1e15] * 2)
        scale = np.repeat([0.1, 0.25], 7)
        log_q = np.log(np.random.default_rng(3).random((20, 1)))
        sampled = np.stack(np.broadcast_arrays(
            log_ndtr((0.0 - loc) / scale), log_q + log_ndtr((1.0 - loc) / scale))).reshape(2, -1)
        lower = np.random.default_rng(4).uniform(-50.0, 0.0, 20)
        ties = np.stack([lower, lower])
        underflow = np.stack([np.r_[lower, lower - 800.0], np.r_[lower - 800.0, lower]])
        pairs = np.concatenate([sampled, ties, underflow], axis=1)
        assert pairs.min() < -1e31
        assert np.all(np.exp(underflow.min(axis=0) - underflow.max(axis=0)) == 0.0)
        assert np.array_equal(_logsumexp(pairs, 0), logsumexp(pairs, axis=0))


class TestTopK:
    def test_intro_rows(self):
        assert top_k(np.array([[0.2, 0.6, 0.9]]), 1).C.tolist() == [[0, 0, 1]]
        assert top_k(np.array([[0.1, 0.9, 0.8]]), 2).C.tolist() == [[0, 1, 1]]

    def test_tie_goes_to_lowest_index(self):
        assert top_k(np.array([[0.5, 0.5, 0.1]]), 1).C.tolist() == [[1, 0, 0]]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k(INTRO_U, 4)

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_row_sums_equal_k(self, seed, k):
        M = np.random.default_rng(seed).uniform(size=(4, 6))
        C = top_k(M, k)
        assert (C.C.sum(axis=1) == k).all()

    @given(st.integers(0, 10**6))
    def test_softmax_preserves_ranking(self, seed):
        Z = np.random.default_rng(seed).normal(size=(3, 7))
        np.testing.assert_array_equal(top_k(row_softmax(Z), 3).C, top_k(Z, 3).C)

    @settings(max_examples=200)
    @given(
        levels=st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, -1.0, np.inf]),
                        min_size=1, max_size=4),
        shape=st.tuples(st.integers(1, 5), st.integers(1, 9)),
        data=st.data(),
    )
    def test_matches_stable_argsort_on_heavy_ties(self, levels, shape, data):
        m, n = shape
        cells = data.draw(st.lists(st.sampled_from(levels), min_size=m * n, max_size=m * n),
                          label="cells")
        M = np.array(cells).reshape(m, n)
        k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
        np.testing.assert_array_equal(top_k(M, k).C, oracles.top_k_argsort(M, k).C)

    def test_signed_zeros_tie_by_index(self):
        M = np.array([[-0.0, 0.0, -0.0, -1.0], [0.0, -0.0, 0.0, -1.0]])
        assert top_k(M, 2).C.tolist() == [[1, 1, 0, 0], [1, 1, 0, 0]]

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            top_k(np.array([[0.1, np.nan, 0.3]]), 1)


class TestChecked:
    @pytest.mark.parametrize("rule, value, held", [
        (feir.core.INTEGER, np.int64(3), 3),
        (feir.core.POSITIVE, 2, 2.0),
        (feir.core.NUMBER, np.float32(0.5), 0.5),
        (feir.core.PATH, "a/b.csv", Path("a/b.csv")),
        (feir.core.TWO_FINITE, (1, 0.5), [1, 0.5]),
        (one_of(["a", "b"]), np.str_("b"), "b"),
    ])
    def test_holds_the_value_as_the_rules_type(self, rule, value, held):
        out = checked(rule, "x", value)
        assert (out, type(out)) == (held, type(held))

    @pytest.mark.parametrize("rule, value, message", [
        (feir.core.INTEGER, True, "seed must be an integer, got True"),
        (feir.core.COUNT, 1.0, "seed must be an integer >= 1, got 1.0"),
        (feir.core.OBJECT, [1], "seed must be an object, got [1]"),
        (feir.core.PATH, None, "seed must be a path, got None"),
        (feir.core.INTEGERS, [1, "2"], "seed must be a list of integers, got [1, '2']"),
        (one_of(["a", "b"]), ["a"], "seed must be one of ['a', 'b'], got ['a']"),
        (one_of(["a", "b"]), {"a": 1}, "seed must be one of ['a', 'b'], got {'a': 1}"),
        # a number or an integer whose float is not finite
        (feir.core.NUMBER, float("nan"), "seed must be finite, got nan"),
        (feir.core.POSITIVE, float("inf"), "seed must be finite, got inf"),
        (feir.core.INTEGER, 10**400, "seed must be finite, got 1" + "0" * 400),
    ])
    def test_refusal_names_the_setting(self, rule, value, message):
        with pytest.raises(ValueError) as err:
            checked(rule, "seed", value)
        assert str(err.value) == message

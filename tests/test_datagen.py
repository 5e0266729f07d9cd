import os
import subprocess
import sys
import tracemalloc

import numpy as np
import oracles
import pytest
from scipy.stats import truncnorm

import feir.datagen
from feir.core import top_k
from feir.datagen import (
    BASE_LOC,
    FAMILIES,
    GenSpec,
    boosted_cols,
    boosted_rows,
    generate,
)
from feir.metrics import gini_index, inferiority_by_user, system_metrics


class TestGenSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GenSpec(family="weird", m=5, n=5)

    def test_random_requires_dims(self):
        with pytest.raises(ValueError):
            GenSpec(family="random")

    def test_structured_defaults(self):
        spec = GenSpec(family="user_groups")
        assert (spec.m, spec.n) == (20, 100)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            GenSpec(family="item_groups", group_fraction=1.0)

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_group_settings_must_be_numbers(self, bad):
        with pytest.raises(ValueError, match="group_fraction must be a number in"):
            GenSpec(family="item_groups", group_fraction=bad)
        with pytest.raises(ValueError, match="group_boost must be a positive number"):
            GenSpec(family="item_groups", group_boost=bad)

    @pytest.mark.parametrize("bad", [float("inf"), np.inf, 10**400])
    def test_group_boost_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="group_boost must be finite"):
            GenSpec(family="user_groups", group_boost=bad)

    @pytest.mark.parametrize("family", ["item_groups", "user_groups"])
    def test_group_boost_must_leave_the_interval_a_width(self, family):
        # truncnorm.ppf returned nan here, which generate refused as non-finite
        with pytest.raises(ValueError, match="group_boost leaves .* got 1e\\+16"):
            GenSpec(family=family, m=4, n=5, group_boost=1e16)
        assert np.isfinite(generate(GenSpec(family=family, m=4, n=5, group_boost=1e15)).U).all()

    @pytest.mark.parametrize("family, fraction, boosted", [
        ("user_groups", 0.01, "0 of 20 rows"), ("user_groups", 0.99, "20 of 20 rows"),
        ("item_groups", 0.004, "0 of 100 columns"), ("item_groups", 0.996, "100 of 100 columns")])
    def test_group_fraction_must_leave_both_groups_non_empty(self, family, fraction, boosted):
        with pytest.raises(ValueError, match=f"group_fraction must leave both groups non-empty, "
                                             f"got {fraction}, which boosts {boosted}"):
            GenSpec(family, 20, 100, group_fraction=fraction)

    @pytest.mark.parametrize("family, fraction, size", [
        ("user_groups", 0.03, 1), ("user_groups", 0.97, 19),
        ("item_groups", 0.006, 1), ("item_groups", 0.994, 99)])
    def test_group_fraction_boosting_one_or_all_but_one_is_accepted(self, family, fraction, size):
        spec = GenSpec(family, 20, 100, group_fraction=fraction)
        boosted = boosted_rows(spec) if family == "user_groups" else boosted_cols(spec)
        assert boosted.size == size
        # the ungrouped families draw no groups, so their fraction is not read
        GenSpec("random", 20, 100, group_fraction=0.01)

    def test_numpy_integer_seed_accepted(self):
        spec = GenSpec(family="random", m=4, n=5, seed=np.int64(3))
        np.testing.assert_array_equal(generate(spec).U, generate(GenSpec("random", 4, 5, 3)).U)

    def test_label_mentions_construction(self):
        # the label is the sidecars' generator string, so its bytes are pinned
        cases = [
            (GenSpec("su_pair"), "su_pair(m=50,n=50,seed=0,loc=0.5,scale=0.25)"),
            (GenSpec("item_groups"),
             "item_groups(m=20,n=100,seed=0,loc=0.5,scale=0.1,fraction=0.5,boost=0.3)"),
            (GenSpec("user_groups"),
             "user_groups(m=20,n=100,seed=0,loc=0.5,scale=0.1,fraction=0.5,boost=0.3)"),
            (GenSpec("random", 30, 40, seed=5), "random(m=30,n=40,seed=5,loc=0.5,scale=0.25)"),
            (GenSpec("user_groups", np.int64(8), 12, seed=np.int64(3)),
             "user_groups(m=8,n=12,seed=3,loc=0.5,scale=0.1,fraction=0.5,boost=0.3)"),
            # a real setting is held as a float, so a JSON integer boost reads 1.0
            (GenSpec("user_groups", group_boost=1),
             "user_groups(m=20,n=100,seed=0,loc=0.5,scale=0.1,fraction=0.5,boost=1.0)"),
        ]
        assert [spec.label() for spec, _ in cases] == [label for _, label in cases]

    @pytest.mark.parametrize("field, value, phrase", [
        ("m", 4.0, "an integer >= 2"), ("n", "6", "an integer >= 2"),
        ("m", True, "an integer >= 2"), ("seed", 1.5, "an integer >= 0"),
        # numpy's SeedSequence refused a negative seed without naming it
        ("seed", -1, "an integer >= 0")])
    def test_sizes_and_seed_must_be_integers(self, field, value, phrase):
        with pytest.raises(ValueError, match=f"^{field} must be {phrase}, got {value!r}$"):
            GenSpec("random", **{"m": 4, "n": 6, field: value})

    @pytest.mark.parametrize("field, value", [("m", 1), ("n", 0), ("n", -3)])
    def test_sizes_below_two_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 2, got {value}$"):
            GenSpec("random", **{"m": 4, "n": 6, field: value})

    @pytest.mark.parametrize("family", [["user_groups"], {"user_groups": 1}, None, "weird"])
    def test_family_must_be_a_known_name(self, family):
        # a list or dict family raised TypeError (unhashable) before the rule
        names = "['random', 'su_pair', 'item_groups', 'user_groups']"
        for sizes in ({"m": 4, "n": 6}, {}):
            with pytest.raises(ValueError) as err:
                GenSpec(family, **sizes)
            assert str(err.value) == f"family must be one of {names}, got {family!r}"

    @pytest.mark.parametrize("field", ["m", "n", "seed"])
    def test_integers_too_large_for_a_float_refused(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got 1000"):
            GenSpec("user_groups", **{"m": 4, "n": 6, field: 10**400})


class TestRandom:
    def test_entries_in_open_interval(self):
        pair = generate(GenSpec(family="random", m=100, n=20, seed=1))
        assert pair.U.min() > 0.0 and pair.U.max() < 1.0
        assert pair.shared

    def test_determinism(self):
        a = generate(GenSpec(family="random", m=30, n=10, seed=9))
        b = generate(GenSpec(family="random", m=30, n=10, seed=9))
        np.testing.assert_array_equal(a.U, b.U)

    def test_sample_mean_matches_truncated_normal(self):
        spec = GenSpec(family="random", m=100, n=100, seed=5)
        pair = generate(spec)
        loc, scale = BASE_LOC, FAMILIES["random"][1]
        a, b = (0 - loc) / scale, (1 - loc) / scale
        mean, var = truncnorm.stats(a, b, loc=loc, scale=scale, moments="mv")
        se = np.sqrt(float(var) / pair.U.size)
        assert abs(pair.U.mean() - float(mean)) < 4 * se


class TestSuPair:
    def test_default_shape_and_independence(self):
        pair = generate(GenSpec(family="su_pair", seed=2))
        assert pair.U.shape == (50, 50) and not pair.shared
        assert np.all(pair.U != pair.S)
        r = np.corrcoef(pair.U.ravel(), pair.S.ravel())[0, 1]
        assert abs(r) < 0.05

    def test_entries_in_range(self):
        pair = generate(GenSpec(family="su_pair", seed=3))
        for M in (pair.U, pair.S):
            assert M.min() > 0.0 and M.max() < 1.0


class TestItemGroups:
    def test_boosted_columns_score_higher(self):
        spec = GenSpec(family="item_groups", seed=4)
        pair = generate(spec)
        cols = boosted_cols(spec)
        rest = np.setdiff1d(np.arange(spec.n), cols)
        assert pair.U[:, cols].mean() - pair.U[:, rest].mean() >= spec.group_boost / 2

    def test_boosted_column_count(self):
        spec = GenSpec(family="item_groups", m=10, n=30, seed=1, group_fraction=0.4)
        assert boosted_cols(spec).size == 12

    def test_entries_in_range(self):
        pair = generate(GenSpec(family="item_groups", seed=5))
        assert pair.U.min() > 0.0 and pair.U.max() < 1.0

    def test_higher_exposure_concentration_than_random(self):
        ig_spec = GenSpec(family="item_groups", seed=6)
        ig = generate(ig_spec)
        flat = generate(GenSpec(family="random", m=ig_spec.m, n=ig_spec.n, seed=6))
        k = 10
        assert gini_index(top_k(ig.U, k)) > gini_index(top_k(flat.U, k))


class TestUserGroups:
    def test_boosted_rows_score_higher(self):
        spec = GenSpec(family="user_groups", seed=7)
        pair = generate(spec)
        rows = boosted_rows(spec)
        rest = np.setdiff1d(np.arange(spec.m), rows)
        assert pair.U[rows].mean() - pair.U[rest].mean() >= spec.group_boost / 2

    def test_boosted_row_count(self):
        spec = GenSpec(family="user_groups", m=25, n=40, seed=1, group_fraction=0.2)
        assert boosted_rows(spec).size == 5

    def test_determinism(self):
        a = generate(GenSpec(family="user_groups", seed=8))
        b = generate(GenSpec(family="user_groups", seed=8))
        np.testing.assert_array_equal(a.U, b.U)

    def test_naive_inferiority_lands_on_disadvantaged_group(self):
        spec = GenSpec(family="user_groups", seed=7)
        pair = generate(spec)
        counts = top_k(pair.U, 10)
        sys = system_metrics(pair.U, pair.S, counts)
        assert sys.inferiority > 0.0
        per_user = inferiority_by_user(pair.S, counts)
        rows = boosted_rows(spec)
        rest = np.setdiff1d(np.arange(spec.m), rows)
        assert per_user[rest].mean() > per_user[rows].mean()


def test_generate_dispatch():
    for family in ("random", "su_pair", "item_groups", "user_groups"):
        spec = GenSpec(family=family, m=6, n=8, seed=0)
        pair = generate(spec)
        assert pair.U.shape == (6, 8)
        # a shared pair holds one array in both roles
        assert (pair.U is pair.S) == pair.shared == (family != "su_pair")


def _whole_matrix_generate(spec, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(feir.datagen, "_truncated_normal", oracles.truncated_normal_whole)
        return generate(spec)


def _assert_same_bits(a, b):
    for x, y in ((a.U, b.U), (a.S, b.S)):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestBlockedSampler:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("shape", [(2, 2), (37, 513), (1000, 17), "wide"])
    def test_matches_whole_matrix_reference(self, monkeypatch, family, seed, shape):
        m, n = (2, 2 * feir.datagen._BLOCK + 5) if shape == "wide" else shape
        spec = GenSpec(family=family, m=m, n=n, seed=seed)
        _assert_same_bits(generate(spec), _whole_matrix_generate(spec, monkeypatch))

    @pytest.mark.parametrize("family", ["item_groups", "user_groups"])
    @pytest.mark.parametrize("boost", [0.5, 0.7, 5.0])
    @pytest.mark.parametrize("block", [None, 97])
    def test_boost_of_a_half_or_more_matches_reference(self, monkeypatch, family, boost, block):
        # the boosted loc is then >= 1, so b <= 0 there and the Gaussian mass
        # takes its b <= 0 case, next to the central case of the other group
        spec = GenSpec(family=family, m=37, n=513, seed=3, group_boost=boost)
        expected = _whole_matrix_generate(spec, monkeypatch)
        if block is not None:
            monkeypatch.setattr(feir.datagen, "_BLOCK", block)
        _assert_same_bits(generate(spec), expected)

    @pytest.mark.parametrize("q", [feir.datagen._EDGE, 1.0 - feir.datagen._EDGE])
    @pytest.mark.parametrize("scale", [0.1, 0.25])
    def test_ppf_matches_truncnorm_at_the_clipped_edges(self, q, scale):
        loc = BASE_LOC + np.array([0.0, 0.3, 0.4999999, 0.5, 0.7, 5.0])
        alpha, beta = (0.0 - loc) / scale, (1.0 - loc) / scale
        terms = feir.datagen._truncnorm_log_terms(alpha, beta)
        ours = feir.datagen._truncnorm_ppf(np.full(loc.shape, q), *terms) * scale + loc
        expected = truncnorm.ppf(q, alpha, beta, loc=loc, scale=scale)
        assert np.array_equal(ours.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("block", [97, 160, 20])
    def test_small_blocks_match_reference(self, monkeypatch, family, block):
        # blocks of 1 row, of 3 rows with 1 left over for the last, and of
        # 20, 20 and 11 columns of one row
        spec = GenSpec(family=family, m=37, n=51, seed=3)
        expected = _whole_matrix_generate(spec, monkeypatch)
        monkeypatch.setattr(feir.datagen, "_BLOCK", block)
        _assert_same_bits(generate(spec), expected)

    @pytest.mark.parametrize("family, per_loc, boosted", [
        ("item_groups", 1000, 500), ("user_groups", 200, 100), ("su_pair", 1, 0),
        ("random", 1, 0)])
    @pytest.mark.parametrize("boost", [0.3, 0.7])
    def test_special_functions_of_loc_run_once_per_loc_value(self, monkeypatch, family,
                                                            per_loc, boosted, boost):
        # the terms of the bounds take the same value at every draw of a
        # row (column), so they are evaluated on loc's n, m or 1 values; per
        # draw they would give the same bits, so only these sizes tell
        sizes = []

        def counted(f):
            def wrapped(x):
                sizes.append(np.size(x))
                return f(x)
            return wrapped

        for name in ("log_ndtr", "ndtr"):
            monkeypatch.setattr(feir.datagen, name, counted(getattr(feir.datagen, name)))
        generate(GenSpec(family, 200, 1000, seed=1, group_boost=boost))
        streams = len(FAMILIES[family][2])
        # ndtr(a), ndtr(-b) and log_ndtr(a); at a boost >= 0.5, log_ndtr of
        # the boosted group's a and b for the mass's b <= 0 case
        left = 2 * boosted if boost >= 0.5 else 0
        assert sum(sizes) == streams * (3 * per_loc + left)

    @pytest.mark.parametrize("family, m, n", [("su_pair", 500, 1000), ("user_groups", 1000, 300)])
    def test_peak_memory_is_a_small_multiple_of_the_output(self, family, m, n):
        tracemalloc.start()
        try:
            pair = generate(GenSpec(family=family, m=m, n=n, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = pair.U.nbytes if pair.shared else pair.U.nbytes + pair.S.nbytes
        assert peak <= 5 * output


@pytest.mark.parametrize("module", ["feir", "feir.cli"])
def test_import_loads_no_scipy_stats(module):
    # a fresh interpreter, since this one has imported scipy.stats for the oracles
    src = os.path.dirname(os.path.dirname(feir.datagen.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"

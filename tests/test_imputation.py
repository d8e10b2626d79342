import re
import warnings

import numpy as np
import pytest

from fdareg import imputation
from fdareg.errors import (
    ImputationError,
    IncomparableSampleError,
    ScalingError,
    ValidationError,
)
from oracles import knn_fill_per_hole


def masked(values, mask):
    return np.asarray(values, dtype=float), np.asarray(mask, dtype=bool)


def mean_impute(values, mask):
    """Fill and fit the same data, as one fold's training rows are."""
    [(train, _)], _ = imputation.fill("mean", (0,), values, mask, values, mask)
    return train


def knn_impute(values, mask, k):
    """Impute a matrix whose own rows are the donors, as one fold's
    training rows are."""
    imp = imputation.KnnImputer((k,)).fit(values, mask)
    return imp.transform(values, mask, is_fit_data=True)[:, 0]


K_GRID = (1, 2, 4, 8, 16)


def holed_matrix(rng, n, p, missing):
    """Random values with a share ``missing`` of holes; the first two
    columns stay observed, so every pair of rows is comparable."""
    values = rng.normal(size=(n, p))
    mask = rng.uniform(size=values.shape) >= missing
    mask[:, :2] = True
    return values, mask


def assert_equals_per_hole_loop(imp, values, mask, is_fit_data):
    out = imp.transform(values, mask, is_fit_data)
    assert out.shape == (values.shape[0], len(imp.ks), values.shape[1])
    for c, k in enumerate(imp.ks):
        ref = knn_fill_per_hole(imp, values, mask, k, is_fit_data)
        assert np.array_equal(out[:, c], ref), f"k={k}"


class TestMeanImpute:
    def test_no_missing_is_identity(self, rng):
        V = rng.normal(size=(6, 4))
        out = mean_impute(V, np.ones_like(V, dtype=bool))
        np.testing.assert_array_equal(out, V)

    def test_column_mean(self):
        V, M = masked(
            [[1.0, 9.0], [3.0, 9.0], [0.0, 9.0]],
            [[True, True], [True, True], [False, True]],
        )
        out = mean_impute(V, M)
        assert out[2, 0] == pytest.approx(2.0)  # mean of {1, 3}

    def test_observed_entries_untouched(self, rng):
        V = rng.normal(size=(10, 7))
        M = rng.uniform(size=V.shape) > 0.3
        M[:, 0] = True  # keep every column observed somewhere
        out = mean_impute(V, M)
        np.testing.assert_array_equal(out[M], V[M])

    def test_fully_missing_column(self):
        V, M = masked([[1.0, 0.0], [2.0, 0.0]], [[True, False], [True, False]])
        with pytest.raises(ImputationError):
            mean_impute(V, M)

    @pytest.mark.parametrize("unobserved, listed", [
        (2, "columns [1, 2] are"),
        (10, "columns [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] are"),
        (25, "columns [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] ... (25 in all) are"),
    ])
    def test_unobserved_columns_are_capped_at_ten_in_the_error(self, unobserved, listed):
        # on irregular curves nearly every column of the union is unobserved;
        # the message names the first 10 and the count, not all of them
        M = np.ones((3, 1 + unobserved), dtype=bool)
        M[:, 1:] = False
        with pytest.raises(ImputationError, match=re.escape(
                f"{listed} observed in no sample; their mean is undefined")):
            mean_impute(np.zeros(M.shape), M)

    def test_train_statistics_apply_to_new_rows(self):
        V, M = masked([[2.0, 4.0], [4.0, 8.0]], [[True, True], [True, True]])
        new_v, new_m = masked([[0.0, 5.0]], [[False, True]])
        [(_, out)], _ = imputation.fill("mean", (0,), V, M, new_v, new_m)
        assert out[0, 0] == pytest.approx(3.0)
        assert out[0, 1] == pytest.approx(5.0)


class TestKnnImpute:
    def test_identical_neighbor_copies_value(self):
        V, M = masked(
            [[1.0, 2.0, 0.0], [1.0, 2.0, 7.5]],
            [[True, True, False], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(7.5)

    def test_distance_zero_on_shared(self):
        imp = imputation.KnnImputer((1,)).fit(*masked([[1.0, 2.0]], [[True, True]]))
        d = imp._distances(np.array([1.0, 2.0]), np.array([True, True]), skip=None)
        assert d[0] == 0.0

    def test_distance_normalized_by_overlap(self):
        # d = mean of squared differences over the shared observed indices
        donors_v, donors_m = masked(
            [[0.0, 0.0, 0.0, 0.0]], [[True, True, True, False]]
        )
        imp = imputation.KnnImputer((1,)).fit(donors_v, donors_m)
        x = np.array([2.0, 2.0, 0.0, 1.0])
        m = np.array([True, True, False, True])
        d = imp._distances(x, m, skip=None)
        assert d[0] == pytest.approx((4.0 + 4.0) / 2)

    def test_nearest_by_shape_not_level(self):
        # sample 0 misses coordinate 2; donor 1 matches on shared coords
        V, M = masked(
            [
                [1.0, 2.0, 0.0],
                [1.1, 2.1, 30.0],
                [9.0, 9.0, -1.0],
            ],
            [[True, True, False], [True, True, True], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(30.0)

    def test_fewer_donors_than_k_uses_all_and_counts(self):
        V, M = masked(
            [[1.0, 0.0], [1.0, 5.0], [1.0, 0.0]],
            [[True, False], [True, True], [True, False]],
        )
        imp = imputation.KnnImputer((4,)).fit(V, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = imp.transform(V, M, is_fit_data=True)[:, 0]
        assert out[0, 1] == pytest.approx(5.0)
        assert out[2, 1] == pytest.approx(5.0)
        assert imp.short_fills_ == 2  # rows 0 and 2, one donor each

    def test_incomparable_sample(self):
        V, M = masked(
            [[1.0, 0.0], [0.0, 2.0]],
            [[True, False], [False, True]],
        )
        with pytest.raises(IncomparableSampleError):
            knn_impute(V, M, k=1)

    def test_ties_break_by_donor_index(self):
        # two donors equidistant: lower index donates
        V, M = masked(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 10.0],
                [-1.0, 0.0, 20.0],
            ],
            [[True, True, False], [True, True, True], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(10.0)

    def test_observed_entries_untouched(self, rng):
        V = rng.normal(size=(12, 6))
        M = rng.uniform(size=V.shape) > 0.2
        M[0] = True
        out = knn_impute(V, M, k=3)
        np.testing.assert_array_equal(out[M], V[M])


class TestKnnGrid:
    """One donor ordering per row fills every k of the grid, bit for bit as
    the per-hole, per-k loop of ``oracles.knn_fill_per_hole``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_data_equals_per_hole_loop(self, seed):
        rng = np.random.default_rng(seed)
        V, M = holed_matrix(rng, 60, 30, 0.3)
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        assert_equals_per_hole_loop(imp, V, M, is_fit_data=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_new_rows_equal_per_hole_loop(self, seed):
        rng = np.random.default_rng(seed)
        imp = imputation.KnnImputer(K_GRID).fit(*holed_matrix(rng, 60, 30, 0.3))
        assert_equals_per_hole_loop(imp, *holed_matrix(rng, 20, 30, 0.3), is_fit_data=False)

    def test_exact_ties_go_to_the_lower_donor_index(self, rng):
        # values on a coarse lattice tie often; rows 10, 20 and 30 are the
        # same donor on row 0's observed coordinates and differ in its holes
        V, M = holed_matrix(rng, 50, 12, 0.3)
        V = np.round(V, 0)
        M[[10, 20, 30]] = True
        V[[20, 30]] = V[10]
        V[20, ~M[0]] += 1.0
        V[30, ~M[0]] += 2.0
        V[0, M[0]] = V[10, M[0]]
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        assert_equals_per_hole_loop(imp, V, M, is_fit_data=True)
        assert_equals_per_hole_loop(imp, V[:5], M[:5], is_fit_data=False)
        out = imp.transform(V, M, is_fit_data=True)
        np.testing.assert_array_equal(out[0, 0, ~M[0]], V[10, ~M[0]])
        np.testing.assert_array_equal(
            out[0, 1, ~M[0]], (V[10, ~M[0]] + V[20, ~M[0]]) / 2
        )

    @pytest.mark.parametrize("is_fit_data", [True, False])
    def test_short_donor_list_equals_per_hole_loop(self, rng, is_fit_data):
        # coordinate 5 is observed by 4 donors only: fewer than max(k) = 16
        V, M = holed_matrix(rng, 40, 10, 0.2)
        M[:, 5] = False
        M[[3, 11, 17, 29], 5] = True
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        rows = slice(None) if is_fit_data else slice(0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_equals_per_hole_loop(imp, V[rows], M[rows], is_fit_data)
        # every pair of rows is comparable, so a hole's donors are the fitted
        # rows that observe its coordinate (a row never observes its own hole)
        donors = M.sum(axis=0)
        holes = ~M[rows]
        assert imp.short_fills_ == sum(int(np.sum(holes & (donors < k))) for k in K_GRID)
        # the rows with a hole at coordinate 5 have 4 donors: short for 8 and 16
        assert imp.short_fills_ >= 2 * int(holes[:, 5].sum()) > 0

    def test_short_donor_list_counts_each_row_hole_and_k(self):
        # coordinate 1 is observed by rows 0 and 1 only, so rows 2-5 each
        # have 2 donors for it: one short fill per row for k = 4 and k = 8
        V = np.arange(12.0).reshape(6, 2)
        M = np.ones_like(V, dtype=bool)
        M[2:, 1] = False
        imp = imputation.KnnImputer((1, 2, 4, 8)).fit(V, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = imp.transform(V, M, is_fit_data=True)
        assert imp.short_fills_ == 4 * 2
        # k = 2, 4 and 8 all fill from both donors; k = 1 from the nearer
        np.testing.assert_array_equal(out[2:, 1:, 1], np.full((4, 3), (1.0 + 3.0) / 2))
        np.testing.assert_array_equal(out[2:, 0, 1], np.full(4, 3.0))
        imp.transform(V[:2], M[:2])  # the count is the last transform's
        assert imp.short_fills_ == 0

    def test_fill_counts_the_short_fills_of_both_matrices(self):
        V = np.arange(12.0).reshape(6, 2)
        M = np.ones_like(V, dtype=bool)
        M[2:, 1] = False
        # rows 2-5 are short for k = 4 and 8 as training rows and as new rows
        _, short = imputation.fill("knn", (1, 2, 4, 8), V, M, V[2:], M[2:])
        assert short == 2 * 4 * 2
        assert imputation.fill("mean", (0,), V, M, V[2:], M[2:])[1] == 0
        assert imputation.fill("none", (0,), V, None, V[2:], None)[1] == 0

    @pytest.mark.parametrize("is_fit_data", [True, False])
    def test_unobserved_coordinate_raises(self, is_fit_data):
        V, M = masked(
            [[1.0, 0.0, 3.0], [2.0, 0.0, 4.0], [0.5, 0.0, 2.0]],
            [[True, False, True], [True, False, True], [True, False, True]],
        )
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        with pytest.raises(ImputationError, match="no donor observes coordinate 1 for sample 0"):
            imp.transform(V, M, is_fit_data)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            imputation.KnnImputer((1, 0))


class TestExpertScale:
    # one-row matrices unless the test is about rows
    def test_two_point_example(self):
        values = np.array([[1.0, 7.0, 3.0]])
        mask = np.array([[True, False, True]])
        out = imputation.expert_scale_matrix(values, mask)
        np.testing.assert_allclose(out[0, [0, 2]], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert out[0, 1] == 7.0  # the hole is left untouched

    def test_zero_mean_unit_deviation(self, rng):
        values = rng.normal(size=(1, 9))
        mask = np.array([[True] * 6 + [False] * 3])
        out = imputation.expert_scale_matrix(values, mask)
        obs = out[mask]
        assert np.mean(obs) == pytest.approx(0.0, abs=1e-12)
        assert np.sum(obs**2) == pytest.approx(1.0)
        np.testing.assert_array_equal(out[~mask], values[~mask])

    def test_affine_invariance(self, rng):
        values = rng.normal(size=(1, 8))
        mask = rng.uniform(size=(1, 8)) > 0.3
        mask[0, :2] = True
        base = imputation.expert_scale_matrix(values, mask)
        for a, b in ((2.0, 5.0), (-3.0, 1.0)):
            out = imputation.expert_scale_matrix(a * values + b, mask)
            np.testing.assert_allclose(out[mask], np.sign(a) * base[mask], atol=1e-12)

    def test_rows_match_per_row_reference(self, rng):
        values = rng.normal(size=(12, 7))
        mask = rng.uniform(size=values.shape) > 0.3
        mask[:, :2] = True
        out = imputation.expert_scale_matrix(values, mask)
        for i in range(values.shape[0]):
            dev = values[i, mask[i]] - np.mean(values[i, mask[i]])
            np.testing.assert_allclose(
                out[i, mask[i]], dev / np.sqrt(dev @ dev), rtol=1e-12, atol=1e-15
            )
        np.testing.assert_array_equal(out[~mask], values[~mask])

    def test_constant_observed_errors(self, rng):
        values = rng.normal(size=(3, 3))
        values[1] = [2.0, 2.0, 0.0]
        mask = np.array([[True, True, True], [True, True, False], [True, False, True]])
        with pytest.raises(ScalingError, match="row 1"):
            imputation.expert_scale_matrix(values, mask)

    def test_single_observation_errors(self):
        values = np.array([[1.0, 3.0], [2.0, 1.0]])
        mask = np.array([[True, True], [True, False]])
        with pytest.raises(ScalingError, match="row 1"):
            imputation.expert_scale_matrix(values, mask)

import numpy as np
import pytest

from fdareg import fdata, imputation
from fdareg.errors import (
    ImputationError,
    IncomparableSampleError,
    ScalingError,
    ValidationError,
)


def masked(values, mask):
    return np.asarray(values, dtype=float), np.asarray(mask, dtype=bool)


def mean_impute(values, mask):
    """Fill and fit the same data, as one fold's training rows are."""
    return imputation.MeanImputer().fit(values, mask).transform(values, mask)


def knn_impute(values, mask, k):
    """Impute a matrix whose own rows are the donors, as one fold's
    training rows are."""
    imp = imputation.KnnImputer(k).fit(values, mask)
    return imp.transform(values, mask, is_fit_data=True)


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

    def test_train_statistics_apply_to_new_rows(self):
        V, M = masked([[2.0, 4.0], [4.0, 8.0]], [[True, True], [True, True]])
        imp = imputation.MeanImputer().fit(V, M)
        new_v, new_m = masked([[0.0, 5.0]], [[False, True]])
        out = imp.transform(new_v, new_m)
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
        imp = imputation.KnnImputer(1).fit(*masked([[1.0, 2.0]], [[True, True]]))
        d = imp._distances(np.array([1.0, 2.0]), np.array([True, True]), skip=None)
        assert d[0] == 0.0

    def test_distance_normalized_by_overlap(self):
        # d = mean of squared differences over the shared observed indices
        donors_v, donors_m = masked(
            [[0.0, 0.0, 0.0, 0.0]], [[True, True, True, False]]
        )
        imp = imputation.KnnImputer(1).fit(donors_v, donors_m)
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

    def test_fewer_donors_than_k_warns(self):
        V, M = masked(
            [[1.0, 0.0], [1.0, 5.0], [1.0, 0.0]],
            [[True, False], [True, True], [True, False]],
        )
        with pytest.warns(UserWarning, match="donors"):
            out = knn_impute(V, M, k=4)
        assert out[0, 1] == pytest.approx(5.0)

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


class TestMaskedMatrixFromDataset:
    def test_roundtrip_with_holes(self, rng):
        grid = np.linspace(0.0, 10.0, 21)
        fns = []
        for i in range(5):
            f = fdata.SampledFunction(grid, rng.normal(size=21), id=i)
            fns.append(fdata.drop_random(f, 0.2, seed=i))
        ds = fdata.Dataset(fns, np.zeros(5), (0.0, 10.0))
        values, mask = imputation.masked_matrix_from_dataset(ds, grid)
        assert mask.sum(axis=1).tolist() == [17] * 5
        for i, f in enumerate(ds.functions):
            np.testing.assert_array_equal(values[i, mask[i]], f.y)

    def test_off_grid_sample_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        f = fdata.SampledFunction([0.0, 0.3], [1.0, 2.0])
        ds = fdata.Dataset([f], [0.0], (0.0, 1.0))
        with pytest.raises(ValidationError):
            imputation.masked_matrix_from_dataset(ds, grid)

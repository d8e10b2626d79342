import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from conftest import vector_dataset
from fdareg import fdata, rbfn
from fdareg.errors import ValidationError
from fdareg.selection import (
    ExperimentSpec,
    RbfnSettings,
    RepresentationSpec,
    run_experiment,
)
from oracles import (
    brute_force_greedy,
    cdist_design,
    reference_predictions,
    reference_train_ols,
    truncated_network,
)


def one_path(X, y, width, ridge, max_centers):
    """The path of a single ridge trained on the inputs ``X``."""
    [path] = rbfn.train_ols_paths(rbfn.sq_distances(X, X), y, width, (ridge,), max_centers)
    return path


def predict(path, X, X_new):
    """Every truncation's predictions on ``X_new`` of a path trained on ``X``."""
    return path.predictions(rbfn.sq_distances(X_new, X))


def width_of(X):
    """The median-distance width of the inputs ``X``."""
    return rbfn.median_width(rbfn.sq_distances(X, X))


class TestDistances:
    """The numpy distances equal scipy's, bit for bit."""

    SHAPES = [(1, 1, 1), (2, 2, 3), (7, 5, 8), (20, 13, 9), (30, 30, 39), (43, 129, 18)]

    @pytest.mark.parametrize("n, m, d", SHAPES)
    def test_equal_cdist_sqeuclidean(self, rng, n, m, d):
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
        C = rng.normal(size=(m, d)) * rng.uniform(0.1, 100.0, size=d)
        C[0] = X[0]  # a duplicate row: distance exactly 0
        for A, B in ((X, C), (C, X), (X, X)):
            assert np.array_equal(rbfn.sq_distances(A, B), cdist(A, B, "sqeuclidean"))

    @pytest.mark.parametrize("n, d", [(2, 1), (2, 12), (3, 8), (25, 10), (60, 39)])
    def test_median_width_equals_median_pdist(self, rng, n, d):
        X = rng.normal(size=(n, d))
        for rows in (X, np.vstack([X, X[:1]])):  # with and without a duplicate row
            assert rbfn.median_width(rbfn.sq_distances(rows, rows)) == np.median(pdist(rows))

    def test_design_equals_cdist_design(self, rng):
        X, C = rng.normal(size=(17, 11)), rng.normal(size=(6, 11))
        assert np.array_equal(
            rbfn.design_matrix(rbfn.sq_distances(X, C), 0.7), cdist_design(X, C, 0.7)
        )

    def test_degenerate_widths(self, rng):
        # one input, or all inputs equal, give the unit width
        X = rng.normal(size=(1, 4))
        assert width_of(X) == 1.0
        assert width_of(np.repeat(X, 5, axis=0)) == 1.0

    def test_coordinate_mismatch(self, rng):
        with pytest.raises(ValidationError):
            rbfn.sq_distances(np.ones((2, 3)), np.ones((4, 2)))


class TestPredict:
    """Properties of the networks ``RbfnPath.predictions`` evaluates."""

    def test_single_center_at_itself(self, rng):
        # the one-center network at its own center outputs its weight g[0]
        X = rng.normal(size=(10, 2))
        path = one_path(X, rng.normal(size=10), 0.5, 0.0, max_centers=1)
        center = X[path.selected]
        assert predict(path, X, center)[0, 0] == pytest.approx(path.ortho_weights[0])

    def test_zero_weights(self, rng):
        # zero targets give zero weights, so every truncation predicts zero
        X = rng.normal(size=(12, 3))
        path = one_path(X, np.zeros(12), 1.0, 1e-3, max_centers=4)
        np.testing.assert_array_equal(predict(path, X, rng.normal(size=(10, 3))), 0.0)

    def test_far_input_decays(self, rng):
        X = rng.normal(size=(15, 2))
        path = one_path(X, rng.normal(size=15), 1.0, 1e-3, max_centers=5)
        far = X[0] + 20.0 * np.array([1.0, 0.0]) + 5.0
        out = np.abs(predict(path, X, far[None]))
        assert out.max() < 1e-6 * np.abs(path.ortho_weights).max()

    def test_permutation_invariance(self, rng):
        # permuting the training rows permutes the candidate pool only: the
        # same centers are picked and the networks predict the same
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        perm = rng.permutation(20)
        path = one_path(X, y, 0.8, 1e-3, max_centers=8)
        permuted = one_path(X[perm], y[perm], 0.8, 1e-3, max_centers=8)
        np.testing.assert_array_equal(perm[permuted.selected], path.selected)
        X_new = rng.normal(size=(15, 3))
        np.testing.assert_allclose(
            predict(permuted, X[perm], X_new), predict(path, X, X_new), atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        # distances to another number of inputs than the path was trained on
        X = rng.normal(size=(8, 4))
        path = one_path(X, rng.normal(size=8), 1.0, 0.0, 3)
        with pytest.raises(ValidationError):
            path.predictions(rbfn.sq_distances(np.ones((2, 4)), X[:7]))
        with pytest.raises(ValidationError):
            predict(path, X, np.ones((2, 5)))


class TestTrainOls:
    def test_matches_brute_force_greedy(self, rng):
        # 20 instances, n <= 20, every input a candidate, 5 steps compared
        for trial in range(20):
            n = int(rng.integers(8, 21))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            width = 0.5 + rng.uniform()
            ridge = float(rng.choice([0.0, 1e-4, 1e-1]))

            F = cdist_design(X, X, width)
            expected = brute_force_greedy(F, y, ridge, steps=5)

            path = one_path(X, y, width, ridge, max_centers=len(expected))
            np.testing.assert_array_equal(path.selected, expected)

    def test_interpolation_limit(self, rng):
        n = 12
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        width = width_of(X)
        path = one_path(X, y, width, 0.0, max_centers=n)
        resid = predict(path, X, X)[:, -1] - y
        assert float(resid @ resid) <= 1e-8 * float(y @ y)

    def test_centers_distinct_training_points(self, rng):
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        path = one_path(X, y, 1.0, 1e-3, max_centers=15)
        assert len(set(path.selected.tolist())) == path.max_size
        assert path.n_inputs == 25

    def test_max_centers_exceeds_n(self, rng):
        X = rng.normal(size=(5, 2))
        with pytest.raises(ValidationError):
            one_path(X, np.zeros(5), 1.0, 0.0, max_centers=6)

    def test_early_stop_shortens_path(self, rng):
        # every point twice: once one twin is selected the other has no
        # energy left, so the path stops after the distinct points
        X = np.repeat(rng.normal(size=(4, 2)), 2, axis=0)
        y = rng.normal(size=8)
        path = one_path(X, y, 1.0, 0.0, max_centers=8)
        assert path.max_size == 4
        assert len(set(map(tuple, X[path.selected]))) == 4

    def test_truncation_weights_consistent(self, rng):
        # the 7-center truncation must reproduce a fresh training run capped at 7
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        path = one_path(X, y, 1.2, 1e-2, max_centers=15)
        fresh = one_path(X, y, 1.2, 1e-2, max_centers=7)
        np.testing.assert_array_equal(path.selected[:7], fresh.selected)
        X_new = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            predict(path, X, X_new)[:, :7], predict(fresh, X, X_new), atol=1e-10
        )


class TestTrainOlsPaths:
    """Oracles for growing every ridge's path in lockstep."""

    RIDGES = (0.0, 1e-6, 1e-3, 1.0)
    RTOL = 1e-9
    # Rounding differences between two correct implementations grow like
    # eps over the share of its energy a selected column kept. Once that
    # share falls below this floor they can reach 1e-5, so the numbers are
    # compared on the steps before; the selections on the whole path.
    KEPT_FLOOR = 1e-8

    def _assert_matches_reference(self, X, y, width, ridges, max_centers):
        paths = rbfn.train_ols_paths(rbfn.sq_distances(X, X), y, width, ridges, max_centers)
        assert len(paths) == len(ridges)
        for ridge, path in zip(ridges, paths):
            ref, kept = reference_train_ols(X, y, width, ridge, max_centers)
            np.testing.assert_array_equal(path.selected, ref.selected)
            below = np.flatnonzero(kept < self.KEPT_FLOOR)
            k = int(below[0]) if below.size else kept.size
            for got, want in (
                (path.gs_coefs[:k, :k], ref.gs_coefs[:k, :k]),
                (path.ortho_weights[:k], ref.ortho_weights[:k]),
            ):
                np.testing.assert_allclose(
                    got, want, rtol=self.RTOL, atol=self.RTOL * np.abs(want).max()
                )
        return paths

    def test_matches_reference_per_ridge(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        paths = self._assert_matches_reference(
            X, y, width_of(X), self.RIDGES, max_centers=20
        )
        assert all(p.max_size == 20 for p in paths)

    def test_some_ridges_stop_early_while_others_go_on(self):
        # a wide width: columns run out of energy after a few steps, at a
        # step that depends on the ridge
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        width = 8.0 * width_of(X)
        paths = self._assert_matches_reference(X, y, width, self.RIDGES, max_centers=7)
        assert [p.max_size for p in paths] == [7, 6, 6, 7]

    def test_permuted_ridges_give_the_same_paths(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        width = 8.0 * width_of(X)  # paths of different lengths
        order = (3, 0, 2, 1)
        D = rbfn.sq_distances(X, X)
        paths = rbfn.train_ols_paths(D, y, width, self.RIDGES, max_centers=10)
        permuted = rbfn.train_ols_paths(
            D, y, width, [self.RIDGES[i] for i in order], max_centers=10
        )
        for i, path in zip(order, permuted):
            for field in ("selected", "gs_coefs", "ortho_weights"):
                np.testing.assert_array_equal(
                    getattr(path, field), getattr(paths[i], field)
                )

    @pytest.mark.parametrize(
        "ridges, max_centers, n_rows",
        [((1e-3, -1e-6), 5, 10), ((), 5, 10), ((1e-3,), 11, 10), ((1e-3,), 5, 9)],
        ids=["negative-ridge", "no-ridge", "cap-above-candidates", "non-square-distances"],
    )
    def test_invalid_arguments(self, rng, ridges, max_centers, n_rows):
        X = rng.normal(size=(10, 2))
        D = rbfn.sq_distances(X[:n_rows], X)
        with pytest.raises(ValidationError):
            rbfn.train_ols_paths(D, rng.normal(size=n_rows), 1.0, ridges, max_centers)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 14),
        d=st.integers(1, 3),
        width_mult=st.floats(0.25, 4.0),
        ridges=st.permutations(RIDGES).flatmap(
            lambda r: st.integers(1, len(r)).map(lambda k: tuple(r[:k]))
        ),
    )
    def test_batched_equals_reference_property(self, seed, n, d, width_mult, ridges):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(n, d))
        y = rng.uniform(-3.0, 3.0, size=n)
        width = width_mult * width_of(X)
        self._assert_matches_reference(X, y, width, ridges, max_centers=n)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        d=st.integers(1, 4),
        width_mult=st.sampled_from(rbfn.WIDTH_MULTIPLIERS),
        kept=st.sets(st.integers(0, len(rbfn.RIDGE_GRID) - 1), min_size=1).map(sorted),
    )
    def test_a_subset_of_the_ridges_grows_the_same_paths_property(
            self, seed, n, d, width_mult, kept):
        # the premise of pruning by ridge: a cross-validation fold trains
        # only the ridges that can still win, in grid order, and each of
        # their paths, and so each of its scores, must be the full grid's
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(n, d))
        y = rng.uniform(-3.0, 3.0, size=n)
        D = rbfn.sq_distances(X, X)
        D_new = rbfn.sq_distances(rng.uniform(-3.0, 3.0, size=(7, d)), X)
        width = width_mult * rbfn.median_width(D)
        cap = min(n, rbfn.MAX_CENTERS_CAP)
        full = rbfn.train_ols_paths(D, y, width, rbfn.RIDGE_GRID, cap)
        subset = rbfn.train_ols_paths(D, y, width, [rbfn.RIDGE_GRID[i] for i in kept], cap)
        for i, path in zip(kept, subset):
            for got, want in [(getattr(path, f), getattr(full[i], f)) for f in
                              ("selected", "gs_coefs", "ortho_weights")] + [
                    (path.predictions(D_new), full[i].predictions(D_new))]:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPathPredictions:
    """Oracles for scoring every truncation of a path at once: column
    k - 1 of ``predictions`` is the k-center network built on its own."""

    # float64 rounding through a triangular solve of at most 20 factors
    RTOL = 1e-10

    def _assert_columns_match_networks(self, path, inputs, X):
        preds = predict(path, inputs, X)
        assert preds.shape == (X.shape[0], path.max_size)
        for k in range(1, path.max_size + 1):
            expected = truncated_network(path, inputs, k, X)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(
                preds[:, k - 1], expected, rtol=self.RTOL, atol=self.RTOL * scale
            )

    def test_columns_equal_truncated_models_early_stop(self, rng):
        X = np.repeat(rng.normal(size=(6, 2)), 2, axis=0)
        y = rng.normal(size=12)
        path = one_path(X, y, 1.0, 0.0, max_centers=12)
        assert path.max_size == 6  # stopped early
        self._assert_columns_match_networks(path, X, rng.normal(size=(9, 2)))

    def test_ridge_zero_weights_equal_least_squares(self, rng):
        # with ridge 0 each truncation is the least-squares fit on its centers
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        # a well-conditioned design (condition number below 100)
        path = one_path(X, y, 0.8, 0.0, max_centers=8)
        X_new = rng.normal(size=(12, 2))
        preds = predict(path, X, X_new)
        for k in range(1, path.max_size + 1):
            centers = X[path.selected[:k]]
            weights = np.linalg.lstsq(cdist_design(X, centers, path.width), y, rcond=None)[0]
            expected = cdist_design(X_new, centers, path.width) @ weights
            np.testing.assert_allclose(
                preds[:, k - 1], expected,
                rtol=self.RTOL, atol=self.RTOL * np.abs(expected).max(),
            )

    def test_weights_equal_back_substitution(self, rng):
        # every ridge, every truncation: predictions equal the network whose
        # weights are back-substituted through the Gram-Schmidt factors
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        for ridge in (0.0, 1e-6, 1e-1):
            path = one_path(X, y, 1.0, ridge, max_centers=20)
            self._assert_columns_match_networks(path, X, rng.normal(size=(25, 3)))
            # on the training inputs the design factors as W A
            self._assert_columns_match_networks(path, X, X)

    def test_equals_scipy_solve_triangular(self, rng):
        # the column slice of the shared numpy distances and the direct trtrs
        # call give the bits of cdist on the centers and scipy's
        # solve_triangular, for one-center paths too (a 1 x 1 factor is C-
        # and F-ordered)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        for ridge in (0.0, 1e-6, 1e-1):
            for max_centers in (1, 2, 20):
                path = one_path(X, y, 1.0, ridge, max_centers=max_centers)
                for X_new in (rng.normal(size=(25, 3)), X, X[:1]):
                    assert np.array_equal(
                        predict(path, X, X_new), reference_predictions(path, X, X_new)
                    )


class TestSelectCenters:
    """Width, ridge and center count are chosen by ``run_experiment``."""

    def test_single_candidate_path(self, rng):
        X = rng.normal(size=(16, 2))
        y = rng.normal(size=16)
        train, test = fdata.split(vector_dataset(X, y), 4, shuffle=False)
        spec = ExperimentSpec(
            "one-rbfn", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=1),
        )
        report = run_experiment(spec, train, test)
        assert report.selected == {"width_multiplier": 1.0, "ridge": 1e-3, "n_centers": 1}

    def test_deterministic_per_seed(self, rng):
        X = rng.normal(size=(28, 2))
        y = rng.normal(size=28)
        train, test = fdata.split(vector_dataset(X, y), 4, shuffle=False)
        spec = ExperimentSpec(
            "det-rbfn", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=12),
            seed=9,
        )
        a = run_experiment(spec, train, test)
        b = run_experiment(spec, train, test)
        assert a.selected == b.selected
        assert (a.cv_score, a.test_rmse, a.notes) == (b.cv_score, b.test_rmse, b.notes)


class TestFitRbfn:
    def test_recovers_signal(self, rng):
        n = 60
        X = rng.uniform(-2, 2, size=(n, 2))
        y = np.exp(-np.sum(X**2, axis=1)) * 3.0 + 0.05 * rng.normal(size=n)
        test_X = rng.uniform(-2, 2, size=(40, 2))
        test_y = np.exp(-np.sum(test_X**2, axis=1)) * 3.0
        spec = ExperimentSpec(
            "bump", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(0.5, 1.0, 2.0), ridges=(1e-6, 1e-3),
                              max_centers=30),
            seed=5,
        )
        report = run_experiment(spec, vector_dataset(X, y), vector_dataset(test_X, test_y))
        assert report.test_rmse < 0.2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vector_dataset
from fdareg import fdata, rbfn
from fdareg.errors import ValidationError
from fdareg.selection import (
    ExperimentSpec,
    RbfnSettings,
    RepresentationSpec,
    run_experiment,
)


def brute_force_greedy(F, y, ridge, steps):
    """Oracle for the selection order: at each step orthogonalize every
    remaining candidate against the span of the selected columns (via
    lstsq residuals) and pick the best regularized error reduction."""
    n, M = F.shape
    selected = []
    for _ in range(steps):
        best_j, best_red = None, -np.inf
        for j in range(M):
            if j in selected:
                continue
            if selected:
                S = F[:, selected]
                w = F[:, j] - S @ np.linalg.lstsq(S, F[:, j], rcond=None)[0]
            else:
                w = F[:, j]
            energy = w @ w
            if energy <= 1e-12 * (F[:, j] @ F[:, j]):
                continue
            red = (w @ y) ** 2 / (energy + ridge)
            if red > best_red + 1e-12:
                best_red, best_j = red, j
        if best_j is None:
            break
        selected.append(best_j)
    return selected


def reference_train_ols(X, y, width, ridge, max_centers, candidate_idx=None):
    """Reference for ``train_ols_paths``: one ridge at a time, with the
    numpy ``W -= outer(w, c)`` deflation that the lockstep BLAS rank-1
    update replaced. Returns the path and, per step, the share of its
    original energy that the selected column kept."""
    n = X.shape[0]
    candidate_idx = np.arange(n) if candidate_idx is None else np.asarray(candidate_idx)
    n_cand = candidate_idx.size
    F = rbfn.design_matrix(X, X[candidate_idx], width)
    base_energy = np.einsum("ij,ij->j", F, F)
    W = F.copy()
    available = np.ones(n_cand, dtype=bool)
    selected, kept = [], []
    coef_rows = np.zeros((max_centers, n_cand))
    ortho_weights = np.zeros(max_centers)
    objective = [float(y @ y)]
    for step in range(max_centers):
        energy = np.einsum("ij,ij->j", W, W)
        proj = W.T @ y
        usable = available & (energy > rbfn.ENERGY_TOL * base_energy)
        if not np.any(usable):
            break
        reduction = np.full(n_cand, -np.inf)
        reduction[usable] = proj[usable] ** 2 / (energy[usable] + ridge)
        best = int(np.flatnonzero(reduction >= reduction.max() - rbfn.TIE_TOL)[0])
        w_best = W[:, best].copy()
        e_best = energy[best]
        ortho_weights[step] = proj[best] / (e_best + ridge)
        objective.append(objective[-1] - proj[best] ** 2 / (e_best + ridge))
        selected.append(best)
        kept.append(e_best / base_energy[best])
        available[best] = False
        coefs = (w_best @ W) / e_best
        coef_rows[step] = coefs
        W -= np.outer(w_best, coefs)
        W[:, best] = 0.0
    k = len(selected)
    sel = np.array(selected, dtype=int)
    path = rbfn.RbfnPath(
        inputs=X.copy(),
        selected=candidate_idx[sel],
        gs_coefs=np.triu(coef_rows[:k][:, sel], 1) + np.eye(k),
        ortho_weights=ortho_weights[:k],
        objective=np.array(objective),
        width=width,
        ridge=ridge,
    )
    return path, np.array(kept)


class TestPredict:
    def test_single_center_at_itself(self):
        model = rbfn.RbfnModel(np.array([[1.0, 2.0]]), 0.5, np.array([3.5]))
        assert rbfn.predict(model, np.array([1.0, 2.0])) == pytest.approx(3.5)

    def test_zero_weights(self, rng):
        model = rbfn.RbfnModel(rng.normal(size=(4, 3)), 1.0, np.zeros(4))
        X = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(rbfn.predict(model, X), 0.0)

    def test_far_input_decays(self, rng):
        centers = rng.normal(size=(5, 2))
        weights = rng.normal(size=5)
        model = rbfn.RbfnModel(centers, 1.0, weights)
        far = centers[0] + 20.0 * np.array([1.0, 0.0]) + 5.0
        out = abs(rbfn.predict(model, far))
        assert out < 1e-6 * np.abs(weights).max()

    def test_permutation_invariance(self, rng):
        centers = rng.normal(size=(6, 3))
        weights = rng.normal(size=6)
        model = rbfn.RbfnModel(centers, 0.8, weights)
        perm = rng.permutation(6)
        permuted = rbfn.RbfnModel(centers[perm], 0.8, weights[perm])
        X = rng.normal(size=(20, 3))
        np.testing.assert_allclose(
            rbfn.predict(model, X), rbfn.predict(permuted, X), atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        model = rbfn.RbfnModel(rng.normal(size=(3, 4)), 1.0, np.ones(3))
        with pytest.raises(ValidationError):
            rbfn.predict(model, np.ones(5))


class TestTrainOls:
    def test_matches_brute_force_greedy(self, rng):
        # 20 instances, n <= 20, 5 candidate centers, every step compared
        for trial in range(20):
            n = int(rng.integers(8, 21))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            pool = np.arange(5)
            y = rng.normal(size=n)
            width = 0.5 + rng.uniform()
            ridge = float(rng.choice([0.0, 1e-4, 1e-1]))

            F = rbfn.design_matrix(X, X[pool], width)
            expected = brute_force_greedy(F, y, ridge, steps=5)

            path = rbfn.train_ols(
                X, y, width, ridge, max_centers=len(expected), candidate_idx=pool
            )
            np.testing.assert_array_equal(path.selected, expected)

    def test_interpolation_limit(self, rng):
        n = 12
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        width = rbfn.median_width(X)
        path = rbfn.train_ols(X, y, width, ridge=0.0, max_centers=n)
        model = path.model(path.max_size)
        resid = rbfn.predict(model, X) - y
        assert float(resid @ resid) <= 1e-8 * float(y @ y)

    def test_objective_monotone(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        for ridge in (0.0, 1e-3, 1.0):
            path = rbfn.train_ols(X, y, 1.0, ridge, max_centers=25)
            assert np.all(np.diff(path.objective) <= 1e-10)

    def test_centers_distinct_training_points(self, rng):
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        path = rbfn.train_ols(X, y, 1.0, 1e-3, max_centers=15)
        assert len(set(path.selected.tolist())) == path.max_size
        model = path.model(10)
        for c in model.centers:
            assert any(np.array_equal(c, x) for x in X)

    def test_max_centers_exceeds_n(self, rng):
        X = rng.normal(size=(5, 2))
        with pytest.raises(ValidationError):
            rbfn.train_ols(X, np.zeros(5), 1.0, 0.0, max_centers=6)

    def test_early_stop_shortens_path(self, rng):
        # every point twice: once one twin is selected the other has no
        # energy left, so the path stops after the distinct points
        X = np.repeat(rng.normal(size=(4, 2)), 2, axis=0)
        y = rng.normal(size=8)
        path = rbfn.train_ols(X, y, 1.0, ridge=0.0, max_centers=8)
        assert path.max_size == 4
        assert len(set(map(tuple, X[path.selected]))) == 4

    def test_truncation_weights_consistent(self, rng):
        # model(k) must reproduce a fresh training run capped at k
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        path = rbfn.train_ols(X, y, 1.2, 1e-2, max_centers=15)
        fresh = rbfn.train_ols(X, y, 1.2, 1e-2, max_centers=7)
        np.testing.assert_array_equal(path.selected[:7], fresh.selected)
        np.testing.assert_allclose(path.weights(7), fresh.weights(7), atol=1e-10)


class TestTrainOlsPaths:
    """Oracles for growing every ridge's path in lockstep."""

    RIDGES = (0.0, 1e-6, 1e-3, 1.0)
    RTOL = 1e-9
    # Rounding differences between two correct implementations grow like
    # eps over the share of its energy a selected column kept. Once that
    # share falls below this floor they can reach 1e-5, so the numbers are
    # compared on the steps before; the selections on the whole path.
    KEPT_FLOOR = 1e-8

    def _assert_matches_reference(self, X, y, width, ridges, max_centers, pool=None):
        paths = rbfn.train_ols_paths(X, y, width, ridges, max_centers, pool)
        assert len(paths) == len(ridges)
        for ridge, path in zip(ridges, paths):
            ref, kept = reference_train_ols(X, y, width, ridge, max_centers, pool)
            assert path.ridge == ridge
            np.testing.assert_array_equal(path.selected, ref.selected)
            below = np.flatnonzero(kept < self.KEPT_FLOOR)
            k = int(below[0]) if below.size else kept.size
            for got, want in (
                (path.gs_coefs[:k, :k], ref.gs_coefs[:k, :k]),
                (path.ortho_weights[:k], ref.ortho_weights[:k]),
                (path.objective[: k + 1], ref.objective[: k + 1]),
            ):
                np.testing.assert_allclose(
                    got, want, rtol=self.RTOL, atol=self.RTOL * np.abs(want).max()
                )
        return paths

    def test_matches_reference_per_ridge(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        paths = self._assert_matches_reference(
            X, y, rbfn.median_width(X), self.RIDGES, max_centers=20
        )
        assert all(p.max_size == 20 for p in paths)

    def test_some_ridges_stop_early_while_others_go_on(self):
        # a wide width: columns run out of energy after a few steps, at a
        # step that depends on the ridge
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        width = 8.0 * rbfn.median_width(X)
        paths = self._assert_matches_reference(X, y, width, self.RIDGES, max_centers=7)
        assert [p.max_size for p in paths] == [7, 6, 6, 7]

    def test_matches_reference_candidate_subset(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        pool = rng.choice(25, size=12, replace=False)
        paths = self._assert_matches_reference(
            X, y, 1.3, self.RIDGES, max_centers=10, pool=pool
        )
        for p in paths:
            assert set(p.selected.tolist()) <= set(pool.tolist())

    def test_permuted_ridges_give_the_same_paths(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        width = 8.0 * rbfn.median_width(X)  # paths of different lengths
        order = (3, 0, 2, 1)
        paths = rbfn.train_ols_paths(X, y, width, self.RIDGES, max_centers=10)
        permuted = rbfn.train_ols_paths(
            X, y, width, [self.RIDGES[i] for i in order], max_centers=10
        )
        for i, path in zip(order, permuted):
            for field in ("selected", "gs_coefs", "ortho_weights", "objective"):
                np.testing.assert_array_equal(
                    getattr(path, field), getattr(paths[i], field)
                )

    @pytest.mark.parametrize(
        "ridges, max_centers",
        [((1e-3, -1e-6), 5), ((), 5), ((1e-3,), 11)],
        ids=["negative-ridge", "no-ridge", "cap-above-candidates"],
    )
    def test_invalid_arguments(self, rng, ridges, max_centers):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError):
            rbfn.train_ols_paths(X, rng.normal(size=10), 1.0, ridges, max_centers)

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
        width = width_mult * rbfn.median_width(X)
        self._assert_matches_reference(X, y, width, ridges, max_centers=n)


def back_substituted_weights(path, k):
    """Reference for ``RbfnPath.weights``: the row-by-row back-substitution
    through the Gram-Schmidt factors that the triangular solve replaced."""
    theta = np.zeros(k)
    for i in range(k - 1, -1, -1):
        theta[i] = path.ortho_weights[i] - path.gs_coefs[i, i + 1 : k] @ theta[i + 1 : k]
    return theta


class TestPathPredictions:
    """Oracles for scoring every truncation of a path at once."""

    # float64 rounding through a triangular solve of at most 20 factors
    RTOL = 1e-10

    def _assert_columns_match_models(self, path, X):
        preds = path.predictions(X)
        assert preds.shape == (X.shape[0], path.max_size)
        for k in range(1, path.max_size + 1):
            expected = rbfn.predict(path.model(k), X)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(
                preds[:, k - 1], expected, rtol=self.RTOL, atol=self.RTOL * scale
            )

    def test_columns_equal_truncated_models_early_stop(self, rng):
        X = np.repeat(rng.normal(size=(6, 2)), 2, axis=0)
        y = rng.normal(size=12)
        path = rbfn.train_ols(X, y, 1.0, ridge=0.0, max_centers=12)
        assert path.max_size == 6  # stopped early
        self._assert_columns_match_models(path, rng.normal(size=(9, 2)))

    def test_columns_equal_truncated_models_candidate_subset(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        pool = rng.choice(25, size=12, replace=False)
        path = rbfn.train_ols(X, y, 1.3, 1e-3, max_centers=10, candidate_idx=pool)
        assert set(path.selected.tolist()) <= set(pool.tolist())
        self._assert_columns_match_models(path, rng.normal(size=(15, 3)))

    def test_ridge_zero_weights_equal_least_squares(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        # a well-conditioned design (condition number below 100)
        path = rbfn.train_ols(X, y, 0.8, ridge=0.0, max_centers=8)
        for k in range(1, path.max_size + 1):
            design = rbfn.design_matrix(X, X[path.selected[:k]], path.width)
            expected = np.linalg.lstsq(design, y, rcond=None)[0]
            np.testing.assert_allclose(
                path.weights(k), expected,
                rtol=self.RTOL, atol=self.RTOL * np.abs(expected).max(),
            )

    def test_weights_equal_back_substitution(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        for ridge in (0.0, 1e-6, 1e-1):
            path = rbfn.train_ols(X, y, 1.0, ridge, max_centers=20)
            for k in range(1, path.max_size + 1):
                expected = back_substituted_weights(path, k)
                np.testing.assert_allclose(
                    path.weights(k), expected,
                    rtol=self.RTOL, atol=self.RTOL * np.abs(expected).max(),
                )

    def test_weights_out_of_range(self, rng):
        X = rng.normal(size=(10, 2))
        path = rbfn.train_ols(X, rng.normal(size=10), 1.0, 1e-3, max_centers=4)
        for k in (0, 5):
            with pytest.raises(ValidationError):
                path.weights(k)


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

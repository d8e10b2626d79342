import numpy as np
import pytest

from conftest import trainer_gradient, vector_dataset
from fdareg import fdata, mlp
from fdareg.errors import ValidationError
from fdareg.selection import (
    ExperimentSpec,
    MlpSettings,
    PcaSpec,
    RbfnSettings,
    RepresentationSpec,
    run_experiment,
)
from oracles import central_difference_grad


def regularized_loss(model, X, y):
    """The loss ``mlp.train`` minimizes, from the model's outputs."""
    resid = mlp.forward(model, X) - y
    weights = np.concatenate([model.hidden_weights.ravel(), model.output_weights])
    return float(resid @ resid + model.decay * weights @ weights)


class TestForward:
    def test_zero_network(self):
        model = mlp.MlpModel(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        assert mlp.forward(model, np.ones(3)) == 0.0

    def test_zero_hidden_weights_constant_output(self, rng):
        b = rng.normal(size=3)
        w = rng.normal(size=3)
        b0 = 1.5
        model = mlp.MlpModel(np.zeros((3, 4)), b, w, b0)
        X = rng.normal(size=(20, 4))
        expected = b0 + np.tanh(b) @ w
        np.testing.assert_allclose(mlp.forward(model, X), expected)

    def test_hidden_permutation_symmetry(self, rng):
        V = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        w = rng.normal(size=4)
        model = mlp.MlpModel(V, b, w, 0.3)
        perm = rng.permutation(4)
        permuted = mlp.MlpModel(V[perm], b[perm], w[perm], 0.3)
        X = rng.normal(size=(15, 3))
        np.testing.assert_allclose(
            mlp.forward(model, X), mlp.forward(permuted, X), atol=1e-12
        )

    def test_dimension_mismatch(self):
        model = mlp.MlpModel(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValidationError):
            mlp.forward(model, np.ones(4))


class TestGradients:
    def test_matches_central_differences(self, rng):
        # the gradient train steps on, -2 (J^T r - decay mask p), against
        # central differences of its loss: 20 random configurations, every
        # parameter, 1e-6 relative
        for _ in range(20):
            hidden = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            n = int(rng.integers(4, 12))
            decay = float(rng.choice([0.0, 1e-3, 0.5]))
            X = rng.normal(size=(n, dim))
            y = rng.normal(size=n)
            params = rng.normal(size=hidden * dim + 2 * hidden + 1) * 0.8
            grad = trainer_gradient(params, X, y, hidden, decay)
            fd = central_difference_grad(
                lambda p: mlp._batched_loss(p[None], X, y, hidden, decay)[0][0], params
            )
            # entries below the FD noise floor are compared on the
            # gradient's own scale
            scale = np.maximum(np.abs(fd), 1e-3 * max(1.0, np.abs(fd).max()))
            assert np.max(np.abs(grad - fd) / scale) < 1e-6

    def test_decay_excludes_biases(self, rng):
        # the penalty is decay * ||non-bias weights||^2: moving the biases
        # leaves it unchanged
        hidden, dim = 3, 2
        X = rng.normal(size=(6, dim))
        y = rng.normal(size=6)
        params = rng.normal(size=(1, hidden * dim + 2 * hidden + 1))
        sv, sb, sw, ib0 = mlp._shapes(hidden, dim)
        moved = params.copy()
        moved[0, sb] += rng.normal(size=hidden)
        moved[0, ib0] += 1.5

        def penalty(p):
            with_decay = mlp._batched_loss(p, X, y, hidden, 10.0)[0]
            return with_decay - mlp._batched_loss(p, X, y, hidden, 0.0)[0]

        expected = 10.0 * (params[0, sv] @ params[0, sv] + params[0, sw] @ params[0, sw])
        assert penalty(params)[0] == pytest.approx(expected, rel=1e-10)
        assert penalty(moved)[0] == pytest.approx(expected, rel=1e-10)


class TestTrain:
    def test_fits_linear_function(self, rng):
        X = rng.normal(size=(40, 2))
        y = 0.7 * X[:, 0] - 0.2 * X[:, 1] + 0.5
        model = mlp.train(X, y, hidden=2, decay=1e-6, restarts=6, seed=1, max_iter=300)
        resid = mlp.forward(model, X) - y
        assert np.sqrt(np.mean(resid**2)) < 0.05

    def test_huge_decay_gives_constant_mean_predictor(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30) + 4.0
        model = mlp.train(X, y, hidden=2, decay=1e6, restarts=4, seed=2, max_iter=300)
        assert np.max(np.abs(model.hidden_weights)) < 1e-3
        assert np.max(np.abs(model.output_weights)) < 1e-3
        preds = mlp.forward(model, X)
        np.testing.assert_allclose(preds, np.mean(y), atol=0.05)

    def test_best_of_restarts(self, rng):
        # training once with many restarts is at least as good as each
        # single-restart run launched from the same master seed
        X = rng.normal(size=(25, 2))
        y = np.sin(X[:, 0]) * np.cos(X[:, 1])

        best = mlp.train(X, y, hidden=3, decay=1e-4, restarts=10, seed=7, max_iter=150)
        best_loss = regularized_loss(best, X, y)
        # pick a few alternative restart counts; the 10-restart winner can
        # never lose to the 1-restart run with the same seed stream
        single = mlp.train(X, y, hidden=3, decay=1e-4, restarts=1, seed=7, max_iter=150)
        assert best_loss <= regularized_loss(single, X, y) + 1e-9

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        m1 = mlp.train(X, y, hidden=2, decay=1e-3, restarts=5, seed=11, max_iter=100)
        m2 = mlp.train(X, y, hidden=2, decay=1e-3, restarts=5, seed=11, max_iter=100)
        np.testing.assert_array_equal(m1.hidden_weights, m2.hidden_weights)
        np.testing.assert_array_equal(m1.output_weights, m2.output_weights)

    def test_monotone_loss_under_optimizer(self, rng):
        # accepted steps never increase the regularized loss: verify the
        # final loss does not exceed the initial loss of the best restart
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        init = mlp.init_params(3, 2, 2, 4)
        init_losses = mlp._batched_loss(init, X, y, 2, 1e-3)[0]
        model = mlp.train(X, y, hidden=2, decay=1e-3, restarts=4, seed=3, max_iter=200)
        final = regularized_loss(model, X, y)
        assert final <= min(init_losses) + 1e-9


class TestSelectMeta:
    """PCA size, hidden units and decay are chosen by ``run_experiment``."""

    def test_degenerate_grid_single_cell(self, rng):
        X = rng.normal(size=(30, 5))
        y = X[:, 0] + 0.1 * rng.normal(size=30)
        train, test = fdata.split(vector_dataset(X, y), 6, shuffle=False)
        spec = ExperimentSpec(
            "one-mlp", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components=2, whiten=True),
            mlp=MlpSettings(hidden_grid=(2,), decay_grid=(1e-3,), restarts=3,
                            cv_restarts=3, max_iter=80, cv_max_iter=80),
            folds=3,
        )
        report = run_experiment(spec, train, test)
        assert report.selected == {"n_components": 2, "hidden": 2, "decay": 1e-3}

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 4))
        y = X[:, 0] - X[:, 1]
        train, test = fdata.split(vector_dataset(X, y), 6, shuffle=False)
        spec = ExperimentSpec(
            "det-mlp", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components="cv", component_grid=(1, 2, 3),
                        whiten=True),
            mlp=MlpSettings(hidden_grid=(1, 2), decay_grid=(1e-4, 1e-2), restarts=3,
                            cv_restarts=3, max_iter=60, cv_max_iter=60),
            folds=3,
            seed=9,
        )
        a = run_experiment(spec, train, test)
        b = run_experiment(spec, train, test)
        assert a.selected == b.selected
        assert (a.cv_score, a.test_rmse, a.notes) == (b.cv_score, b.test_rmse, b.notes)

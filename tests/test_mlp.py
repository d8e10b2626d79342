import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import train_one, trainer_gradient, vector_dataset
from fdareg import fdata, mlp
from fdareg.errors import TrainingError, ValidationError
from fdareg.selection import (
    ExperimentSpec,
    MlpSettings,
    PcaSpec,
    RbfnSettings,
    RepresentationSpec,
    run_experiment,
)
from oracles import central_difference_grad, reference_lm_train

MODEL_FIELDS = ("hidden_weights", "hidden_biases", "output_weights", "output_bias")


def assert_same_model(a, b):
    for field in MODEL_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def regularized_loss(model, X, y, decay):
    """The loss ``mlp.train`` minimizes, from the model's outputs."""
    resid = mlp.forward(model, X) - y
    weights = np.concatenate([model.hidden_weights.ravel(), model.output_weights])
    return float(resid @ resid + decay * weights @ weights)


class TestForward:
    def test_zero_network(self):
        model = mlp.MlpModel(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        np.testing.assert_array_equal(mlp.forward(model, np.ones((1, 3))), [0.0])

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
        model = train_one(X, y, hidden=2, decay=1e-6, restarts=6, seed=1, max_iter=300)
        resid = mlp.forward(model, X) - y
        assert np.sqrt(np.mean(resid**2)) < 0.05

    def test_huge_decay_gives_constant_mean_predictor(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30) + 4.0
        model = train_one(X, y, hidden=2, decay=1e6, restarts=4, seed=2, max_iter=300)
        assert np.max(np.abs(model.hidden_weights)) < 1e-3
        assert np.max(np.abs(model.output_weights)) < 1e-3
        preds = mlp.forward(model, X)
        np.testing.assert_allclose(preds, np.mean(y), atol=0.05)

    def test_best_of_restarts(self, rng):
        # training once with many restarts is at least as good as each
        # single-restart run launched from the same master seed
        X = rng.normal(size=(25, 2))
        y = np.sin(X[:, 0]) * np.cos(X[:, 1])

        best = train_one(X, y, hidden=3, decay=1e-4, restarts=10, seed=7, max_iter=150)
        best_loss = regularized_loss(best, X, y, 1e-4)
        # pick a few alternative restart counts; the 10-restart winner can
        # never lose to the 1-restart run with the same seed stream
        single = train_one(X, y, hidden=3, decay=1e-4, restarts=1, seed=7, max_iter=150)
        assert best_loss <= regularized_loss(single, X, y, 1e-4) + 1e-9

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        m1 = train_one(X, y, hidden=2, decay=1e-3, restarts=5, seed=11, max_iter=100)
        m2 = train_one(X, y, hidden=2, decay=1e-3, restarts=5, seed=11, max_iter=100)
        np.testing.assert_array_equal(m1.hidden_weights, m2.hidden_weights)
        np.testing.assert_array_equal(m1.output_weights, m2.output_weights)

    def test_monotone_loss_under_optimizer(self, rng):
        # accepted steps never increase the regularized loss: verify the
        # final loss does not exceed the initial loss of the best restart
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        init = mlp.init_params(3, 2, 2, 4)
        init_losses = mlp._batched_loss(init, X, y, 2, 1e-3)[0]
        model = train_one(X, y, hidden=2, decay=1e-3, restarts=4, seed=3, max_iter=200)
        final = regularized_loss(model, X, y, 1e-3)
        assert final <= min(init_losses) + 1e-9

    def test_equals_reference_trainer(self, rng):
        # caching the Gauss-Newton system of restarts whose last step was
        # rejected reproduces the trainer that rebuilds it every iteration
        # bit for bit; every restart count, max_iter and input scale is
        # crossed, and hidden sizes and decays cycle through the cases
        decays = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        cases = itertools.product((1, 8, 60), (1, 20, 150), (False, True))
        for i, (restarts, max_iter, badly_scaled) in enumerate(cases):
            hidden, decay = 1 + i % 6, decays[i % len(decays)]
            dim = int(rng.integers(1, 5))
            X = rng.normal(size=(24, dim))
            if badly_scaled:
                X *= 10.0 ** rng.uniform(-3, 3, size=dim)
            y = np.tanh(X[:, 0] / np.std(X[:, 0])) + 0.1 * rng.normal(size=24)
            seed = int(rng.integers(2**31))
            model = train_one(X, y, hidden, decay, restarts, seed, max_iter)
            expected, _, _ = reference_lm_train(X, y, hidden, decay, restarts, seed, max_iter)
            assert_same_model(model, expected)

    def test_lstsq_fallback_equals_reference(self, monkeypatch):
        # a duplicated and an all-zero input column with no decay make the
        # damped system exactly singular once mu has shrunk: the batched
        # solve raises and every live restart is solved by lstsq
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        X = np.column_stack([10.0 * x, 10.0 * x, np.zeros(30)])
        y = np.sin(x) + 0.1 * rng.normal(size=30)
        lstsq = np.linalg.lstsq
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        for seed in range(3):
            expected, _, _ = reference_lm_train(X, y, 2, 0.0, restarts=8, seed=seed,
                                                max_iter=150)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "lstsq", spy)
                model = train_one(X, y, 2, 0.0, restarts=8, seed=seed, max_iter=150)
            assert_same_model(model, expected)
        assert calls

    def test_rebuilds_system_only_after_accepted_steps(self, rng, monkeypatch):
        # the Jacobian is built once per restart at the start and once after
        # each accepted step it goes on from; every restart stops before
        # max_iter, so only the steps that end a restart by the relative-
        # reduction stop are left unbuilt, and the reference does not count them
        X = rng.normal(size=(30, 3))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=30)
        expected, accepted, reference_rows = reference_lm_train(
            X, y, 2, 1e-3, restarts=8, seed=5, max_iter=500
        )
        jacobian = mlp._jacobian
        rows = []

        def spy(params, *args):
            rows.append(params.shape[0])
            return jacobian(params, *args)

        monkeypatch.setattr(mlp, "_jacobian", spy)
        model = train_one(X, y, 2, 1e-3, restarts=8, seed=5, max_iter=500)
        assert_same_model(model, expected)
        assert sum(rows) == 8 + accepted
        assert sum(rows) < reference_rows

    def test_non_finite_inputs_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        X_bad = X.copy()
        X_bad[3, 1] = np.nan
        y_bad = y.copy()
        y_bad[0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            train_one(X_bad, y, 2, 1e-3, restarts=2, seed=0)
        with pytest.raises(ValidationError, match="finite"):
            train_one(X, y_bad, 2, 1e-3, restarts=2, seed=0)

    def test_only_a_stack_is_trained(self, rng):
        # one network is a one-job stack: a bare X with scalar settings, a
        # scalar among the per-job lists, or lists of unequal length are a
        # named error, not a TypeError from iterating a number
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        for args in ((X, y, 2, 1e-3, 3, 0), ([X], [y], [2], 1e-3, 3, [0]),
                     ([X], [y], [2, 3], [1e-3], 3, [0])):
            with pytest.raises(ValidationError, match="a stack needs per job"):
                mlp.train(*args)

    def test_non_finite_initial_loss_raises(self, rng):
        # finite targets whose squares overflow: every restart starts at an
        # infinite loss
        X = rng.normal(size=(10, 2))
        y = np.full(10, 1e200)
        with pytest.raises(TrainingError, match="3 of 3 restart"):
            train_one(X, y, 2, 1e-3, restarts=3, seed=0)



def easy_problem():
    """A smooth target with little noise, on which a restart's steps stop
    paying long before 500 iterations."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    return X, np.tanh(X[:, 0]) + 0.05 * rng.normal(size=30)


def trial_losses(X, y, hidden, decay, restarts, seed, max_iter):
    """``train_one`` and, per ``mlp._batched_loss`` call it made, the
    parameters it evaluated and their losses: the first call is the
    initial evaluation, every later one a trial step."""
    calls, real = [], mlp._batched_loss

    def spy(params, *args):
        loss, resid, act = real(params, *args)
        calls.append((params.copy(), loss.copy()))
        return loss, resid, act

    with mock.patch.object(mlp, "_batched_loss", spy):
        model = train_one(X, y, hidden, decay, restarts, seed, max_iter)
    return model, calls


class TestStop:
    """A restart ends once an accepted step's actual and predicted relative
    reductions of the loss are both at most ``mlp.FTOL``."""

    def test_a_loop_ends_before_its_budget(self):
        # 8 restarts with the stop end in 169 iterations; without it, 462
        X, y = easy_problem()
        _, calls = trial_losses(X, y, 2, 1e-3, 8, 0, 500)
        with mock.patch.object(mlp, "FTOL", 0.0):
            _, without = trial_losses(X, y, 2, 1e-3, 8, 0, 500)
        assert len(calls) - 1 < 250 < len(without) - 1 < 500

    def test_the_last_accepted_step_of_a_stopped_restart_stops_paying(self):
        # one restart a loop, so the trial calls are its trajectory; its
        # damping follows from the accepted and rejected steps
        X, y = easy_problem()
        for hidden, decay, seed in ((1, 1e-5, 0), (2, 1e-3, 1), (3, 1e-2, 2), (2, 0.0, 3)):
            _, calls = trial_losses(X, y, hidden, decay, 1, seed, 500)
            (params, (loss,)), trials = calls[0], calls[1:]
            assert 0 < len(trials) < 500
            mu, last = 1e-2, None
            for trial, (trial_loss,) in trials:
                if trial_loss < loss:
                    last = params[0], trial[0], loss, trial_loss, mu
                    params, loss, mu = trial, trial_loss, max(mu / 3.0, 1e-14)
                else:
                    mu *= 2.0
            before, after, loss, trial_loss, mu = last
            # the last trial was accepted, and the gradient test had not ended the restart
            assert np.array_equal(after, trials[-1][0][0])
            g = -0.5 * trainer_gradient(before, X, y, hidden, decay)
            assert np.linalg.norm(trainer_gradient(after, X, y, hidden, decay)) > (
                mlp.GRAD_TOL * (1.0 + trial_loss))
            h = after - before
            assert (loss - trial_loss) / loss <= mlp.FTOL
            assert (h @ g + mu * h @ h) / loss <= mlp.FTOL * (1.0 + 1e-6)

    def test_without_the_stop_the_whole_budget_runs_as_the_reference(self, monkeypatch):
        # FTOL 0 is the trainer before the stop: an accepted step always
        # lowers the loss, so no restart ends by the stop
        monkeypatch.setattr(mlp, "FTOL", 0.0)
        X, y = easy_problem()
        model, calls = trial_losses(X, y, 2, 1e-3, 8, 0, 150)
        assert len(calls) - 1 == 150
        expected, _, _ = reference_lm_train(X, y, 2, 1e-3, 8, 0, 150)
        assert_same_model(model, expected)


STACK_ROWS, STACK_ITER = 20, 150


def count_lstsq(train, *args, **kwargs):
    """``train(*args, **kwargs)`` and the number of ``np.linalg.lstsq`` calls
    it made."""
    with mock.patch.object(np.linalg, "lstsq", side_effect=np.linalg.lstsq) as spy:
        return train(*args, **kwargs), spy.call_count


@functools.cache
def singular_job(hidden):
    """A job whose damped system turns exactly singular: a duplicated and an
    all-zero input column, no decay, and the first seed whose restart 0,
    trained alone, takes the lstsq fallback. A restart evolves as if alone
    until its job's first fallback, so the job falls back with any restart
    count."""
    x = np.random.default_rng(0).normal(size=STACK_ROWS)
    X = np.column_stack([1e3 * x, 1e3 * x, np.zeros(STACK_ROWS)])
    # about one seed in four falls back within the budget
    seed = next(s for s in range(100)
                if count_lstsq(train_one, X, x, hidden, 0.0, 1, s, STACK_ITER)[1])
    return X, x, 0.0, seed


def hexes(model):
    return {field: [v.hex() for v in np.ravel(getattr(model, field))] for field in MODEL_FIELDS}


class TestStack:
    """A stack of jobs trains in loops, one (n, d, hidden) each, every job
    bit for bit as if alone."""

    @settings(max_examples=12, deadline=None)
    @given(
        restarts=st.integers(1, 8),
        healthy=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                   st.sampled_from((0.0, 1e-5, 1e-3, 1e-1, 1.0)),
                                   st.sampled_from((STACK_ROWS, STACK_ROWS + 1)),
                                   st.integers(2, 3), st.integers(1, 3)),
                         min_size=2, max_size=6),
        singular_hidden=st.integers(1, 3),
        order=st.randoms(use_true_random=False),
        stack_bytes=st.sampled_from((1, 4_000, 16_000, 2**20)),
        most_restarts=st.sampled_from((1, 8, 16, mlp.RESTARTS)),
    )
    def test_each_job_equals_the_reference_trained_alone(self, restarts, healthy,
                                                         singular_hidden, order, stack_bytes,
                                                         most_restarts):
        # healthy jobs of their own n, d and hidden, a NaN in X
        # (ValidationError), overflowing targets (TrainingError) and an
        # exactly singular job, mixed in a drawn order, under drawn limits
        jobs = []
        for seed, decay, n, d, hidden in healthy:
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 1, size=d)
            y = np.tanh(X[:, 0] / np.std(X[:, 0])) + 0.1 * rng.normal(size=n)
            jobs.append((X, y, hidden, decay, seed))
        X, y, hidden, decay, seed = jobs[0]
        nan_X = X.copy()
        nan_X[3, 1] = np.nan
        X_s, y_s, decay_s, seed_s = singular_job(singular_hidden)
        jobs += [(nan_X, y, hidden, decay, seed), (X, np.full(y.size, 1e200), hidden, decay, seed),
                 (X_s, y_s, singular_hidden, decay_s, seed_s)]
        order.shuffle(jobs)
        loops, real_loop = [], mlp._train_stack

        def spy(X, y, hidden, decay, restarts, seed, max_iter):
            assert X.flags.c_contiguous
            loops.append([(X_j, y_j, hidden, d, s) for X_j, y_j, d, s in zip(X, y, decay, seed)])
            return real_loop(X, y, hidden, decay, restarts, seed, max_iter)

        Xs, ys, hiddens, decays, seeds = (list(column) for column in zip(*jobs))
        with mock.patch.object(mlp, "STACK_BYTES", stack_bytes), \
                mock.patch.object(mlp, "RESTARTS", most_restarts), \
                mock.patch.object(mlp, "_train_stack", spy):
            results, calls = count_lstsq(mlp.train, Xs, ys, hiddens, decays, restarts, seeds,
                                         STACK_ITER)

        def key(job):
            return (*job[0].shape, job[2])

        def over(size, n, d, hidden):
            """Whether ``size`` jobs of one group break a limit of one loop."""
            per_job = restarts * n * (hidden * d + 2 * hidden + 1) * 8
            return size * per_job > stack_bytes or size * restarts > most_restarts

        # the loops train the groups of one (n, d, hidden) in the order of
        # their first job, each group's jobs in order
        first_seen = list(dict.fromkeys(map(key, jobs)))
        grouped = [job for k in first_seen for job in jobs if key(job) == k]
        looped = [job for loop in loops for job in loop]
        assert len(looped) == len(grouped)
        for (X_a, y_a, *rest_a), (X_b, y_b, *rest_b) in zip(looped, grouped):
            assert np.array_equal(X_a, X_b, equal_nan=True) and np.array_equal(y_a, y_b)
            assert rest_a == rest_b
        # no loop of several jobs is over a limit, and a loop that its
        # group continues is full: one more job would break a limit
        for loop, after in zip(loops, loops[1:] + [None]):
            k = key(loop[0])
            assert all(key(job) == k for job in loop)
            assert len(loop) == 1 or not over(len(loop), *k)
            if after is not None and key(after[0]) == k:
                assert over(len(loop) + 1, *k)

        assert len(results) == len(jobs)
        expected_calls = 0
        for (X, y, hidden, decay, seed), result in zip(jobs, results):
            if not np.all(np.isfinite(X)):
                assert isinstance(result, ValidationError)
            elif y[0] == 1e200:
                assert isinstance(result, TrainingError)
                assert str(result) == (f"{restarts} of {restarts} restart(s) start at a "
                                       f"non-finite loss")
            else:
                (expected, _, _), n = count_lstsq(reference_lm_train, X, y, hidden, decay,
                                                  restarts, seed, STACK_ITER)
                expected_calls += n
                assert hexes(result) == hexes(expected)
        # only the singular job solved by lstsq, as often as it does alone
        assert calls == expected_calls > 0

    def test_a_fortran_ordered_X_trains_as_its_C_ordered_copy(self):
        # the summation order of the products with X follows its memory
        # layout, so every job's X is copied C-ordered, alone or stacked
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 7))
        y = np.tanh(X[:, 0]) + 0.1 * rng.normal(size=60)
        F = np.asfortranarray(X)
        expected = hexes(train_one(X, y, 2, 1e-3, 6, 3, 100))
        assert hexes(train_one(F, y, 2, 1e-3, 6, 3, 100)) == expected
        for stack in ([F], [F, X]):
            J = len(stack)
            results = mlp.train(stack, [y] * J, [2] * J, [1e-3] * J, 6, [3] * J, 100)
            assert [hexes(result) for result in results] == [expected] * J


class TestSelectMeta:
    """PCA size, hidden units and decay are chosen by ``run_experiment``."""

    def test_degenerate_grid_single_cell(self, rng):
        X = rng.normal(size=(30, 5))
        y = X[:, 0] + 0.1 * rng.normal(size=30)
        train, test = fdata.split(vector_dataset(X, y), 6, shuffle=False)
        spec = ExperimentSpec(
            "one-mlp", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,), whiten=True),
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
            pca=PcaSpec("classical", component_grid=(1, 2, 3), whiten=True),
            mlp=MlpSettings(hidden_grid=(1, 2), decay_grid=(1e-4, 1e-2), restarts=3,
                            cv_restarts=3, max_iter=60, cv_max_iter=60),
            folds=3,
            seed=9,
        )
        a = run_experiment(spec, train, test)
        b = run_experiment(spec, train, test)
        assert a.selected == b.selected
        assert (a.cv_score, a.test_rmse, a.notes) == (b.cv_score, b.test_rmse, b.notes)

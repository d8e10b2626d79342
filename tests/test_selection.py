import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import synthetic_dataset, vector_dataset
from fdareg import fdata, selection
from fdareg import fpca as fpca_mod
from fdareg import imputation as imp_mod
from fdareg import mlp as mlp_mod
from fdareg import rbfn as rbfn_mod
from fdareg.cv import derive_seed, make_folds, rmse
from fdareg.errors import ConfigError, TrainingError
from fdareg.selection import (
    ExperimentSpec,
    ImputeSpec,
    IsolationError,
    MlpSettings,
    PcaSpec,
    RbfnSettings,
    RepresentationSpec,
    SealedTestSet,
    TransformSpec,
    run_experiment,
)
from oracles import truncated_network

SMALL_RBFN = RbfnSettings(
    width_multipliers=(0.5, 1.0, 2.0), ridges=(1e-4, 1e-1), max_centers=20
)
SMALL_MLP = MlpSettings(
    hidden_grid=(1, 2), decay_grid=(1e-3,), restarts=6, cv_restarts=2, max_iter=80
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(777)
    ds = synthetic_dataset(rng, n=60, m=30)
    return fdata.split(ds, 15, shuffle=False)


def _assert_partition(pairs, n):
    """The validation sets partition range(n); each train set is the rest."""
    together = np.sort(np.concatenate([va for _, va in pairs]))
    np.testing.assert_array_equal(together, np.arange(n))
    for tr, va in pairs:
        np.testing.assert_array_equal(np.sort(tr), np.setdiff1d(np.arange(n), va))


class TestMakeFolds:
    def test_four_folds_of_43(self):
        pairs = make_folds(172, 4, seed=0)
        assert [va.size for _, va in pairs] == [43, 43, 43, 43]
        _assert_partition(pairs, 172)

    def test_near_equal_sizes(self):
        pairs = make_folds(10, 3, seed=1)
        assert [va.size for _, va in pairs] == [4, 3, 3]
        _assert_partition(pairs, 10)

    def test_leave_one_out(self):
        pairs = make_folds(5, 5, seed=2)
        assert all(va.size == 1 and tr.size == 4 for tr, va in pairs)
        _assert_partition(pairs, 5)

    def test_same_seed_same_plan(self):
        a = make_folds(20, 4, seed=9)
        b = make_folds(20, 4, seed=9)
        for (tra, vaa), (trb, vab) in zip(a, b, strict=True):
            np.testing.assert_array_equal(tra, trb)
            np.testing.assert_array_equal(vaa, vab)

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            make_folds(3, 4)

    def test_one_fold_is_no_split(self):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            make_folds(10, 1)


class TestRmse:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_constant_mean_predictor_closed_form(self, rng):
        # RMSE of the train-mean predictor equals the test RMS deviation
        # around the train mean
        y_train = rng.normal(size=50) * 2 + 1
        y_test = rng.normal(size=20) * 2 + 1
        mean = np.mean(y_train)
        expected = np.sqrt(np.mean((y_test - mean) ** 2))
        assert rmse(np.full(20, mean), y_test) == pytest.approx(expected)


class TestSealedTestSet:
    def test_peek_before_unlock_raises(self):
        sealed = SealedTestSet("payload")
        with pytest.raises(IsolationError):
            sealed.peek()
        assert sealed.peek_attempts == 1
        assert sealed.unlock() == "payload"
        assert sealed.peek() == "payload"

    @pytest.mark.parametrize("model", ["rbfn", "mlp"])
    def test_unlock_follows_final_training_and_precedes_one_prediction(
        self, data, monkeypatch, model
    ):
        train, test = data
        calls = []

        def record(owner, name, label):
            real = getattr(owner, name)

            def logged(*args, **kwargs):
                calls.append(label)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, logged)

        record(SealedTestSet, "unlock", "unlock")
        if model == "rbfn":
            spec = ExperimentSpec(
                "seal-rbfn", "rbfn", RepresentationSpec("raw"),
                rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=6),
                seed=2,
            )
            record(rbfn_mod, "train_ols_paths", "train")
            record(rbfn_mod.RbfnPath, "predictions", "predict")
        else:
            spec = ExperimentSpec(
                "seal-mlp", "mlp",
                representation=RepresentationSpec("bspline", order=4, dimension=8),
                pca=PcaSpec("functional", n_components=2, whiten=True),
                mlp=MlpSettings(hidden_grid=(1,), decay_grid=(1e-3,), restarts=2,
                                cv_restarts=2, max_iter=30, cv_max_iter=30),
                seed=2,
            )
            record(mlp_mod, "train", "train")
            record(mlp_mod, "forward", "predict")
        report = run_experiment(spec, train, test)

        assert np.isfinite(report.test_rmse)
        assert calls.count("unlock") == 1
        unlock = calls.index("unlock")
        # CV: one training per fold; then the final refit, then the unlock
        assert calls[:unlock].count("train") == spec.folds + 1
        assert calls[unlock - 1] == "train"
        assert calls[unlock + 1:] == ["predict"]


class TestSpecValidation:
    def test_deriv_requires_high_enough_order(self):
        spec = ExperimentSpec(
            "bad", "rbfn",
            representation=RepresentationSpec("bspline", order=2),
            transform=TransformSpec("deriv2"),
        )
        with pytest.raises(ConfigError):
            spec.validate()

    def test_mlp_requires_whitened_pca(self):
        spec = ExperimentSpec("bad", "mlp")
        with pytest.raises(ConfigError):
            spec.validate()
        spec = ExperimentSpec(
            "bad", "mlp", pca=PcaSpec("classical", n_components="cv", whiten=False)
        )
        with pytest.raises(ConfigError):
            spec.validate()

    def test_imputation_needs_raw_route(self):
        spec = ExperimentSpec(
            "bad", "rbfn",
            representation=RepresentationSpec("bspline"),
            impute=ImputeSpec("mean"),
        )
        with pytest.raises(ConfigError):
            spec.validate()

    @pytest.mark.parametrize("section, field, values", [
        ("impute", "k_grid", (1, 4, 1)),
        ("pca", "component_grid", (5, 5, 10)),
        ("rbfn", "width_multipliers", (0.5, 1.0, 0.5)),
        ("rbfn", "ridges", (1e-6, 1e-6, 1e-3)),
        ("mlp", "hidden_grid", (2, 2)),
        ("mlp", "decay_grid", (1e-3, 0.001)),
    ])
    def test_repeated_grid_value_is_a_config_error(self, section, field, values):
        # a repeated value would add its cells twice to one fold, so a cell
        # scored in half the folds would reach the full fold count
        spec = ExperimentSpec(
            "repeat", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components="cv", whiten=True),
            impute=ImputeSpec("knn"),
        )
        spec.validate()
        spec = replace(spec, **{section: replace(getattr(spec, section), **{field: values})})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{field} repeats the value")):
            spec.validate()

    @pytest.mark.parametrize("section, field, value", [
        ("representation", "dimension", "abc"),
        ("representation", "dimension", (3,)),
        ("representation", "dimension", 0),
        ("pca", "n_components", "x"),
        ("pca", "n_components", None),
        ("pca", "n_components", 2.5),
        ("pca", "component_grid", (0, 2)),
        ("impute", "k_grid", (0, 1)),
    ])
    def test_mistyped_value_is_a_config_error(self, section, field, value):
        spec = ExperimentSpec(
            "typo", "rbfn", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components=2), impute=ImputeSpec("knn"),
        )
        spec.validate()
        spec = replace(spec, **{section: replace(getattr(spec, section), **{field: value})})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{field} must ")):
            spec.validate()

    @pytest.mark.parametrize("folds", [1, "4", 2.0, True])
    def test_folds_must_be_an_integer_of_at_least_2(self, folds):
        with pytest.raises(ConfigError, match="folds must be an integer"):
            ExperimentSpec("folds", "rbfn", folds=folds).validate()

    def test_roundtrip_dict(self):
        spec = ExperimentSpec(
            "row", "rbfn",
            representation=RepresentationSpec("bspline", order=5, dimension=12),
            transform=TransformSpec("deriv1"),
            rbfn=SMALL_RBFN,
            seed=3,
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec


class TestRunExperiment:
    def test_rbfn_beta_route(self, data):
        train, test = data
        spec = ExperimentSpec(
            "rbfn-beta", "rbfn",
            representation=RepresentationSpec("bspline", order=4, dimension=10),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert report.test_rmse < rmse(
            np.full(len(test), train.targets.mean()), test.targets
        )
        assert report.selected["n_centers"] >= 1
        assert report.info["basis"]["dimension"] == 10

    def test_deriv_transform_beats_raw_on_shape_target(self, data):
        # the synthetic target depends on curve shape, not level, so the
        # derivative semi-metric should help the RBFN
        train, test = data
        raw = ExperimentSpec("raw", "rbfn", RepresentationSpec("raw"), rbfn=SMALL_RBFN, seed=5)
        deriv = ExperimentSpec(
            "deriv", "rbfn",
            representation=RepresentationSpec("bspline", order=5, dimension=10),
            transform=TransformSpec("deriv1"),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        r_raw = run_experiment(raw, train, test)
        r_deriv = run_experiment(deriv, train, test)
        assert r_deriv.test_rmse < r_raw.test_rmse

    def test_mlp_fpca_route(self, data):
        train, test = data
        spec = ExperimentSpec(
            "mlp-fpca", "mlp",
            representation=RepresentationSpec("bspline", order=4, dimension=10),
            pca=PcaSpec("functional", n_components="cv", component_grid=(2, 4), whiten=True),
            mlp=SMALL_MLP,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert report.selected["n_components"] in (2, 4)
        assert report.selected["hidden"] in (1, 2)
        assert np.isfinite(report.test_rmse)

    def test_loo_dimension_selection_recorded(self, data):
        train, test = data
        spec = ExperimentSpec(
            "rbfn-loo", "rbfn",
            representation=RepresentationSpec("bspline", order=4, dimension="loo"),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert report.info["basis"]["dimension"] in report.info["loo_scores"]

    def test_deterministic_reports(self, data):
        train, test = data
        spec = ExperimentSpec(
            "det", "rbfn",
            representation=RepresentationSpec("bspline", order=4, dimension=10),
            rbfn=SMALL_RBFN,
            seed=11,
        )
        a = run_experiment(spec, train, test)
        b = run_experiment(spec, train, test)
        assert a.test_rmse == b.test_rmse
        assert a.selected == b.selected
        assert a.cv_score == b.cv_score
        assert a.notes == b.notes

    @pytest.mark.parametrize("grid", [(17, 18), (18,)])
    def test_fpca_scores_every_component_of_the_basis(self, data, grid):
        # a centered (n, q) coefficient matrix supports min(n - 1, q)
        # components: with q = 18 and 33-34 training curves per fold, the
        # 18th FPCA component is scored in every fold, without a fold note
        train, test = data
        spec = ExperimentSpec(
            "fpca-full-rank", "rbfn",
            representation=RepresentationSpec("bspline", order=4, dimension=18),
            pca=PcaSpec("functional", n_components="cv", component_grid=grid),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert report.info["basis"]["dimension"] == 18
        assert report.notes == ()
        assert report.selected["n_components"] in grid

    def test_pca_sizes_above_the_fold_rank_are_dropped_with_one_note(self, data):
        # q = 18 bounds every fold matrix's rank: sizes 19 and 20 are
        # dropped up front and the rest selects as the grid without them
        train, test = data

        def run(grid):
            spec = ExperimentSpec(
                "fpca-trim", "rbfn",
                representation=RepresentationSpec("bspline", order=4, dimension=18),
                pca=PcaSpec("functional", n_components="cv", component_grid=grid),
                rbfn=SMALL_RBFN,
                seed=5,
            )
            return run_experiment(spec, train, test)

        crossing, within = run((17, 18, 19, 20)), run((17, 18))
        assert crossing.notes == (
            "PCA sizes [19, 20] exceed 18, the most components every fold can fit, "
            "and were dropped",
        ) + within.notes
        assert (crossing.selected, crossing.cv_score, crossing.test_rmse) == (
            within.selected, within.cv_score, within.test_rmse
        )

    def test_fixed_pca_size_above_the_fold_bound_is_capped(self, data):
        train, test = data

        def run(n_components):
            spec = ExperimentSpec(
                "fpca-too-large", "rbfn",
                representation=RepresentationSpec("bspline", order=4, dimension=18),
                pca=PcaSpec("functional", n_components=n_components),
                rbfn=SMALL_RBFN,
            )
            return run_experiment(spec, train, test)

        capped, at_bound = run(40), run(18)
        assert capped.selected["n_components"] == 18
        assert capped.notes == (
            "PCA sizes [40] exceed 18, the most components every fold can fit, "
            "so 18 is used",
        ) + at_bound.notes
        assert (capped.selected, capped.cv_score, capped.test_rmse) == (
            at_bound.selected, at_bound.cv_score, at_bound.test_rmse
        )

    def test_rbfn_interior_center_count(self, rng):
        # smooth target + noise: too few centers underfit, too many overfit
        n = 80
        t = rng.uniform(-3, 3, n)
        X = np.outer(t, np.ones(3)) / np.sqrt(3)  # Euclidean distance = |t - t'|
        y = np.sin(t) + 0.4 * rng.normal(size=n)
        train, test = fdata.split(vector_dataset(X, y), 20, shuffle=False)
        spec = ExperimentSpec(
            "noisy", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(0.0,), max_centers=40),
            seed=3,
        )
        report = run_experiment(spec, train, test)
        assert 1 < report.selected["n_centers"] < 40
        assert np.isfinite(report.cv_score)

    def test_mlp_selects_informative_components(self, rng):
        # target depends on two strong directions; CV should not pick 1 comp
        n = 60
        basis_dirs = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        scores = rng.normal(size=(n, 2)) * [3.0, 2.0]
        X = scores @ basis_dirs[:2] + 0.01 * rng.normal(size=(n, 6))
        y = scores[:, 0] * scores[:, 1]
        train, test = fdata.split(vector_dataset(X, y), 12, shuffle=False)
        spec = ExperimentSpec(
            "informative", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components="cv", component_grid=(1, 2),
                        whiten=True),
            mlp=MlpSettings(hidden_grid=(3,), decay_grid=(1e-4,), restarts=4,
                            cv_restarts=4, max_iter=150, cv_max_iter=150),
            seed=1,
        )
        report = run_experiment(spec, train, test)
        assert report.selected["n_components"] == 2


class TestFoldTable:
    """Oracle for the CV rule: a cell must be scored in every fold."""

    LENGTHS = (8, 3, 3, 3)  # RBFN path length per fold

    def test_partial_cell_never_wins(self, data, monkeypatch):
        train, test = data
        ridge = 1e-3
        spec = ExperimentSpec(
            "partial", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(ridge,), max_centers=8),
            seed=3,
        )
        real_train_ols_paths = rbfn_mod.train_ols_paths
        lengths = []

        def fixed_length(X, y, width, ridges, max_centers, **kwargs):
            # one call per fold in plan order, then the final refit
            fold = len(lengths)
            length = self.LENGTHS[fold] if fold < len(self.LENGTHS) else max_centers
            lengths.append(length)
            return real_train_ols_paths(X, y, width, ridges, length, **kwargs)

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", fixed_length)
        report = run_experiment(spec, train, test)
        assert len(lengths) == len(self.LENGTHS) + 1

        # the fold table by hand: center count -> validation MSE per fold
        X, y = train.matrix(), train.targets
        plan = make_folds(len(train), spec.folds, derive_seed(spec.seed, "folds"))
        errors: dict[int, list[float]] = {}
        for (tr, va), length in zip(plan, self.LENGTHS):
            width = rbfn_mod.median_width(X[tr])
            [path] = real_train_ols_paths(X[tr], y[tr], width, (ridge,), length)
            for kc in range(1, path.max_size + 1):
                err = truncated_network(path, kc, X[va]) - y[va]
                errors.setdefault(kc, []).append(float(err @ err) / va.size)
        full = {kc: sum(e) / len(plan) for kc, e in errors.items() if len(e) == len(plan)}
        partial = {kc: e[0] for kc, e in errors.items() if len(e) < len(plan)}
        assert sorted(full) == [1, 2, 3] and sorted(partial) == [4, 5, 6, 7, 8]

        # a partial cell's single-fold score beats every full cell, and
        # dividing every cell's sum by k would pick a partial cell
        assert min(partial.values()) < min(full.values())
        summed = {kc: sum(e) / len(plan) for kc, e in errors.items()}
        assert min(summed, key=summed.get) in partial

        expected = min(full, key=full.get)
        assert report.selected["n_centers"] == expected
        assert report.cv_score == pytest.approx(full[expected], rel=1e-12)
        assert report.notes == ("5 cells not scored in every fold were excluded",)


class TestFailingTrainingCall:
    """A CV training call that raises leaves its cells unscored in that fold
    and is named in a note; the row goes on."""

    MLP = MlpSettings(hidden_grid=(1, 2), decay_grid=(1e-3,), restarts=3,
                      cv_restarts=3, max_iter=60, cv_max_iter=60)

    def spec(self, mlp=MLP):
        return ExperimentSpec(
            "failing-call", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components=2, whiten=True),
            mlp=mlp, folds=3, seed=1,
        )

    def test_overflowing_targets_name_the_fold_and_the_cell(self, rng):
        X = rng.normal(size=(30, 4))
        y = 1e160 * (1.0 + rng.random(30))
        train, test = vector_dataset(X, y), vector_dataset(X[:5], y[:5])
        cause = ("no grid cell was scored in every fold; 3 fold failures, first: "
                 "fold 0, comps=2, hidden=2, decay=0.001: "
                 "3 of 3 restart(s) start at a non-finite loss")
        with pytest.raises(ConfigError, match=re.escape(cause)):
            run_experiment(self.spec(replace(self.MLP, hidden_grid=(2,))), train, test)

    def test_failing_cell_is_excluded_and_noted(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(36, 4))
        y = np.tanh(X[:, 0] - X[:, 1]) + 0.05 * rng.normal(size=36)
        train, test = fdata.split(vector_dataset(X, y), 6, shuffle=False)
        assert run_experiment(self.spec(), train, test).selected["hidden"] == 1

        real_train = mlp_mod.train
        failed = []

        def fail_first_hidden_1(X, y, hidden, decay, **kwargs):
            # hidden = 1 fails in fold 0 and trains in the other folds
            if hidden == 1 and not failed:
                failed.append(hidden)
                raise TrainingError("1 of 3 restart(s) start at a non-finite loss")
            return real_train(X, y, hidden, decay, **kwargs)

        monkeypatch.setattr(mlp_mod, "train", fail_first_hidden_1)
        report = run_experiment(self.spec(), train, test)
        assert report.selected["hidden"] == 2
        assert np.isfinite(report.cv_score) and np.isfinite(report.test_rmse)
        assert report.notes == (
            "fold 0, comps=2, hidden=1, decay=0.001: "
            "1 of 3 restart(s) start at a non-finite loss",
            "1 cells not scored in every fold were excluded",
        )

    def test_failing_call_without_pca_names_only_the_call(self, data, monkeypatch):
        train, test = data
        spec = ExperimentSpec("failing-rbfn", "rbfn", RepresentationSpec("raw"),
                              rbfn=SMALL_RBFN, seed=2)
        real_train_ols_paths = rbfn_mod.train_ols_paths
        calls = []

        def fail_first(X, y, width, ridges, max_centers, **kwargs):
            # fold 0's first call, width multiplier 0.5, fails
            calls.append(width)
            if len(calls) == 1:
                raise TrainingError("no center could be added")
            return real_train_ols_paths(X, y, width, ridges, max_centers, **kwargs)

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", fail_first)
        report = run_experiment(spec, train, test)
        assert report.selected["width_multiplier"] != 0.5
        assert report.notes[0] == "fold 0, width_multiplier=0.5: no center could be added"
        assert re.fullmatch(r"\d+ cells not scored in every fold were excluded",
                            report.notes[1])
        assert len(report.notes) == 2


class TestFinalRefit:
    def test_short_final_path_is_noted(self, data, monkeypatch):
        train, test = data
        spec = ExperimentSpec(
            "short-final", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=8),
            seed=3,
        )
        real_train_ols_paths = rbfn_mod.train_ols_paths
        requested = []

        def short_final(X, y, width, ridges, max_centers, **kwargs):
            # the folds get their full paths; the final refit stops after 1
            requested.append(max_centers)
            length = 1 if len(requested) > spec.folds else max_centers
            return real_train_ols_paths(X, y, width, ridges, length, **kwargs)

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", short_final)
        report = run_experiment(spec, train, test)
        assert len(requested) == spec.folds + 1
        chosen = requested[-1]
        assert chosen > 1
        assert report.selected["n_centers"] == 1
        assert report.notes == (
            f"final refit: the full-data path stopped at 1 of the selected "
            f"{chosen} centers",
        )


@pytest.fixture(scope="module")
def holed():
    rng = np.random.default_rng(424)
    ds = synthetic_dataset(rng, n=50, m=24, noise=0.005)
    holed = fdata.make_holes(ds, 0.15, seed=9)
    return fdata.split(holed, 12, shuffle=False)


class TestImputationRoutes:

    def test_mean_impute_mlp(self, holed):
        train, test = holed
        spec = ExperimentSpec(
            "mean-imp", "mlp",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components="cv",
                        component_grid=(2, 3), whiten=True),
            impute=ImputeSpec("mean"),
            mlp=SMALL_MLP,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert np.isfinite(report.test_rmse)

    def test_knn_impute_selects_k(self, holed):
        train, test = holed
        spec = ExperimentSpec(
            "knn-imp", "mlp",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components=3, whiten=True),
            impute=ImputeSpec("knn", k_grid=(1, 4)),
            mlp=SMALL_MLP,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert report.selected["impute_k"] in (1, 4)

    def test_functional_route_handles_holes_directly(self, holed):
        train, test = holed
        spec = ExperimentSpec(
            "fda-holes", "rbfn",
            representation=RepresentationSpec("bspline", order=4, dimension=8),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        report = run_experiment(spec, train, test)
        assert np.isfinite(report.test_rmse)

    def test_knn_preprocessing_once_per_fold_and_k(self, holed, monkeypatch):
        train, test = holed
        spec = ExperimentSpec(
            "knn-cache", "rbfn",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components="cv",
                        component_grid=(2, 3, 4)),
            impute=ImputeSpec("knn", k_grid=(1, 4)),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        real_transform = imp_mod.KnnImputer.transform
        real_fit = fpca_mod.Standardizer.fit
        calls, fits = [], []

        def counted(self, values, mask, is_fit_data=False):
            calls.append(is_fit_data)
            return real_transform(self, values, mask, is_fit_data)

        def counted_fit(self, X):
            fits.append(X.shape)
            return real_fit(self, X)

        monkeypatch.setattr(imp_mod.KnnImputer, "transform", counted)
        monkeypatch.setattr(fpca_mod.Standardizer, "fit", counted_fit)
        a = run_experiment(spec, train, test)
        # imputation, per fold: the training rows and the validation rows
        # once each for the whole k grid; the final refit: the training
        # rows, then the test rows
        assert len(calls) == 2 * spec.folds + 2
        assert calls.count(True) == spec.folds + 1
        # standardization, per (fold, k), then once for the final refit
        assert len(fits) == spec.folds * len(spec.impute.k_grid) + 1
        b = run_experiment(spec, train, test)
        assert (a.selected, a.cv_score, a.test_rmse, a.notes) == (
            b.selected, b.cv_score, b.test_rmse, b.notes
        )

    @pytest.mark.parametrize("impute, pca", [
        (ImputeSpec("knn", k_grid=(1, 2, 4)), PcaSpec("classical", n_components=4, whiten=True)),
        (ImputeSpec("knn", k_grid=(1, 2, 4)), PcaSpec("none")),
    ], ids=["pca", "no-pca"])
    def test_one_k_chain_equals_its_grid_column(self, holed, impute, pca):
        # the final refit fits the chain for the winning k alone; it must
        # give the numbers the folds' chain gave that k within the grid
        train, test = holed
        spec = ExperimentSpec("chain", "rbfn", RepresentationSpec("raw"),
                              pca=pca, impute=impute, rbfn=SMALL_RBFN)
        stage = selection._Stage1(spec, train)
        values, mask = stage.train_values, stage.train_mask
        new_values, new_mask = stage.features(test)
        ks = impute.grid()
        max_comp = 4 if pca.kind != "none" else 0
        grid = selection._Preprocessing(spec, ks, values, mask, max_comp)
        grid_new = grid.prepare(new_values, new_mask)
        assert len(grid.train) == len(grid_new) == len(ks)
        for i, k in enumerate(ks):
            alone = selection._Preprocessing(spec, (k,), values, mask, max_comp)
            [alone_new] = alone.prepare(new_values, new_mask)
            for n_comp in ((2, 4) if max_comp else (0,)):
                for got, want in ((alone.project(0, alone.train[0], n_comp),
                                   grid.project(i, grid.train[i], n_comp)),
                                  (alone.project(0, alone_new, n_comp),
                                   grid.project(i, grid_new[i], n_comp))):
                    assert got.shape == want.shape
                    assert not np.isnan(got).any()
                    np.testing.assert_array_equal(got, want)

    def test_failed_fold_imputation_notes_every_k(self):
        # coordinate 7 is observed by fold 0's validation curves alone, so
        # fold 0's training rows have no donor for it, and every other
        # fold's training rows hold 6 donors for it
        rng = np.random.default_rng(31)
        full = synthetic_dataset(rng, n=24, m=12)
        spec = ExperimentSpec(
            "knn-fail", "rbfn",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", n_components=2),
            impute=ImputeSpec("knn", k_grid=(1, 2)),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        plan = make_folds(len(full), spec.folds, derive_seed(spec.seed, "folds"))
        observers = set(plan[0][1].tolist())
        keep = np.arange(12) != 7
        train = fdata.Dataset(
            [f if i in observers else fdata.SampledFunction(f.x[keep], f.y[keep], id=f.id)
             for i, f in enumerate(full.functions)],
            full.targets, full.domain,
        )
        stage = selection._Stage1(spec, train)
        notes: list[str] = []
        cells = [
            [cell[:2] for cell in selection._fold_inputs(
                spec, stage, tr, va, (2,), fold_i, notes)]
            for fold_i, (tr, va) in enumerate(plan)
        ]
        assert cells == [[], *[[(1, 2), (2, 2)]] * 3]
        assert notes == [
            f"fold 0, impute k={k}: no donor observes coordinate 7 for sample 0"
            for k in (1, 2)
        ]
        cause = ("no grid cell was scored in every fold; 2 fold failures, first: "
                 "fold 0, impute k=1: no donor observes coordinate 7 for sample 0")
        with pytest.raises(ConfigError, match=re.escape(cause)):
            run_experiment(spec, train, full)

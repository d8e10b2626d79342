import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import knn_distances, synthetic_dataset, vector_dataset
from fdareg import fdata, selection, suites
from fdareg import fpca as fpca_mod
from fdareg import imputation as imp_mod
from fdareg import mlp as mlp_mod
from fdareg import rbfn as rbfn_mod
from fdareg import represent as rep_mod
from fdareg.cv import derive_seed, make_folds, rmse
from fdareg.errors import (
    ConfigError,
    ConstantFunctionError,
    DegenerateComponentError,
    FdaregError,
    ImputationError,
    ScalingError,
    TrainingError,
    ValidationError,
)
from fdareg.selection import (
    ExperimentSpec,
    ImputeSpec,
    MlpSettings,
    PcaSpec,
    RbfnSettings,
    RepresentationSpec,
    TransformSpec,
    run_experiment,
)
from oracles import fold_major_cv, truncated_network

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


class TestTestSetOrder:
    @pytest.mark.parametrize("model", ["rbfn", "mlp"])
    def test_test_set_is_read_after_the_last_cv_call(
        self, data, monkeypatch, model
    ):
        # the test curves are grouped once the selection is final; then the
        # refit trains once and predicts once
        train, test = data
        calls = []

        def record(owner, name, label):
            real = getattr(owner, name)

            def logged(*args, **kwargs):
                calls.append(label(*args) if callable(label) else label)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, logged)

        record(selection, "Grids", lambda functions: "group test"
               if functions is test.functions else "group train")
        if model == "rbfn":
            spec = ExperimentSpec(
                "order-rbfn", "rbfn", RepresentationSpec("raw"),
                rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=6),
                seed=2,
            )
            record(rbfn_mod, "train_ols_paths", "train")
            record(rbfn_mod.RbfnPath, "predictions", "predict")
        else:
            spec = ExperimentSpec(
                "order-mlp", "mlp",
                representation=RepresentationSpec("bspline", order=4, dimension=8),
                pca=PcaSpec("functional", component_grid=(2,), whiten=True),
                mlp=MlpSettings(hidden_grid=(1,), decay_grid=(1e-3,), restarts=2,
                                cv_restarts=2, max_iter=30, cv_max_iter=30),
                seed=2,
            )
            record(mlp_mod, "train", "train")
            record(mlp_mod, "forward", "predict")
        report = run_experiment(spec, train, test)

        assert np.isfinite(report.test_rmse)
        assert calls.count("group test") == 1
        grouped = calls.index("group test")
        # CV: one training and one prediction per fold; the MLP trains fold
        # 0, then folds 1-3 in one stack call, which predicts fold by fold
        cv = (["train", "predict"] * spec.folds if model == "rbfn" else
              ["train", "predict", "train"] + ["predict"] * (spec.folds - 1))
        assert calls[:grouped] == ["group train"] + cv
        assert calls[grouped + 1:] == ["train", "predict"]


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
            "bad", "mlp", pca=PcaSpec("classical", whiten=False)
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
            pca=PcaSpec("classical", whiten=True),
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
        ("pca", "component_grid", "x"),
        ("pca", "component_grid", 7),
        pytest.param("pca", "component_grid", (2.5,), id="pca-component_grid-2.5"),
        ("pca", "component_grid", (0, 2)),
        ("impute", "k_grid", (0, 1)),
        ("pca", "whiten", "no"),
        ("impute", "expert_scale", "false"),
    ])
    def test_mistyped_value_is_a_config_error(self, section, field, value):
        spec = ExperimentSpec(
            "typo", "rbfn", RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,)), impute=ImputeSpec("knn"),
        )
        spec.validate()
        spec = replace(spec, **{section: replace(getattr(spec, section), **{field: value})})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{field} must ")):
            spec.validate()

    @pytest.mark.parametrize("section, field", [
        ("pca", "component_grid"),
        ("impute", "k_grid"),
    ])
    def test_empty_grid_is_a_config_error(self, section, field):
        # an empty grid would leave nothing to cross-validate: no PCA size
        # (the fold bound was fitted instead) or no k-NN cell at all
        spec = ExperimentSpec(
            "empty", "rbfn", RepresentationSpec("raw"),
            pca=PcaSpec("classical"), impute=ImputeSpec("knn"),
        )
        spec.validate()
        spec = replace(spec, **{section: replace(getattr(spec, section), **{field: ()})})
        with pytest.raises(ConfigError,
                           match=re.escape(f"{section}.{field} must be a non-empty list, not ()")):
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

    def test_component_grid_none_means_the_default_sizes(self):
        assert PcaSpec("classical").grid("rbfn") == tuple(range(1, 21))
        assert PcaSpec("classical").grid("mlp") == tuple(range(1, 19))
        assert PcaSpec("classical", component_grid=(20,)).grid("mlp") == (20,)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spec_checks_raise_only_config_errors(self, data):
        # any one key of a valid spec file set to any JSON value: the spec
        # is accepted or named as a ConfigError, never a traceback
        raw = data.draw(st.sampled_from(SUITE_SPECS)).to_dict()
        paths = [(key,) for key in raw]
        paths += [(key, sub) for key, section in raw.items() if isinstance(section, dict)
                  for sub in section]
        *sections, key = data.draw(st.sampled_from(paths))
        target = raw[sections[0]] if sections else raw
        target[key] = data.draw(JSON_VALUES)
        try:
            ExperimentSpec.from_dict(json.loads(json.dumps(raw))).validate()
        except ConfigError:
            pass


#: Every shipped suite row: each is a valid spec.
SUITE_SPECS = [spec for build in suites.SUITE_BUILDERS.values() for spec in build(seed=0)]
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=8),
    st.sampled_from(["loo", "raw", "bspline", "knn", "classical", "deriv2", "mlp"]),
)
#: A value a spec file can hold: a scalar, a list of scalars or an object.
JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=3),
)


class TestSuiteRows:
    @pytest.mark.parametrize("seed", [0, 1, 2, 9])
    def test_every_row_carries_the_run_seed(self, seed):
        wrong = [f"{table}: {spec.name} (seed {spec.seed})"
                 for table, build in suites.SUITE_BUILDERS.items()
                 for spec in build(seed=seed) if spec.seed != seed]
        assert not wrong

    def test_row_names_are_unique_across_tables(self):
        # each name is a file name, row_<name>.json, in one output directory
        names = [spec.name for spec in SUITE_SPECS]
        assert len(set(names)) == len(names)


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
            pca=PcaSpec("functional", component_grid=(2, 4), whiten=True),
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
            pca=PcaSpec("functional", component_grid=grid),
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
                pca=PcaSpec("functional", component_grid=grid),
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
                pca=PcaSpec("functional", component_grid=(n_components,)),
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

    def test_a_size_no_fold_can_whiten_is_noted_per_fold(self, rng):
        # the curves span two shapes, so the third standardized component
        # of every fold has zero variance: each fold notes its (size 3)
        # projection, and size 2 is selected
        grid = np.linspace(0.0, 1.0, 20)
        coef = rng.normal(size=(40, 2))
        X = coef @ np.vstack([np.sin(2 * np.pi * grid), grid ** 2])
        y = coef[:, 0] ** 2 + 0.5 * coef[:, 1]
        train, test = fdata.split(vector_dataset(X, y), 10, shuffle=False)
        spec = ExperimentSpec("two-shapes", "rbfn", RepresentationSpec("raw"),
                              pca=PcaSpec("classical", component_grid=(2, 3), whiten=True),
                              rbfn=SMALL_RBFN)
        report = run_experiment(spec, train, test)
        assert report.selected["n_components"] == 2
        assert [n for n in report.notes if "comps=" in n] == [
            f"fold {i}, comps=3: cannot whiten a component with near-zero variance"
            for i in range(spec.folds)]

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
            pca=PcaSpec("classical", component_grid=(1, 2), whiten=True),
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

        def fixed_length(sq_dists, y, width, ridges, max_centers, **kwargs):
            # one call per fold in plan order, then the final refit
            fold = len(lengths)
            length = self.LENGTHS[fold] if fold < len(self.LENGTHS) else max_centers
            lengths.append(length)
            return real_train_ols_paths(sq_dists, y, width, ridges, length, **kwargs)

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", fixed_length)
        report = run_experiment(spec, train, test)
        assert len(lengths) == len(self.LENGTHS) + 1

        # the fold table by hand: center count -> validation MSE per fold
        X, y = train.matrix(), train.targets
        plan = make_folds(len(train), spec.folds, derive_seed(spec.seed, "folds"))
        errors: dict[int, list[float]] = {}
        for (tr, va), length in zip(plan, self.LENGTHS):
            D = rbfn_mod.sq_distances(X[tr], X[tr])
            width = rbfn_mod.median_width(D)
            [path] = real_train_ols_paths(D, y[tr], width, (ridge,), length)
            for kc in range(1, path.max_size + 1):
                err = truncated_network(path, X[tr], kc, X[va]) - y[va]
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


class TestPruning:
    """A call stops once none of its cells can win: a cell's fold errors are
    >= 0, so its score never falls below its partial sum over ``len(plan)``,
    and a call whose best partial score exceeds the best complete score is
    pruned. The winner, its score and the test RMSE are the unpruned
    engine's."""

    # fold 0 stacks each (size, hidden) over both ks and both decays
    KNN_MLP = ExperimentSpec(
        "knn-mlp", "mlp", RepresentationSpec("raw"),
        pca=PcaSpec("classical", component_grid=(2, 3), whiten=True),
        impute=ImputeSpec("knn", k_grid=(1, 4)),
        mlp=MlpSettings(hidden_grid=(1, 2), decay_grid=(1e-3, 1e-1), restarts=8,
                        cv_restarts=2, max_iter=40, cv_max_iter=40),
        seed=5)

    @pytest.mark.parametrize("row", ["raw-rbfn", "pca-rbfn", "knn-mlp"])
    def test_pruned_engine_equals_the_fold_major_oracle(self, request, row):
        rbfn_row = row != "knn-mlp"
        train, test = request.getfixturevalue("data" if rbfn_row else "holed")
        spec = {
            "raw-rbfn": ExperimentSpec("raw-rbfn", "rbfn", RepresentationSpec("raw"),
                                       rbfn=SMALL_RBFN, seed=2),
            "pca-rbfn": ExperimentSpec("pca-rbfn", "rbfn", RepresentationSpec("raw"),
                                       pca=PcaSpec("classical", component_grid=(2, 4, 6)),
                                       rbfn=SMALL_RBFN, seed=3),
            "knn-mlp": self.KNN_MLP,
        }[row]
        report = run_experiment(spec, train, test)
        selected, cv_score, test_rmse = fold_major_cv(spec, train, test)
        assert report.selected == selected
        assert report.cv_score.hex() == cv_score.hex()
        assert report.test_rmse.hex() == test_rmse.hex()
        assert report.info["pruned_trainings"] > 0
        if rbfn_row:  # single ridges are dropped too, not only whole calls
            stopped = len(SMALL_RBFN.ridges) * report.info["pruned_trainings"]
            assert report.info["pruned_paths"] > stopped
        else:
            assert "pruned_paths" not in report.info

    def test_fold_0_and_the_lead_train_in_stacks(self, holed, monkeypatch):
        # fold 0 trains one loop per (size, hidden), over both ks and both
        # decays; the unbounded lead call trains its folds 1-3 in one loop
        # per training-row count (38 rows: folds of 28 and 29). A bounded
        # call's loops hold folds of that call alone, in ascending order; the
        # engine takes the results of the schedule's trainings, and a fold it
        # trained but did not take lies past the call's pruning
        spec = self.KNN_MLP
        train, test = holed
        plan = make_folds(len(train), spec.folds, derive_seed(spec.seed, "folds"))
        m = spec.mlp
        job_of = {derive_seed(spec.seed, f"mlp-cv-f{f}-i{k}-c{c}-h{h}-d{d:g}"): (f, k, c, h, d)
                  for f in range(spec.folds) for k in spec.impute.k_grid
                  for c in spec.pca.component_grid for h in m.hidden_grid for d in m.decay_grid}
        job_of[derive_seed(spec.seed, "mlp-final")] = "final"
        real_loop = mlp_mod._train_stack
        stacks, taken = [], []

        def spy(X, y, hidden, decay, restarts, seed, max_iter):
            stacks.append([job_of[s] for s in seed])
            return real_loop(X, y, hidden, decay, restarts, seed, max_iter)

        monkeypatch.setattr(mlp_mod, "_train_stack", spy)
        self.record_taken(monkeypatch, taken)
        report = run_experiment(spec, train, test)
        fold0 = [[(0, k, c, h, d) for k in spec.impute.k_grid for d in m.decay_grid]
                 for c in spec.pca.component_grid for h in m.hidden_grid]
        assert stacks[:4] == fold0
        lead = stacks[4][0][1:]
        sizes = dict.fromkeys(plan[f][0].size for f in range(1, spec.folds))
        assert len(sizes) == 2
        assert stacks[4:6] == [[(f, *lead) for f in range(1, spec.folds) if plan[f][0].size == n]
                               for n in sizes]
        for stack in stacks[6:-1]:
            assert len({job[1:] for job in stack}) == 1
            assert [job[0] for job in stack] == sorted({job[0] for job in stack})
        assert stacks[-1] == ["final"]
        made = [job for stack in stacks[:-1] for job in stack]
        tabulated = [(f, k, c, h, d) for f, k, c, (h, (d,)) in taken if f != "final"]
        assert len(set(made)) == len(made)
        assert set(tabulated) <= set(made)
        later = {job for job in tabulated if job[0] > 0}
        assert report.info["pruned_trainings"] == (
            len(spec.impute.k_grid) * len(spec.pca.component_grid) * len(m.hidden_grid)
            * len(m.decay_grid) * 3 - len(later))
        for f, *unit in set(made) - set(tabulated):
            done = sorted(job[0] for job in tabulated if list(job[1:]) == unit)
            assert done == list(range(len(done))) and 1 <= len(done) <= f
        # some bounded call trains several folds in one loop
        assert any(len(stack) > 1 for stack in stacks[6:-1])

    @staticmethod
    def record_taken(monkeypatch, taken):
        """Append to ``taken`` each MLP training whose result the engine
        takes, ``(fold, k_imp, n_comp, call)``, with the refit's fold
        ``"final"``."""
        family = selection._FAMILIES["mlp"]

        def spy(spec, jobs):
            jobs = list(jobs)
            for job, result in zip(jobs, family.train(spec, jobs)):
                _, _, k_imp, n_comp, call, fold = job
                taken.append(("final" if fold is None else fold, k_imp, n_comp, call))
                yield result

        monkeypatch.setitem(selection._FAMILIES, "mlp", family._replace(train=spy))

    @staticmethod
    def run(monkeypatch, errors, engine=run_experiment, stacks=None, tabulated=None):
        """Run a 4-fold MLP row whose targets are all 0 and whose call
        ``hidden=h`` predicts the constant ``sqrt(errors[h][fold])``, so its
        fold errors are exactly ``errors[h]``, or fails to train where that
        entry is None. Returns ``engine``'s result and the trainings made in
        order, ``(hidden, fold)`` each, with the refit's fold ``"final"``;
        ``stacks``, if given, receives each call's trainings as one list,
        and ``tabulated`` the trainings whose results the engine takes."""
        X = np.random.default_rng(8).normal(size=(30, 5))
        train, test = vector_dataset(X[:24], np.zeros(24)), vector_dataset(X[24:], np.zeros(6))
        spec = ExperimentSpec(
            "pruning", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,), whiten=True),
            mlp=MlpSettings(hidden_grid=tuple(errors), decay_grid=(1e-3,)), seed=1,
        )
        fold_of = {derive_seed(spec.seed, f"mlp-cv-f{fold}-i0-c2-h{h}-d0.001"): fold
                   for fold in range(spec.folds) for h in errors}
        fold_of[derive_seed(spec.seed, "mlp-final")] = "final"
        trainings = []

        def train_call(X, y, hidden, decay, seed, **kwargs):
            # a stack: one model, or one failure, per job
            stack = [(h, fold_of[s]) for h, s in zip(hidden, seed)]
            trainings.extend(stack)
            if stacks is not None:
                stacks.append(stack)
            return [TrainingError("drawn failure")
                    if fold != "final" and errors[hidden][fold] is None else (hidden, fold)
                    for hidden, fold in stack]

        def forward(model, X):
            hidden, fold = model
            return np.full(X.shape[0], 0.0 if fold == "final" else np.sqrt(errors[hidden][fold]))

        monkeypatch.setattr(mlp_mod, "train", train_call)
        monkeypatch.setattr(mlp_mod, "forward", forward)
        taken = []
        if tabulated is not None:
            TestPruning.record_taken(monkeypatch, taken)
        result = engine(spec, train, test)
        if tabulated is not None:
            tabulated.extend((hidden, fold) for fold, _, _, (hidden, _) in taken)
        return result, trainings

    @staticmethod
    def check_made(errors, report, trainings, tabulated):
        """The schedule's contract on a :meth:`run`: the engine takes the
        results of the trainings it tabulates, ``pruned_trainings`` counts
        the later-fold trainings it did not take, every training is made
        once, and a made training it did not take is a later fold past its
        call's last tabulated fold."""
        later = [(hidden, fold) for hidden, fold in tabulated if fold not in (0, "final")]
        assert len(set(later)) == len(later)
        assert report.info["pruned_trainings"] == len(errors) * 3 - len(later)
        assert len(set(trainings)) == len(trainings)
        assert set(tabulated) <= set(trainings)
        for hidden, fold in set(trainings) - set(tabulated):
            done = [f for h, f in tabulated if h == hidden and f != "final"]
            assert done == list(range(len(done))) and 1 <= len(done) <= fold

    @settings(max_examples=200, deadline=None)
    @given(errors=st.lists(
        st.tuples(*4 * [st.integers(0, 11).map(lambda e: {10: np.nan, 11: None}.get(e, e))]),
        min_size=1, max_size=4).map(lambda calls: dict(enumerate(calls, 1))))
    # late folds make hidden 2 the winner although its fold-0 error is the
    # worse; stopping a call once 1.5 times its partial score exceeds the
    # best would drop it in the first example
    @example(errors={1: (1, 1, 1, 1), 2: (3, 0, 0, 0)})
    @example(errors={1: (1, 4, 4, 4), 2: (4, 0, 0, 0)})
    def test_pruned_engine_equals_the_fold_major_oracle_on_drawn_errors(self, errors):
        # per-fold errors among 0-9 (exact ties among the squares), NaN and
        # failed trainings (None), for up to four calls
        with pytest.MonkeyPatch.context() as mp:
            expected, _ = self.run(mp, errors, fold_major_cv)
            if expected is None:
                with pytest.raises(ConfigError, match="no grid cell was scored in every fold"):
                    self.run(mp, errors)
                return
            tabulated = []
            report, trainings = self.run(mp, errors, tabulated=tabulated)
        selected, cv_score, test_rmse = expected
        assert report.selected == selected
        assert report.cv_score.hex() == cv_score.hex()
        assert report.test_rmse.hex() == test_rmse.hex()
        # every (call, fold) pair of the 3 later folds not tabulated was
        # pruned; a failed training counts as tabulated, and a training made
        # in a stack but pruned counts as pruned
        self.check_made(errors, report, trainings, tabulated)

    def test_a_call_is_ruled_out_at_a_later_fold(self, monkeypatch):
        # fold 0 trains every call; then hidden 1 and 2 (fold-0 error 1,
        # ties in call order) and hidden 3 (9) run in turn. hidden 1
        # completes with 4 / 4 = 1. hidden 2's partial scores are 1/4 and
        # 2/4 before folds 1 and 2, then 6/4 > 1: its fold 3 is pruned.
        # hidden 3 is out before fold 1 (9/4 > 1): its folds 1-3 are pruned.
        # hidden 2's mean fold error 1 before fold 1, carried to fold 3
        # (1 x 3 <= 1 x 4), passes: its folds 1-3 train in one stack, and
        # the result of its pruned fold 3 is dropped
        errors = {1: (1, 1, 1, 1), 2: (1, 1, 4, 9), 3: (9, 0, 0, 0)}
        tabulated = []
        report, trainings = self.run(monkeypatch, errors, tabulated=tabulated)
        assert tabulated == [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                             (1, "final")]
        assert trainings == [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                             (2, 3), (1, "final")]
        self.check_made(errors, report, trainings, tabulated)
        assert report.info["pruned_trainings"] == 4
        assert report.selected == {"n_components": 2, "hidden": 1, "decay": 1e-3}
        assert report.cv_score == 1.0
        assert report.notes == ()

    def test_committed_trainings_reach_the_trainer_as_stacks(self, monkeypatch):
        # the case above: fold 0's calls reach the trainer in one stack, the
        # unbounded lead hidden 1's folds 1-3 in another, and the bounded
        # hidden 2's folds 1-3 in a third; the engine tabulates hidden 2's
        # folds 1 and 2 only
        stacks, tabulated = [], []
        self.run(monkeypatch, {1: (1, 1, 1, 1), 2: (1, 1, 4, 9), 3: (9, 0, 0, 0)},
                 stacks=stacks, tabulated=tabulated)
        assert stacks == [[(1, 0), (2, 0), (3, 0)], [(1, 1), (1, 2), (1, 3)],
                          [(2, 1), (2, 2), (2, 3)], [(1, "final")]]
        assert tabulated == [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                             (1, "final")]

    @pytest.mark.parametrize("dropped", [None, np.nan])
    def test_a_dropped_fold_that_fails_or_is_not_finite_leaves_no_note(self, monkeypatch,
                                                                       dropped):
        # hidden 2's folds 1-3 train in one stack; its fold 3 fails or
        # reads NaN, but the schedule prunes it (6/4 > 1), so nothing of it
        # is noted and the count is that of the case above
        errors = {1: (1, 1, 1, 1), 2: (1, 1, 4, dropped)}
        tabulated = []
        report, trainings = self.run(monkeypatch, errors, tabulated=tabulated)
        assert (2, 3) in trainings and (2, 3) not in tabulated
        self.check_made(errors, report, trainings, tabulated)
        assert report.notes == ()
        assert report.info["pruned_trainings"] == 1
        assert report.cv_score == 1.0

    def test_a_call_whose_carried_mean_misses_the_bound_trains_fold_by_fold(self, monkeypatch):
        # hidden 1 completes with 3 / 4, and K x best = 3. hidden 2 (fold-0
        # error 1, after hidden 1 in call order) carries its mean fold error
        # 1 to fold 3 exactly onto that bound (1 x 3 / 1 = 3) and trains
        # folds 1-3 in one stack. hidden 3 (fold-0 error 2.25) is live
        # before each later fold (2.25/4, 2.25/4, 2.5/4 <= 3/4), but its
        # carried mean misses the bound before folds 1 (6.75 > 3) and 2
        # (3.375 > 3): each of its folds is a stack of its own, and it wins
        # with 2.5 / 4
        stacks, tabulated = [], []
        report, _ = self.run(monkeypatch, {1: (1, 1, 1, 0), 2: (1, 0, 0, 4),
                                           3: (2.25, 0, 0.25, 0)},
                             stacks=stacks, tabulated=tabulated)
        assert stacks == [[(1, 0), (2, 0), (3, 0)], [(1, 1), (1, 2), (1, 3)],
                          [(2, 1), (2, 2), (2, 3)], [(3, 1)], [(3, 2)], [(3, 3)],
                          [(3, "final")]]
        assert tabulated == [job for stack in stacks for job in stack]
        assert report.info["pruned_trainings"] == 0
        assert report.selected["hidden"] == 3
        assert report.cv_score == 0.625

    def test_a_partial_score_equal_to_the_best_is_not_pruned(self, monkeypatch):
        # hidden 2 runs first (fold-0 error 1 < 4) and completes with 1;
        # hidden 1's partial score 4/4 equals it, so hidden 1 runs on, ties
        # at 1 and wins as the smaller cell
        report, trainings = self.run(monkeypatch, {1: (4, 0, 0, 0), 2: (1, 1, 1, 1)})
        assert trainings == [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (1, 1), (1, 2), (1, 3),
                             (1, "final")]
        assert report.info["pruned_trainings"] == 0
        assert report.selected["hidden"] == 1
        assert report.cv_score == 1.0

    def test_a_non_finite_fold_error_leaves_the_cell_unscored(self, monkeypatch):
        # hidden 1 sorts first and would win on a NaN score; its NaN fold
        # is not scored, so it misses a fold and is excluded. No bound comes
        # from it: hidden 2 completes with 1 and rules out hidden 3 before
        # fold 1 (9/4 > 1), and hidden 4, whose partial score 4/4 lets it
        # run fold 1, before fold 2, as its NaN there leaves it no live cell
        report, trainings = self.run(monkeypatch, {
            1: (1, 1, np.nan, 0), 2: (1, 1, 1, 1), 3: (9, 0, 0, 0), 4: (4, np.nan, 0, 0),
        })
        assert trainings == [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (1, 2), (1, 3), (2, 1),
                             (2, 2), (2, 3), (4, 1), (2, "final")]
        assert report.info["pruned_trainings"] == 3 + 2
        assert report.selected["hidden"] == 2
        assert report.cv_score == 1.0
        assert report.notes == (
            "2 cells had a non-finite validation error in some fold and were not scored "
            "in it",
            "1 cells not scored in every fold were excluded",
        )

    MULTS, RIDGES = (0.5, 1.0, 2.0), (1e-3, 1e-2, 1e-1)

    class FakePath:
        """A path whose k-center network predicts ``levels[k - 1]`` on every
        row, so on zero targets its fold error is exactly that squared."""

        def __init__(self, levels):
            self.levels = np.array(levels, dtype=float)
            self.max_size = self.levels.size

        def predictions(self, sq_dists):
            return np.tile(self.levels, (sq_dists.shape[0], 1))

    @classmethod
    def run_paths(cls, monkeypatch, levels, n_ridges, engine=run_experiment):
        """Run a 4-fold RBFN row whose targets are all 0, with the width
        multipliers ``MULTS[:len(levels)]`` and the ridges
        ``RIDGES[:n_ridges]``. In fold f, width c's training fails where
        ``levels[c][f]`` is None; otherwise its ridge r grows a path of
        ``len(levels[c][f][r])`` centers whose k-center network predicts
        ``levels[c][f][r][k - 1]``. Returns ``engine``'s result and the
        trainings made in order, ``(fold, multiplier, ridges)`` each, with
        the refit's fold ``"final"``."""
        X = np.random.default_rng(8).normal(size=(30, 3))
        train, test = vector_dataset(X[:24], np.zeros(24)), vector_dataset(X[24:], np.zeros(6))
        mults = cls.MULTS[:len(levels)]
        spec = ExperimentSpec(
            "ridge-pruning", "rbfn", RepresentationSpec("raw"),
            rbfn=RbfnSettings(width_multipliers=mults, ridges=cls.RIDGES[:n_ridges],
                              max_centers=3),
            seed=1,
        )
        plan = make_folds(24, spec.folds, derive_seed(spec.seed, "folds"))
        fold_of = {rbfn_mod.sq_distances(X[tr], X[tr]).tobytes(): fold
                   for fold, (tr, _) in enumerate(plan)}
        trainings = []

        def train_ols_paths(sq_dists, y, width, ridges, max_centers):
            fold = fold_of.get(sq_dists.tobytes(), "final")
            c = next(c for c, m in enumerate(mults)
                     if m * rbfn_mod.median_width(sq_dists) == width)
            trainings.append((fold, mults[c], tuple(ridges)))
            if fold == "final":  # a test RMSE that names the width, ridge and size
                return [cls.FakePath(10 * c + cls.RIDGES.index(r) + np.arange(max_centers))
                        for r in ridges]
            if levels[c][fold] is None:
                raise TrainingError("drawn failure")
            return [cls.FakePath(levels[c][fold][cls.RIDGES.index(r)]) for r in ridges]

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", train_ols_paths)
        return engine(spec, train, test), trainings

    @staticmethod
    def _drawn_levels(n_ridges):
        # per width and fold: a failed training one time in five, or per
        # ridge a path of 1-3 centers predicting 0-3 (errors 0, 1, 4, 9) or,
        # rarely, NaN; a wider range or more NaNs draws too few late winners
        level = st.integers(0, 12).map(lambda v: np.nan if v == 12 else v % 4)
        paths = st.tuples(*n_ridges * [st.lists(level, min_size=1, max_size=3).map(tuple)])
        fold = st.tuples(st.integers(0, 4), paths).map(lambda t: t[1] if t[0] else None)
        return st.tuples(st.just(n_ridges), st.lists(st.tuples(*4 * [fold]), min_size=1,
                                                     max_size=3))

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.integers(1, 3).flatmap(_drawn_levels))
    # width 1's ridge 2 wins on later folds although its fold-0 error (4)
    # is worse than width 0's best (1), which completes first with 5 / 4;
    # dropping a ridge once 1.5 times its partial score (1.5 > 5 / 4)
    # exceeds the best would lose it
    @example(drawn=(2, [(((1,), (3,)), ((0,), (3,)), ((0,), (3,)), ((2,), (3,))),
                        (((3,), (2,)), ((0,), (0,)), ((0,), (0,)), ((0,), (0,)))]))
    # width 0.5's ridge 1e-3 ties width 1's complete score from behind and
    # wins as the smaller cell; dropping a ridge on a tie would lose it
    @example(drawn=(2, [(((2,), (3,)), ((0,), (0,)), ((0,), (0,)), ((0,), (0,))),
                        4 * (((1,), (3,)),)]))
    # width 0.5's lead ridge 1e-3 (fold-0 error 0) completes with 12 / 4;
    # its ridge 1e-2 then runs under that bound and wins with 1 / 4
    @example(drawn=(2, [(((0,), (1,)), ((2,), (0,)), ((2,), (0,)), ((2,), (0,)))]))
    # the lead ridge 1e-3 (its 2-center cell, fold-0 error 0) stops at one
    # center in fold 1, so none of its cells completes: ridge 1e-2 runs its
    # later folds with no bound and wins with 4 / 4
    @example(drawn=(2, [(((np.nan, 0), (1,)), ((3,), (1,)), ((0, 0), (1,)),
                         ((0, 0), (1,)))]))
    def test_ridge_pruned_engine_equals_the_fold_major_oracle_on_drawn_paths(self, drawn):
        n_ridges, levels = drawn
        with pytest.MonkeyPatch.context() as mp:
            expected, _ = self.run_paths(mp, levels, n_ridges, fold_major_cv)
            if expected is None:
                with pytest.raises(ConfigError, match="no grid cell was scored in every fold"):
                    self.run_paths(mp, levels, n_ridges)
                return
            report, trainings = self.run_paths(mp, levels, n_ridges)
        selected, cv_score, test_rmse = expected
        assert report.selected == selected
        assert report.cv_score.hex() == cv_score.hex()
        assert report.test_rmse.hex() == test_rmse.hex()
        # every (call, fold) pair and path of the 3 later folds not
        # trained was pruned; a failed training counts as trained
        later = [t for t in trainings if t[0] not in (0, "final")]
        assert report.info["pruned_trainings"] == (
            len(levels) * 3 - len({(fold, mult) for fold, mult, _ in later}))
        assert report.info["pruned_paths"] == (
            len(levels) * n_ridges * 3 - sum(len(ridges) for _, _, ridges in later))

    def test_the_lead_ridge_runs_alone_before_the_others(self, monkeypatch):
        # no cell is complete when width 0.5 starts its later folds. Its
        # best fold-0 cells tie at error 1, ridge 1e-3's 2-center cell and
        # ridge 1e-2's 1-center cell; the smaller cell's ridge 1e-3 leads,
        # runs folds 1-3 alone and completes with 4 / 4 = 1. Ridges 1e-2
        # (partial score 1/4) and 1e-1 (4/4, equal to the bound) hold live
        # cells, so both run folds 1-3, and ridge 1e-2 wins with 1/4
        report, trainings = self.run_paths(monkeypatch, [
            [((3, 1), (1,), (2,))] + 3 * [((3, 1), (0,), (0,))],
        ], 3)
        rest = self.RIDGES[1:]
        assert trainings == [
            (0, 0.5, self.RIDGES),
            (1, 0.5, (1e-3,)), (2, 0.5, (1e-3,)), (3, 0.5, (1e-3,)),
            (1, 0.5, rest), (2, 0.5, rest), (3, 0.5, rest),
            ("final", 0.5, (1e-2,)),
        ]
        assert report.info["pruned_trainings"] == 0
        assert report.info["pruned_paths"] == 0
        assert report.selected == {"width_multiplier": 0.5, "ridge": 1e-2, "n_centers": 1}
        assert report.cv_score == 0.25
        assert report.notes == ()

    def test_a_lead_calls_dropped_ridges_are_pruned_paths_not_trainings(self, monkeypatch):
        # width 0.5's lead ridge 1e-3 completes with 3/4; its ridges 1e-2
        # (4/4) and 1e-1 (9/4) are dropped before fold 1, while the lead
        # trains folds 1-3, so they add 2 x 3 paths and no training. Width
        # 1 (fold-0 error 9 on every ridge) stops before fold 1: 3 trainings
        # and 3 x 3 paths
        report, trainings = self.run_paths(monkeypatch, [
            [((0,), (2,), (3,))] + 3 * [((1,), (0,), (0,))],
            4 * [((3,), (3,), (3,))],
        ], 3)
        assert trainings == [
            (0, 0.5, self.RIDGES), (0, 1.0, self.RIDGES),
            (1, 0.5, (1e-3,)), (2, 0.5, (1e-3,)), (3, 0.5, (1e-3,)),
            ("final", 0.5, (1e-3,)),
        ]
        assert report.info["pruned_trainings"] == 3
        assert report.info["pruned_paths"] == 2 * 3 + 3 * 3
        assert report.selected == {"width_multiplier": 0.5, "ridge": 1e-3, "n_centers": 1}
        assert report.cv_score == 0.75

    def test_a_failure_of_a_split_call_is_noted_once(self, monkeypatch):
        # width 0.5 (fold-0 error 0) fails in fold 2. Its lead ridge 1e-3
        # and then its ridge 1e-2 each run folds 1-3, with no bound as the
        # lead completes nothing: both fail in fold 2, and the call gets
        # one note. Width 1 then meets no complete cell either: its lead
        # ridge 1e-3 completes with 1, and its ridge 1e-2 runs fold 1 (4/4)
        # and is dropped before fold 2 (8/4 > 1)
        report, trainings = self.run_paths(monkeypatch, [
            [((0,), (1,)), ((0,), (1,)), None, ((0,), (1,))], 4 * [((1,), (2,))],
        ], 2)
        lead, rest = (1e-3,), (1e-2,)
        assert trainings == [
            (0, 0.5, self.RIDGES[:2]), (0, 1.0, self.RIDGES[:2]),
            (1, 0.5, lead), (2, 0.5, lead), (3, 0.5, lead),
            (1, 0.5, rest), (2, 0.5, rest), (3, 0.5, rest),
            (1, 1.0, lead), (2, 1.0, lead), (3, 1.0, lead),
            (1, 1.0, rest), ("final", 1.0, lead),
        ]
        assert (report.info["pruned_trainings"], report.info["pruned_paths"]) == (0, 2)
        assert report.selected == {"width_multiplier": 1.0, "ridge": 1e-3, "n_centers": 1}
        assert report.notes == (
            "fold 2, width_multiplier=0.5: drawn failure",
            "2 cells not scored in every fold were excluded",
        )
        # with no cell complete, each failing (fold, call) counts once in
        # the error although its lead and its other ridge both failed
        cause = ("no grid cell was scored in every fold; 2 fold failures, first: "
                 "fold 1, width_multiplier=1: drawn failure")
        with pytest.raises(ConfigError, match=re.escape(cause)):
            self.run_paths(monkeypatch, [
                [((0,), (1,)), ((0,), (1,)), None, ((0,), (1,))],
                [((1,), (2,)), None, ((1,), (2,)), ((1,), (2,))],
            ], 2)

    def test_a_ridge_is_ruled_out_at_a_later_fold(self, monkeypatch):
        # width 0.5 (fold-0 error 1, first in call order) starts its later
        # folds with no cell complete, so its lead ridge 1e-3 (the fold-0
        # error 1 against 9) runs alone through folds 1-3 and completes
        # with 1; ridge 1e-2 (9/4 > 1) is then dropped before fold 1. Width
        # 1's ridge 1e-3 has partial scores 1/4 and 2/4 before folds 1 and
        # 2, then 6/4 > 1: only ridge 1e-2 trains fold 3, and wins with
        # 1/4. Width 2 (fold-0 error 9) stops before fold 1.
        report, trainings = self.run_paths(monkeypatch, [
            4 * [((1,), (3,))],
            [((1,), (1,)), ((1,), (0,)), ((2,), (0,)), ((0,), (0,))],
            4 * [((3,), (3,))],
        ], 2)
        both = self.RIDGES[:2]
        assert trainings == [
            (0, 0.5, both), (0, 1.0, both), (0, 2.0, both),
            (1, 0.5, (1e-3,)), (2, 0.5, (1e-3,)), (3, 0.5, (1e-3,)),
            (1, 1.0, both), (2, 1.0, both), (3, 1.0, (1e-2,)),
            ("final", 1.0, (1e-2,)),
        ]
        # width 2's folds 1-3; width 0.5's lead trained in those of its
        # dropped ridge
        assert report.info["pruned_trainings"] == 3
        # width 0.5's ridge 1e-2 in folds 1-3, one path of width 1, and the
        # two of width 2 in folds 1-3
        assert report.info["pruned_paths"] == 3 + 1 + 2 * 3
        assert report.selected == {"width_multiplier": 1.0, "ridge": 1e-2, "n_centers": 1}
        assert report.cv_score == 0.25
        assert report.notes == ()

    def test_a_ridge_whose_partial_score_equals_the_best_is_kept(self, monkeypatch):
        # width 1 runs first (fold-0 error 1 < 4): its lead ridge 1e-3
        # completes alone with 1, and its ridge 1e-2 (9/4) is dropped
        # before fold 1. Width 0.5's ridge 1e-3 has the partial score 4/4,
        # equal to the best, so it runs on, ties at 1 and wins as the
        # smaller cell; its ridge 1e-2 (9/4) is dropped before fold 1
        report, trainings = self.run_paths(monkeypatch, [
            [((2,), (3,)), ((0,), (0,)), ((0,), (0,)), ((0,), (0,))],
            4 * [((1,), (3,))],
        ], 2)
        assert [t for t in trainings if t[1] == 0.5] == [
            (0, 0.5, self.RIDGES[:2]), (1, 0.5, (1e-3,)), (2, 0.5, (1e-3,)),
            (3, 0.5, (1e-3,)), ("final", 0.5, (1e-3,)),
        ]
        # one ridge of each width in folds 1-3
        assert report.info["pruned_paths"] == 3 + 3
        assert report.selected == {"width_multiplier": 0.5, "ridge": 1e-3, "n_centers": 1}
        assert report.cv_score == 1.0

    def test_a_dropped_ridges_cells_are_not_counted_as_excluded(self, monkeypatch):
        # width 1's lead ridge 1e-3 completes first with 1, and its ridge
        # 1e-2 (9/4) is dropped before fold 1. Width 0.5 grows two centers
        # per ridge in fold 0 and one afterwards: its ridge 1e-3 runs on
        # (the 1-center partial score 4/4 ties the best), and its 2-center
        # cell, short of folds 1-3, is excluded; ridge 1e-2 (9/4 and 16/4)
        # is dropped before fold 1, and its two cells leave the table, as
        # does width 1's ridge 1e-2's cell
        report, _ = self.run_paths(monkeypatch, [
            [((2, 3), (3, 4)), ((0,), (0,)), ((0,), (0,)), ((0,), (0,))],
            4 * [((1,), (3,))],
        ], 2)
        assert report.info["pruned_paths"] == 3 + 3
        assert report.selected == {"width_multiplier": 0.5, "ridge": 1e-3, "n_centers": 1}
        assert report.notes == ("1 cells not scored in every fold were excluded",)


class TestFamilies:
    """The engine reads what differs between model families from one
    record per family, ``selection._FAMILIES``, and names none of them."""

    @staticmethod
    def toy_train(spec, jobs):
        """A toy family's stack trainer: a call ``(scale, shrinks)`` has one
        path per shrink factor, whose one cell predicts ``scale * shrink *
        mean(y)`` on every new row."""
        for (_, X_new), y, k_imp, n_comp, (scale, shrinks), _ in jobs:
            yield [([(k_imp, n_comp, scale, shrink)],
                    np.full((X_new.shape[0], 1), scale * shrink * np.mean(y)))
                   for shrink in shrinks]

    def test_the_engine_runs_a_family_it_never_names(self, data, monkeypatch):
        toy = selection._Family(
            params=("scale", "shrink"), pca_sizes=(1, 3),
            rules=((lambda spec: spec.pca.kind == "none", "the toy needs a PCA stage"),),
            calls=lambda spec: [((scale, (0.5, 1.0, 10.0)), f"scale={scale:g}")
                                for scale in (1.0, 3.0)],
            inputs=lambda X, X_new: (X, X_new), train=self.toy_train, reports_paths=True)
        monkeypatch.setitem(selection._FAMILIES, "toy", toy)
        train, test = data
        with pytest.raises(ConfigError, match="the toy needs a PCA stage"):
            run_experiment(ExperimentSpec("toy", "toy", RepresentationSpec("raw")), train, test)
        spec = ExperimentSpec("toy", "toy", RepresentationSpec("raw"), pca=PcaSpec("classical"))
        assert spec.pca.grid(spec.model) == (1, 3)
        report = run_experiment(spec, train, test)
        selected, cv_score, test_rmse = fold_major_cv(spec, train, test)
        assert report.selected == selected
        assert list(selected) == ["n_components", "scale", "shrink"]
        assert report.cv_score.hex() == cv_score.hex()
        assert report.test_rmse.hex() == test_rmse.hex()
        # shrink 10 is far off, so the schedule drops its paths
        assert report.info["pruned_paths"] > 0

    def test_no_rbfn_path_outlives_its_job(self, data, monkeypatch):
        # each job's paths die once the engine has tabulated its result:
        # when the next job starts, none of an earlier job's is alive
        real = rbfn_mod.train_ols_paths
        refs, alive_at_start = [], []

        def spy(*args, **kwargs):
            alive_at_start.append(sum(ref() is not None for ref in refs))
            paths = real(*args, **kwargs)
            refs.extend(weakref.ref(path) for path in paths)
            return paths

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", spy)
        spec = ExperimentSpec("retention", "rbfn", RepresentationSpec("raw"),
                              pca=PcaSpec("classical", component_grid=(2, 4)), rbfn=SMALL_RBFN)
        run_experiment(spec, *data)
        assert len(alive_at_start) > 2 * len(SMALL_RBFN.width_multipliers)
        assert alive_at_start == [0] * len(alive_at_start)


class TestFailingTrainingCall:
    """A CV training call that raises leaves its cells unscored in that fold
    and is named in a note; the row goes on."""

    MLP = MlpSettings(hidden_grid=(1, 2), decay_grid=(1e-3,), restarts=3,
                      cv_restarts=3, max_iter=60, cv_max_iter=60)

    def spec(self, mlp=MLP):
        return ExperimentSpec(
            "failing-call", "mlp", RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,), whiten=True),
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
            # the hidden = 1 job of the first stack, fold 0's, fails; a later
            # training would succeed
            results = real_train(X, y, hidden, decay, **kwargs)
            if 1 in hidden and not failed:
                failed.append(1)
                results[hidden.index(1)] = TrainingError(
                    "1 of 3 restart(s) start at a non-finite loss")
            return results

        monkeypatch.setattr(mlp_mod, "train", fail_first_hidden_1)
        report = run_experiment(self.spec(), train, test)
        assert report.selected["hidden"] == 2
        assert np.isfinite(report.cv_score) and np.isfinite(report.test_rmse)
        # hidden = 1 has no cell scored in fold 0, so once hidden = 2 is
        # complete it cannot win: its folds 1 and 2 are pruned, and a pruned
        # cell is not counted as excluded
        assert report.notes == (
            "fold 0, comps=2, hidden=1, decay=0.001: "
            "1 of 3 restart(s) start at a non-finite loss",
        )
        assert report.info["pruned_trainings"] == 2

    def test_failing_call_without_pca_names_only_the_call(self, data, monkeypatch):
        train, test = data
        spec = ExperimentSpec("failing-rbfn", "rbfn", RepresentationSpec("raw"),
                              rbfn=SMALL_RBFN, seed=2)
        real_train_ols_paths = rbfn_mod.train_ols_paths
        calls = []

        def fail_first(sq_dists, y, width, ridges, max_centers, **kwargs):
            # fold 0's first call, width multiplier 0.5, fails; the
            # multipliers are powers of 2, so the quotient is exact
            calls.append((width / rbfn_mod.median_width(sq_dists), tuple(ridges)))
            if len(calls) == 1:
                raise TrainingError("no center could be added")
            return real_train_ols_paths(sq_dists, y, width, ridges, max_centers, **kwargs)

        monkeypatch.setattr(rbfn_mod, "train_ols_paths", fail_first)
        report = run_experiment(spec, train, test)
        assert report.selected["width_multiplier"] != 0.5
        # width 0.5 has no cell scored in fold 0: once another width is
        # complete, its folds 1 to 3 are pruned and its cells not counted
        assert report.notes == ("fold 0, width_multiplier=0.5: no center could be added",)
        assert report.info["pruned_trainings"] == 3
        # fold 0; then width 2, the first of the later-fold order on these
        # data, grows its lead ridge alone through folds 1-3, which drops
        # its other ridge before fold 1, and width 1 keeps one ridge; the
        # refit trains the winner's ridge
        both, lead = SMALL_RBFN.ridges, SMALL_RBFN.ridges[:1]
        assert calls == [(0.5, both), (1.0, both), (2.0, both)] + 3 * [(2.0, lead)] + \
            3 * [(1.0, lead)] + [(2.0, lead)]
        # width 2's and width 1's ridge 1e-1 and width 0.5's two ridges,
        # in folds 1-3 each
        assert report.info["pruned_paths"] == 3 + 3 + 2 * 3


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

        def short_final(sq_dists, y, width, ridges, max_centers, **kwargs):
            # the folds get their full paths; the final refit stops after 1
            requested.append(max_centers)
            length = 1 if len(requested) > spec.folds else max_centers
            return real_train_ols_paths(sq_dists, y, width, ridges, length, **kwargs)

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

    # the function, the position of its training rows' matrix, the error
    @pytest.mark.parametrize("module, name, arg, error", [
        (imp_mod, "fill", 2, ImputationError),
        (fpca_mod, "fit_fpca", 0, DegenerateComponentError),
        (fpca_mod, "scores", 1, DegenerateComponentError),
        (rbfn_mod, "train_ols_paths", 0, TrainingError),
    ])
    def test_a_failure_on_the_full_training_set_alone_is_raised(self, monkeypatch, module,
                                                                  name, arg, error):
        # every fold prepares and trains on 18 of the 24 training rows, so
        # only the refit meets the failure; it reaches the caller as the
        # toolkit error itself, not as a note or a ConfigError
        X = np.random.default_rng(9).normal(size=(30, 5))
        train, test = vector_dataset(X[:24], X[:24, 0]), vector_dataset(X[24:], X[24:, 0])
        spec = ExperimentSpec(
            "refit-failure", "rbfn", RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,)),
            rbfn=RbfnSettings(width_multipliers=(1.0,), ridges=(1e-3,), max_centers=4),
            seed=1,
        )
        real = getattr(module, name)
        rows = []

        def fail_on_all_rows(*args, **kwargs):
            rows.append(args[arg].shape[0])
            if rows[-1] == len(train):
                raise error("refit failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fail_on_all_rows)
        with pytest.raises(error, match="refit failure"):
            run_experiment(spec, train, test)
        assert rows.count(len(train)) == 1 and len(rows) > spec.folds


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
            pca=PcaSpec("classical", component_grid=(2, 3), whiten=True),
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
            pca=PcaSpec("classical", component_grid=(3,), whiten=True),
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

    def test_sizes_leave_one_out_skipped_are_noted(self, holed):
        # on holed curves the larger sizes interpolate some curve, so LOO
        # skips them, and the report names them. Sizes 10-14 are stopped
        # once they can no longer beat size 8, before 12 and 14 reach a
        # curve they interpolate: they are listed apart, not in the note
        spec = ExperimentSpec("loo-holes", "rbfn", representation=RepresentationSpec("bspline"),
                              rbfn=SMALL_RBFN, seed=5)
        report = run_experiment(spec, *holed)
        assert sorted(report.info["loo_scores"]) == [8]
        assert report.info["loo_pruned"] == [10, 12, 14]
        assert report.notes[0] == (
            "leave-one-out skipped basis sizes [16, 18], the first with "
            "DegenerateLooError: hat diagonal reaches 1: leave-one-out undefined "
            "(interpolating fit)"
        )

    def test_knn_preprocessing_once_per_fold_and_k(self, holed, monkeypatch):
        train, test = holed
        spec = ExperimentSpec(
            "knn-cache", "rbfn",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2, 3, 4)),
            impute=ImputeSpec("knn", k_grid=(1, 4)),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        real_transform = imp_mod.KnnImputer.transform
        real_fit = fpca_mod.Standardizer.fit
        real_pair, real_cross = imp_mod.pair_distances, imp_mod.cross_distances
        real_grids = selection.Grids
        calls, fits, events = [], [], []

        def counted(self, values, mask, distances, names):
            calls.append(np.array_equal(values, self.values_))  # the fitted rows
            return real_transform(self, values, mask, distances, names)

        def counted_fit(self, X):
            fits.append(X.shape)
            return real_fit(self, X)

        def pair(values, mask):
            events.append(("training distances", len(values)))
            return real_pair(values, mask)

        def cross(new_values, *args):
            events.append(("test distances", len(new_values)))
            return real_cross(new_values, *args)

        def grids(functions):
            events.append(("grouping", len(functions)))
            return real_grids(functions)

        monkeypatch.setattr(imp_mod.KnnImputer, "transform", counted)
        monkeypatch.setattr(fpca_mod.Standardizer, "fit", counted_fit)
        monkeypatch.setattr(imp_mod, "pair_distances", pair)
        monkeypatch.setattr(imp_mod, "cross_distances", cross)
        monkeypatch.setattr(selection, "Grids", grids)
        a = run_experiment(spec, train, test)
        # imputation, per fold: the training rows and the validation rows
        # once each for the whole k grid; the final refit: the training
        # rows, then the test rows
        assert len(calls) == 2 * spec.folds + 2
        assert calls.count(True) == spec.folds + 1
        # the training rows' distances are formed once, for every fold and
        # the refit; the test rows' once, after the test curves are grouped
        assert events == [("grouping", len(train)), ("training distances", len(train)),
                          ("grouping", len(test)), ("test distances", len(test))]
        # standardization, per (fold, k), then once for the final refit
        assert len(fits) == spec.folds * len(spec.impute.k_grid) + 1
        b = run_experiment(spec, train, test)
        assert (a.selected, a.cv_score, a.test_rmse, a.notes) == (
            b.selected, b.cv_score, b.test_rmse, b.notes
        )

    @pytest.mark.parametrize("impute, pca", [
        (ImputeSpec("knn", k_grid=(1, 2, 4)),
         PcaSpec("classical", component_grid=(4,), whiten=True)),
        (ImputeSpec("knn", k_grid=(1, 2, 4)), PcaSpec("none")),
    ], ids=["pca", "no-pca"])
    def test_one_k_chain_equals_its_grid_column(self, holed, impute, pca):
        # the final refit fits the chain for the winning k alone; it must
        # give the numbers the folds' chain gave that k within the grid
        train, test = holed
        spec = ExperimentSpec("chain", "rbfn", RepresentationSpec("raw"),
                              pca=pca, impute=impute, rbfn=SMALL_RBFN)
        stage = selection._Stage1(spec, train)
        train_rows = stage.train_values, stage.train_mask
        test_rows = stage.features(fdata.Grids(test.functions))
        ks = impute.grid()
        comp_grid = (2, 4) if pca.kind != "none" else (0,)
        call = (1.0, (1e-3,), 4)
        distances = knn_distances(*train_rows, *test_rows)
        names = ([f.id for f in train.functions], [f.id for f in test.functions])

        def chain(ks):
            inputs, failures, _ = selection._prepare(spec, ks, comp_grid, train_rows, test_rows,
                                                     distances, names)
            assert failures == []
            results = list(selection._FAMILIES["rbfn"].train(
                spec, [(prepared, train.targets, k_imp, n_comp, call, None)
                       for (k_imp, n_comp), prepared in inputs.items()]))
            assert not any(isinstance(result, FdaregError) for result in results)
            return [trained for result in results for trained in result]

        grid_fill, _ = imp_mod.fill("knn", ks, *train_rows, *test_rows, distances, names)
        grid = chain(ks)
        assert len(grid_fill) == len(ks) and len(grid) == len(ks) * len(comp_grid)
        for i, k in enumerate(ks):
            [alone_fill], _ = imp_mod.fill("knn", (k,), *train_rows, *test_rows, distances, names)
            for got, want in zip(alone_fill, grid_fill[i]):
                assert got.flags.c_contiguous and want.flags.c_contiguous
                np.testing.assert_array_equal(got, want)
            alone = chain((k,))
            column = [(cells, P) for cells, P in grid if cells[0][0] == k]
            assert [cells for cells, _ in alone] == [cells for cells, _ in column]
            for (_, got), (_, want) in zip(alone, column):
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
            pca=PcaSpec("classical", component_grid=(2,)),
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
        values, mask = stage.train_values, stage.train_mask
        call = (1.0, (1e-3,), 4)
        D = imp_mod.pair_distances(values, mask)
        ids = np.array([f.id for f in train.functions])
        notes: list[str] = []
        cells = []
        for fold_i, (tr, va) in enumerate(plan):
            inputs, failures, _ = selection._prepare(
                spec, (1, 2), (2,), (values[tr], mask[tr]), (values[va], mask[va]),
                (D[np.ix_(tr, tr)], D[np.ix_(va, tr)]), (ids[tr], ids[va]))
            notes += [selection._fold_note(fold_i, exc, k_imp, n_comp, "")
                      for k_imp, n_comp, exc in failures]
            results = selection._FAMILIES["rbfn"].train(
                spec, [(prepared, train.targets[tr], k_imp, n_comp, call, fold_i)
                       for (k_imp, n_comp), prepared in inputs.items()])
            cells.append(sorted({cell[:2] for result in results for block, _ in result
                                 for cell in block}))
        assert cells == [[], *[[(1, 2), (2, 2)]] * 3]
        # the note names the first row of fold 0's training matrix by its
        # curve's id, not by its place in the fold
        assert plan[0][0][0] == 12 and train.functions[12].id == 12
        assert notes == [
            f"fold 0, impute k={k}: no donor observes coordinate 7 for function 12"
            for k in (1, 2)
        ]
        cause = ("no grid cell was scored in every fold; 2 fold failures, first: "
                 "fold 0, impute k=1: no donor observes coordinate 7 for function 12")
        with pytest.raises(ConfigError, match=re.escape(cause)):
            run_experiment(spec, train, full)

    def test_short_donor_fills_are_counted_in_one_note(self):
        # coordinate 7 is observed by the first two validation curves of each
        # fold alone: a fold's training rows hold 6 donors for it and the
        # full training set 8, so with k = 10 every hole at 7 is short, in
        # the training and the new rows; k = 1 is never short
        rng = np.random.default_rng(32)
        full = synthetic_dataset(rng, n=30, m=12)
        spec = ExperimentSpec(
            "knn-short", "rbfn",
            representation=RepresentationSpec("raw"),
            pca=PcaSpec("classical", component_grid=(2,)),
            impute=ImputeSpec("knn", k_grid=(1, 10)),
            rbfn=SMALL_RBFN,
            seed=5,
        )
        n = 24
        plan = make_folds(n, spec.folds, derive_seed(spec.seed, "folds"))
        observers = {int(i) for _, va in plan for i in va[:2]}
        keep = np.arange(12) != 7
        holed = fdata.Dataset(
            [f if i in observers else fdata.SampledFunction(f.x[keep], f.y[keep], id=f.id)
             for i, f in enumerate(full.functions)],
            full.targets, full.domain,
        )
        train, test = fdata.split(holed, len(full) - n, shuffle=False)
        report = run_experiment(spec, train, test)
        holes = n - len(observers)
        refit = holes + len(test) if report.selected["impute_k"] == 10 else 0
        short = [note for note in report.notes if "fewer than k donors" in note]
        assert short == [
            f"{len(plan) * holes + refit} k-NN fills in the folds and the final refit had "
            "fewer than k donors observing the coordinate and used all of them"
        ]
        assert run_experiment(spec, train, test).notes == report.notes


class TestDataChecks:
    @pytest.mark.parametrize("representation", [
        RepresentationSpec("raw"), RepresentationSpec("bspline", order=4, dimension=8),
    ], ids=["raw", "bspline"])
    def test_empty_test_set_is_a_config_error(self, data, representation):
        # a raw row would read the first test curve's grid, a B-spline row
        # would report the RMSE of no prediction
        train, _ = data
        _, empty = fdata.split(train, 0, shuffle=False)
        spec = ExperimentSpec("empty-test", "rbfn", representation, rbfn=SMALL_RBFN)
        with pytest.raises(ConfigError, match="experiment empty-test: the test set is empty"):
            run_experiment(spec, train, empty)

    @pytest.mark.parametrize("spec, error, text", [
        (ExperimentSpec("constant-test", "rbfn", RepresentationSpec("bspline", order=4,
                                                                    dimension=8),
                        TransformSpec("center-reduce"), rbfn=SMALL_RBFN),
         ConstantFunctionError, "function 777 is constant: reduction is undefined"),
        (ExperimentSpec("constant-test", "rbfn", RepresentationSpec("raw"),
                        impute=ImputeSpec(expert_scale=True), rbfn=SMALL_RBFN),
         ScalingError, "function 777: observed values are constant"),
    ], ids=["center-reduce", "expert-scale"])
    def test_a_constant_test_curve_is_named_by_its_id(self, spec, error, text):
        # the constant curve is row 4 of the test set, and training row 4
        # is another curve: the stage-1 error names the curve by its id
        curves = synthetic_dataset(np.random.default_rng(13), n=30, m=20)
        x = curves.functions[0].x
        dataset = fdata.Dataset([*curves.functions, fdata.SampledFunction(x, np.full(x.size, 2.0),
                                                                          id=777)],
                                np.append(curves.targets, 1.0), curves.domain)
        train, test = fdata.split(dataset, 5, shuffle=False)
        assert test.functions[4].id == 777 and train.functions[4].id == 4
        with pytest.raises(error, match=re.escape(text)):
            run_experiment(spec, train, test)

    def test_a_test_curve_the_knn_fill_cannot_fill_is_named_by_its_id(self):
        # the training curves observe grid points 0-12 or 6-19 in turn;
        # curve 777 observes 0-5 alone, so every curve that observes point
        # 13 shares no point with it and it has no donor there. It is row 4
        # of the test set, and training row 4 is another curve: the final
        # refit's k-NN error names it by its id
        curves = synthetic_dataset(np.random.default_rng(14), n=31, m=20)
        blocks = [np.r_[0:13], np.r_[6:20], np.r_[0:6]]
        functions = [fdata.SampledFunction(f.x[blocks[i % 2]], f.y[blocks[i % 2]], id=f.id)
                     for i, f in enumerate(curves.functions[:30])]
        last = curves.functions[30]
        functions.append(fdata.SampledFunction(last.x[blocks[2]], last.y[blocks[2]], id=777))
        dataset = fdata.Dataset(functions, curves.targets, curves.domain)
        train, test = fdata.split(dataset, 5, shuffle=False)
        assert test.functions[4].id == 777 and train.functions[4].id == 4
        spec = ExperimentSpec("unfillable-test", "rbfn", RepresentationSpec("raw"),
                              impute=ImputeSpec("knn", k_grid=(1, 2)), rbfn=SMALL_RBFN)
        with pytest.raises(ImputationError,
                           match=re.escape("no donor observes coordinate 13 for function 777")):
            run_experiment(spec, train, test)

    @pytest.mark.parametrize("impute", [ImputeSpec(), ImputeSpec("knn", k_grid=(1, 2))],
                             ids=["raw", "knn"])
    def test_test_grid_off_the_training_grid_is_a_named_validation_error(self, impute):
        # 5e-3 nm is within np.allclose's default rtol on [850, 1050] nm;
        # both grid routes hold the 1e-9 absolute bound and name the curve
        rng = np.random.default_rng(12)
        train, test = fdata.split(synthetic_dataset(rng, n=30, m=20, domain=(850.0, 1050.0)),
                                  8, shuffle=False)
        shift = np.r_[0.0, np.full(18, 5e-3), 0.0]
        test = fdata.Dataset([fdata.SampledFunction(f.x + shift, f.y, id=f.id)
                              for f in test.functions], test.targets, test.domain)
        spec = ExperimentSpec("shifted", "rbfn", RepresentationSpec("raw"), impute=impute,
                              rbfn=SMALL_RBFN)
        with pytest.raises(ValidationError,
                           match="function 22 has samples off the common grid"):
            run_experiment(spec, train, test)

    @pytest.mark.parametrize("representation, impute, dataset", [
        (RepresentationSpec("bspline", order=4), ImputeSpec(), "holed"),
        (RepresentationSpec("raw"), ImputeSpec("mean"), "holed"),
        (RepresentationSpec("raw"), ImputeSpec(), "data"),
    ], ids=["bspline-loo", "raw-mean", "raw"])
    def test_each_dataset_is_grouped_by_grid_once(self, request, monkeypatch,
                                                   representation, impute, dataset):
        # basis-size selection, the training fit and the grid routes, with
        # and without a mask, all reuse the one grouping of the training
        # curves
        built = []

        class Counted(fdata.Grids):
            def __init__(self, functions):
                built.append(len(functions))
                super().__init__(functions)

        for module in (fdata, selection, rep_mod):
            monkeypatch.setattr(module, "Grids", Counted)
        train, test = request.getfixturevalue(dataset)
        spec = ExperimentSpec("grouped", "rbfn", representation, impute=impute,
                              rbfn=SMALL_RBFN)
        run_experiment(spec, train, test)
        assert built == [len(train), len(test)]

    def test_raw_route_without_imputation_needs_a_common_grid(self, holed):
        # expert scaling fills no hole: without an imputer the model would
        # read every hole as 0
        train, test = holed
        for impute in (ImputeSpec(), ImputeSpec(expert_scale=True)):
            spec = ExperimentSpec("holed-raw", "rbfn", RepresentationSpec("raw"),
                                  impute=impute, rbfn=SMALL_RBFN)
            with pytest.raises(ValidationError,
                               match="functions are not sampled on a common grid"):
                run_experiment(spec, train, test)

    def test_expert_scaling_without_imputation_on_complete_curves(self, data):
        # every entry is observed, so the grid route scales the full rows
        train, test = data
        spec = ExperimentSpec("expert-raw", "rbfn", RepresentationSpec("raw"),
                              impute=ImputeSpec(expert_scale=True), rbfn=SMALL_RBFN)
        stage = selection._Stage1(spec, train)
        grids = fdata.Grids(train.functions)
        values, mask = grids.on(stage.grid)
        assert mask.all() and stage.train_mask is None
        np.testing.assert_array_equal(stage.train_values,
                                      imp_mod.expert_scale_matrix(values, mask, grids.ids))
        assert np.isfinite(run_experiment(spec, train, test).test_rmse)

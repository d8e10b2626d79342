"""Acceptance suite.

Criterion 1: oracle equivalences (independent reference computations).
Criterion 2: invariant suites, < 30 s in total.
Criterion 3: benchmark-number reproduction on the real Tecator file
             (opt-in: set FDAREG_TECATOR; the MLP tables take a while).
Criterion 4: byte-identical reports for reruns with one master seed.

One pass/fail line per test is printed in the terminal summary (see
conftest.pytest_terminal_summary).
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    hat_diagonal,
    random_spline_function,
    requires_tecator,
    synthetic_dataset,
    tecator_path,
    trainer_gradient,
)
from fdareg import basis, cli, fdata, fpca, imputation, mlp, rbfn, represent, transforms
from fdareg.cv import derive_seed
from fdareg.errors import DegenerateLooError, UnidentifiableCoefficientsError
from fdareg.selection import IsolationError, SealedTestSet, run_experiment
from fdareg.suites import (
    table1_specs,
    table2_specs,
    table3_mlp_specs,
    table3_specs,
    table4_specs,
    table5_specs,
)
from oracles import (
    brute_force_greedy,
    central_difference_grad,
    dense_grid_pca,
    naive_loo,
    quadrature_integral,
)

_invariant_times: dict[str, float] = {}


class _timed:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        _invariant_times[self.label] = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalences
# ---------------------------------------------------------------------------


class TestOracleEquivalences:
    def test_fast_loo_equals_naive_refit_loo(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        done = 0
        while done < 50:
            order = int(rng.integers(2, 5))
            q = int(rng.integers(order + 1, 9))
            b = basis.BSplineBasis.uniform(0.0, 1.0, q - order, order)
            m = int(rng.integers(q + 3, 31))
            f, _ = random_spline_function(rng, b, noise=0.3, m=m)
            try:
                if hat_diagonal(f, b).max() > 0.99:
                    continue
                [fast] = represent.loo_scores([f], b)
            except (UnidentifiableCoefficientsError, DegenerateLooError):
                continue
            assert fast == pytest.approx(naive_loo(f, b), rel=1e-10)
            done += 1
        assert time.perf_counter() - t0 < 5.0

    def test_beta_geometry_equals_quadrature(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            order = int(rng.integers(2, 6))
            b = basis.BSplineBasis.uniform(0.0, 2.0, int(rng.integers(3, 9)), order)
            f1, _ = random_spline_function(rng, b, noise=0.05)
            f2, _ = random_spline_function(rng, b, noise=0.05)
            alpha, _ = represent.fit_dataset([f1, f2], b)
            beta = alpha @ b.gram_factor().chol.T
            g1 = lambda xs: b.evaluate(xs) @ alpha[0]  # noqa: E731
            g2 = lambda xs: b.evaluate(xs) @ alpha[1]  # noqa: E731
            edges = b.knots.edges
            ref_inner = quadrature_integral(lambda xs: g1(xs) * g2(xs), edges)
            ref_dist = np.sqrt(
                quadrature_integral(lambda xs: (g1(xs) - g2(xs)) ** 2, edges)
            )
            assert beta[0] @ beta[1] == pytest.approx(ref_inner, rel=1e-8)
            assert np.linalg.norm(beta[0] - beta[1]) == pytest.approx(ref_dist, rel=1e-8)

    def test_fpca_equals_dense_grid_pca(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            order = int(rng.integers(3, 6))
            b = basis.BSplineBasis.uniform(0.0, 1.0, int(rng.integers(3, 7)), order)
            n = int(rng.integers(10, 25))
            fns = [random_spline_function(rng, b, noise=0.0)[0] for _ in range(n)]
            alpha, _ = represent.fit_dataset(fns, b)
            betas = alpha @ b.gram_factor().chol.T
            model = fpca.fit_fpca(betas, n_components=3)
            ref_scores, ref_eval = dense_grid_pca(b, alpha, 3)

            ours = fpca.scores(model, betas)[:, :3]
            for j in range(3):
                flip = np.sign(ref_scores[:, j] @ ours[:, j]) or 1.0
                np.testing.assert_allclose(
                    ours[:, j], flip * ref_scores[:, j], rtol=1e-6, atol=1e-9
                )
            np.testing.assert_allclose(
                model.eigenvalues[:3] / model.eigenvalues[0],
                ref_eval / ref_eval[0],
                rtol=1e-6,
            )

    def test_derivative_recurrence_equals_analytic(self):
        rng = np.random.default_rng(104)
        grid = np.linspace(0.0, 1.0, 100)
        for order, s_max in ((4, 2), (5, 2), (6, 2)):
            b = basis.BSplineBasis.uniform(0.0, 1.0, 6, order)
            coefs = rng.normal(size=order)  # degree < order: in span
            poly = np.polynomial.Polynomial(coefs)
            x = np.linspace(0.0, 1.0, 3 * b.dimension)
            alpha, _ = represent.fit_dataset([fdata.SampledFunction(x, poly(x))], b)
            for s in range(1, s_max + 1):
                d, on, _ = transforms.transform_dataset(
                    alpha, b, b.gram_factor(), f"deriv{s}"
                )
                np.testing.assert_allclose(
                    on.evaluate(grid) @ d[0], poly.deriv(s)(grid), atol=1e-9
                )

    def test_ols_selection_equals_brute_force(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            n = int(rng.integers(8, 21))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            pool = np.arange(5)
            y = rng.normal(size=n)
            width = 0.5 + rng.uniform()
            ridge = float(rng.choice([0.0, 1e-4, 1e-1]))

            F = rbfn.design_matrix(X, X[pool], width)
            expected = brute_force_greedy(F, y, ridge, steps=5)
            [path] = rbfn.train_ols_paths(
                X, y, width, (ridge,), max_centers=len(expected), candidate_idx=pool
            )
            np.testing.assert_array_equal(path.selected, expected)

    def test_mlp_gradients_equal_finite_differences(self):
        # the gradient train steps on against central differences of its loss
        rng = np.random.default_rng(106)
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
            scale = np.maximum(np.abs(fd), 1e-3 * max(1.0, np.abs(fd).max()))
            assert np.max(np.abs(grad - fd) / scale) < 1e-6


# ---------------------------------------------------------------------------
# criterion 2: invariant suites (< 30 s total)
# ---------------------------------------------------------------------------


class TestInvariantSuites:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(201)
        with _timed("partition"):
            for order in (2, 3, 4, 5, 6):
                b = basis.BSplineBasis.uniform(0.0, 1.0, 8, order)
                x = rng.uniform(0.0, 1.0, 1000)
                sums = b.evaluate(x).sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_hat_trace_equals_dimension(self):
        rng = np.random.default_rng(202)
        with _timed("trace"):
            for _ in range(10):
                order = int(rng.integers(2, 6))
                b = basis.BSplineBasis.uniform(0.0, 1.0, int(rng.integers(2, 8)), order)
                f, _ = random_spline_function(rng, b, noise=0.2)
                hat = hat_diagonal(f, b)
                assert np.sum(hat) == pytest.approx(b.dimension, abs=1e-8)
                assert np.all(hat > -1e-10) and np.all(hat < 1 + 1e-10)

    def test_regularized_ols_error_monotone(self):
        rng = np.random.default_rng(203)
        with _timed("ols-monotone"):
            for ridge in (0.0, 1e-4, 1e-1, 1.0):
                X = rng.normal(size=(40, 3))
                y = rng.normal(size=40)
                [path] = rbfn.train_ols_paths(X, y, 1.0, (ridge,), max_centers=35)
                assert np.all(np.diff(path.objective) <= 1e-10)

    def test_deriv_metric_level_shift_invariance(self):
        rng = np.random.default_rng(204)
        with _timed("level-shift"):
            b = basis.BSplineBasis.uniform(0.0, 1.0, 8, 5)
            gram = b.gram_factor()

            def deriv_betas(alpha):
                d, _, d_gram = transforms.transform_dataset(alpha, b, gram, "deriv1")
                return d @ d_gram.chol.T

            fns = [random_spline_function(rng, b, noise=0.02)[0] for _ in range(12)]
            alpha, _ = represent.fit_dataset(fns, b)
            X = deriv_betas(alpha)
            y = rng.normal(size=12)
            [path] = rbfn.train_ols_paths(X, y, rbfn.median_width(X), (1e-3,), max_centers=8)
            model = path.model(8)

            ones = b.constant_coefficients()
            shifts = np.array([rng.normal() for _ in range(12)])
            X_shift = deriv_betas(alpha + 5.0 * np.outer(shifts, ones))
            np.testing.assert_allclose(
                rbfn.predict(model, X_shift), rbfn.predict(model, X), atol=1e-9
            )

    def test_test_set_isolation(self):
        with _timed("isolation"):
            sealed = SealedTestSet(("the", "test", "set"))
            with pytest.raises(IsolationError):
                sealed.peek()
            assert sealed.peek_attempts == 1
            assert not sealed.unlocked
            rng = np.random.default_rng(205)
            ds = synthetic_dataset(rng, n=30, m=20)
            train, test = fdata.split(ds, 8, shuffle=False)
            from fdareg.selection import ExperimentSpec, RbfnSettings, RepresentationSpec

            spec = ExperimentSpec(
                "isolation", "rbfn",
                representation=RepresentationSpec("bspline", order=4, dimension=8),
                rbfn=RbfnSettings((1.0,), (1e-3,), 10),
                seed=1,
            )
            report = run_experiment(spec, train, test)
            assert np.isfinite(report.test_rmse)

    def test_imputation_preserves_observed(self):
        rng = np.random.default_rng(206)
        with _timed("imputation"):
            for _ in range(5):
                V = rng.normal(size=(15, 10))
                M = rng.uniform(size=V.shape) > 0.25
                M[0] = True
                knn = imputation.KnnImputer(3).fit(V, M)
                for out in (
                    imputation.MeanImputer().fit(V, M).transform(V, M),
                    knn.transform(V, M, is_fit_data=True),
                ):
                    np.testing.assert_array_equal(out[M], V[M])
                scaled = imputation.expert_scale_matrix(V, M)
                np.testing.assert_array_equal(scaled[~M], V[~M])

    def test_invariant_suite_runtime(self):
        assert len(_invariant_times) == 6
        assert sum(_invariant_times.values()) < 30.0


# ---------------------------------------------------------------------------
# criterion 4: determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_suite_rerun_byte_identical_reports(self, tmp_path):
        rng = np.random.default_rng(401)
        ds = synthetic_dataset(rng, n=40, m=26, noise=0.005)
        data_file = tmp_path / "synthetic.pairs"
        fdata.save_generic_pairs(ds, data_file)

        outs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            rc = cli.main([
                "suite", "--table", "table3",
                "--data", str(data_file), "--format", "generic-pairs",
                "--test-size", "10", "--seed", "123",
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)

        assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()
        for row in outs[0].glob("row_*.json"):
            assert row.read_bytes() == (outs[1] / row.name).read_bytes(), row.name
        # manifests may differ only in the output directory they were sent to
        manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
        for m in manifests:
            m["args"].pop("out")
        assert manifests[0] == manifests[1]


# ---------------------------------------------------------------------------
# criterion 3: benchmark-number reproduction (opt-in; needs the Tecator file)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tecator():
    return fdata.load_dataset(tecator_path(), "tecator-grid")


@pytest.fixture(scope="session")
def tecator_split(tecator):
    return fdata.split(tecator, 43, shuffle=False)


@pytest.fixture(scope="session")
def tecator_holed_split(tecator):
    holed = fdata.make_holes(tecator, 0.1, derive_seed(0, "holes"))
    return fdata.split(holed, 43, shuffle=False)


def _run_suite(specs, split):
    train, test = split
    out = {}
    for spec in specs:
        report = run_experiment(spec, train, test)
        out[spec.name] = report
        print(f"{spec.name}: RMSE {report.test_rmse:.3f} ({report.selected})")
    return out


@pytest.fixture(scope="session")
def table1(tecator_split):
    return _run_suite(table1_specs(seed=0), tecator_split)


@pytest.fixture(scope="session")
def table2(tecator_split):
    return _run_suite(table2_specs(seed=0), tecator_split)


@pytest.fixture(scope="session")
def table3(tecator_holed_split):
    return _run_suite(table3_specs(seed=0), tecator_holed_split)


@pytest.fixture(scope="session")
def table3_mlp(tecator_holed_split):
    return _run_suite(table3_mlp_specs(seed=0), tecator_holed_split)


@pytest.fixture(scope="session")
def table4(tecator_holed_split):
    return _run_suite(table4_specs(seed=0), tecator_holed_split)


@pytest.fixture(scope="session")
def table5(tecator_holed_split):
    return _run_suite(table5_specs(seed=0), tecator_holed_split)


def _rmse_by_index(table):
    return {
        int(name.split("-exp")[1].split("-")[0]): rep.test_rmse
        for name, rep in table.items()
    }


@requires_tecator
@pytest.mark.paper
class TestPaperNumbers:
    def test_table1_rank_order(self, table1):
        r = _rmse_by_index(table1)
        for i in (9, 10):
            assert r[i] < 2.0, f"experiment {i}: {r[i]}"
        for i in (1, 2, 5, 6):
            assert r[i] > 3.5, f"experiment {i}: {r[i]}"
        for i in (4, 7, 8):
            assert 1.2 <= r[i] <= 2.5, f"experiment {i}: {r[i]}"

    def test_table2_bands(self, table2):
        r = _rmse_by_index(table2)
        assert 0.40 <= r[1] <= 0.70, f"experiment 1: {r[1]}"
        assert 0.35 <= r[3] <= 0.60, f"experiment 3: {r[3]}"
        assert r[3] <= r[1]

    def test_table3_missing_within_25pct_of_complete(self, table1, table3):
        complete = _rmse_by_index(table1)[10]
        missing = _rmse_by_index(table3)[10]
        assert abs(missing - complete) <= 0.25 * complete

    def test_tables45_ordering(self, table3, table3_mlp, table4, table5):
        mean_rmse = table4["table4-exp1-mean-impute"].test_rmse
        knn_rmse = table4["table4-exp2-knn-impute"].test_rmse
        expert_knn = table5["table5-exp2-expert-knn-impute"].test_rmse
        assert mean_rmse > 4.0 * knn_rmse
        assert expert_knn < 1.2
        fda_rmses = [rep.test_rmse for rep in table3.values()]
        fda_rmses += [rep.test_rmse for rep in table3_mlp.values()]
        for fda in fda_rmses:
            assert fda < min(mean_rmse, knn_rmse)

    def test_selected_basis_sizes(self, tecator_split, tecator_holed_split):
        train, _ = tecator_split
        train_holed, _ = tecator_holed_split
        expectations = [
            (train.functions, {4: 48, 5: 43, 6: 32}),
            (train_holed.functions, {4: 28, 5: 27, 6: 21}),
        ]
        for functions, per_order in expectations:
            for order, target in per_order.items():
                sel = represent.select_basis_size(
                    functions, train.domain, "bspline", order
                )
                assert abs(sel.dimension - target) <= 8, (
                    f"order {order}: selected {sel.dimension}, paper {target}"
                )

import numpy as np
import pytest
import scipy.linalg

from conftest import random_spline_function
from fdareg import basis, fdata, fpca, represent, transforms
from fdareg.errors import DegenerateComponentError, ValidationError
from oracles import dense_grid_pca, quadrature_integral


def spline_betas(rng, b, n):
    """Coordinates of n random in-span functions: ``(betas, alpha)``."""
    fns = [random_spline_function(rng, b, noise=0.0)[0] for _ in range(n)]
    alpha = represent.fit_dataset(fdata.Grids(fns), b)
    return alpha @ b.gram_factor().T, alpha


class TestFitFpca:
    def test_one_dimensional_data(self, rng):
        # points on an affine line in coordinate space: one component
        direction = rng.normal(size=6)
        betas = 1.5 + np.outer(rng.normal(size=30), direction)
        model = fpca.fit_fpca(betas)
        ratio = model.explained_variance_ratio()
        assert ratio[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.eigenvalues[1:] < 1e-12 * model.eigenvalues[0])

    def test_components_orthonormal(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 40)
        model = fpca.fit_fpca(betas)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-10)

    def test_eigenvalues_sorted_nonnegative(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 40)
        model = fpca.fit_fpca(betas)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= -1e-12)

    def test_sign_convention_deterministic(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 25)
        m1 = fpca.fit_fpca(betas)
        m2 = fpca.fit_fpca(betas.copy())
        np.testing.assert_array_equal(m1.components, m2.components)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rank_error(self, rng):
        betas = rng.normal(size=(3, 8))
        with pytest.raises(ValidationError):
            fpca.fit_fpca(betas, n_components=4)

    def test_matches_dense_grid_pca(self, rng):
        # oracle: plain SVD-based PCA of the reconstructed functions sampled
        # on a 10^4-point dense grid, rows scaled by sqrt(quadrature weight)
        # so Euclidean dot products equal L2 inner products
        for _ in range(20):
            order = int(rng.integers(3, 6))
            b = basis.BSplineBasis.uniform(0.0, 1.0, int(rng.integers(3, 7)), order)
            n = int(rng.integers(10, 25))
            betas, alpha = spline_betas(rng, b, n)
            model = fpca.fit_fpca(betas, n_components=3)
            ref_scores, ref_eval = dense_grid_pca(b, alpha, 3)

            ours = fpca.scores(model, betas)[:, :3]
            for j in range(3):
                # align oracle score signs before comparing
                flip = np.sign(ref_scores[:, j] @ ours[:, j]) or 1.0
                np.testing.assert_allclose(
                    ours[:, j], flip * ref_scores[:, j], rtol=1e-6, atol=1e-9
                )
            np.testing.assert_allclose(
                model.eigenvalues[:3] / model.eigenvalues[0],
                ref_eval[:3] / ref_eval[0],
                rtol=1e-6,
            )


class TestScores:
    def test_mean_scores_zero(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 20)
        model = fpca.fit_fpca(betas)
        np.testing.assert_allclose(fpca.scores(model, model.mean), 0.0, atol=1e-10)

    def test_whitened_unit_variance(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 30)
        model = fpca.fit_fpca(betas, n_components=4)
        s = fpca.scores(model, betas, whiten=True)
        np.testing.assert_allclose(np.var(s, axis=0, ddof=1), 1.0, atol=1e-10)

    def test_whiten_degenerate_component(self, rng):
        betas = np.outer(rng.normal(size=12), np.ones(4))  # rank 1
        model = fpca.fit_fpca(betas, n_components=3)
        with pytest.raises(DegenerateComponentError):
            fpca.scores(model, betas, whiten=True)

    def test_full_reconstruction(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 30)
        q = betas.shape[1]
        model = fpca.fit_fpca(betas, n_components=q)
        s = fpca.scores(model, betas)
        back = model.mean + s @ model.components
        np.testing.assert_allclose(back, betas, atol=1e-9)

    def test_truncation_error_equals_discarded_eigenvalues(self, rng, small_bspline):
        betas, _ = spline_betas(rng, small_bspline, 35)
        n, q = betas.shape
        model = fpca.fit_fpca(betas, n_components=q)
        prev_distortion = None
        for k in (1, 2, 4, q):
            s = fpca.scores(model, betas, n_components=k)
            back = model.mean + s @ model.components[:k]
            distortion = np.sum((betas - back) ** 2)
            expected = (n - 1) * np.sum(model.eigenvalues[k:])
            assert distortion == pytest.approx(expected, rel=1e-8, abs=1e-10)
            if prev_distortion is not None:
                assert distortion <= prev_distortion + 1e-12
            prev_distortion = distortion


class TestPrincipalFunctions:
    def test_orthonormal_in_l2(self, rng, small_bspline):
        # the principal vectors tau live in beta space; U alpha = tau gives
        # the principal functions' coordinates, orthonormal by quadrature
        betas, _ = spline_betas(rng, small_bspline, 30)
        model = fpca.fit_fpca(betas, n_components=3)
        alphas = scipy.linalg.solve_triangular(small_bspline.gram_factor(),
                                               model.components.T).T
        edges = small_bspline.edges
        for i in range(3):
            for j in range(3):
                inner = quadrature_integral(
                    lambda xs: (small_bspline.evaluate(xs) @ alphas[i])
                    * (small_bspline.evaluate(xs) @ alphas[j]),
                    edges,
                )
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_first_component_tracks_function_means(self, rng, small_bspline):
        # functions differing mostly by level: PC1 scores ~ collinear with means
        x = np.linspace(0, 1, 50)
        fns = []
        for i in range(25):
            level = rng.normal() * 3.0
            wiggle = 0.05 * rng.normal() * np.sin(2 * np.pi * x)
            fns.append(fdata.SampledFunction(x, level + wiggle))
        alpha = represent.fit_dataset(fdata.Grids(fns), small_bspline)
        betas = alpha @ small_bspline.gram_factor().T
        model = fpca.fit_fpca(betas, n_components=2)
        s1 = fpca.scores(model, betas)[:, 0]
        means, _, _ = transforms.row_stats(alpha, small_bspline)
        corr = np.corrcoef(s1, means)[0, 1]
        assert abs(corr) > 0.999


class TestStandardizer:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(size=(40, 6)) * np.arange(1, 7) + np.arange(6)
        std = fpca.Standardizer().fit(X)
        Z = std.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_constant_column_passthrough(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = fpca.Standardizer().fit(X).transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0)

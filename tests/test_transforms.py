import numpy as np
import pytest

from conftest import mixed_grid_functions, quadrature_integral, random_spline_function
from fdareg import basis, fdata, represent, transforms
from fdareg.errors import ConstantFunctionError


@pytest.fixture
def rep(rng, small_bspline):
    f, _ = random_spline_function(rng, small_bspline, noise=0.02)
    return represent.fit(f, small_bspline)


class TestCenterReduce:
    def test_centered_mean_zero(self, rep):
        out = transforms.center_reduce(rep)
        stats = transforms.functional_stats(out)
        assert abs(stats.mu) < 1e-10 * max(1.0, abs(transforms.functional_stats(rep).mu))

    def test_reduced_norm_equals_volume(self, rep):
        a, b = rep.basis.domain
        out = transforms.center_reduce(rep)
        assert np.linalg.norm(out.beta) == pytest.approx(b - a, rel=1e-12)

    def test_idempotent(self, rep):
        once = transforms.center_reduce(rep)
        twice = transforms.center_reduce(once)
        np.testing.assert_allclose(twice.alpha, once.alpha, atol=1e-12)

    def test_constant_function_errors(self, small_bspline):
        x = np.linspace(0, 1, 30)
        f = fdata.SampledFunction(x, np.full(30, 2.0))
        r = represent.fit(f, small_bspline)
        assert transforms.functional_stats(r).sigma < 1e-10  # centered norm
        with pytest.raises(ConstantFunctionError):
            transforms.center_reduce(r)

    def test_affine_invariance(self, rep):
        # center_reduce(a*g + b) == sign(a) * center_reduce(g)
        base = transforms.center_reduce(rep)
        ones = rep.basis.constant_coefficients()
        for a, b in ((3.7, -2.0), (-0.25, 11.0)):
            alpha = a * rep.alpha + b * ones
            scaled = represent.Representation(
                rep.basis, rep.gram, alpha, rep.gram.chol @ alpha
            )
            out = transforms.center_reduce(scaled)
            np.testing.assert_allclose(
                out.alpha, np.sign(a) * base.alpha, atol=1e-10
            )

    def test_mean_via_inner_product_matches_quadrature(self, rep):
        stats = transforms.functional_stats(rep)
        a, b = rep.basis.domain
        ref = quadrature_integral(rep, rep.basis.knots.edges) / (b - a)
        assert stats.mu == pytest.approx(ref, rel=1e-10)

    def test_fourier_centering(self, rng):
        fb = basis.FourierBasis(0.0, 2.0, 7)
        x = np.linspace(0, 2, 50)
        f = fdata.SampledFunction(x, 3.0 + np.sin(np.pi * x))
        out = transforms.center_reduce(represent.fit(f, fb))
        assert abs(transforms.functional_stats(out).mu) < 1e-10


class TestDerive:
    def test_polynomial_derivative_exact(self, rng):
        # in-span cubic polynomial on an order-6 basis: derivatives are exact
        b = basis.BSplineBasis.uniform(0.0, 1.0, 6, 6)
        x = np.linspace(0, 1, 80)
        coefs = rng.normal(size=4)
        poly = np.polynomial.Polynomial(coefs)
        f = fdata.SampledFunction(x, poly(x))
        r = represent.fit(f, b)
        grid = np.linspace(0, 1, 100)
        for s in (1, 2):
            d = transforms.derive(r, s)
            expected = poly.deriv(s)(grid)
            np.testing.assert_allclose(d(grid), expected, atol=1e-9)

    def test_line_second_derivative_zero(self, small_bspline):
        x = np.linspace(0, 1, 40)
        f = fdata.SampledFunction(x, 2.5 * x - 1.0)
        r = represent.fit(f, small_bspline)
        d2 = transforms.derive(r, 2)
        assert np.max(np.abs(d2(np.linspace(0, 1, 50)))) < 1e-9

    def test_composition(self, rng):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 5, 5)
        f, _ = random_spline_function(rng, b, noise=0.01)
        r = represent.fit(f, b)
        two_steps = transforms.derive(transforms.derive(r, 1), 1)
        one_step = transforms.derive(r, 2)
        np.testing.assert_allclose(two_steps.alpha, one_step.alpha, atol=1e-10)
        assert two_steps.basis == one_step.basis

    def test_order_zero_is_identity(self, rep):
        assert transforms.derive(rep, 0) is rep


class TestDistance:
    """The pipeline compares functions by the Euclidean distance of their
    transformed beta rows, which is the L2 distance while beta = U alpha."""

    def test_transform_outputs_stay_consistent(self, rep):
        # beta = U alpha must hold after every transform
        for out in (
            transforms.center_reduce(rep),
            transforms.derive(rep, 1),
            transforms.derive(rep, 2),
        ):
            np.testing.assert_allclose(
                out.beta, out.gram.chol @ out.alpha, atol=1e-12 * max(1, np.abs(out.beta).max())
            )


class TestTransformDataset:
    """The matrix transforms against their one-row views."""

    @pytest.mark.parametrize("b", [
        basis.BSplineBasis.uniform(0.0, 1.0, 6, 4),
        basis.FourierBasis(0.0, 1.0, 9),
    ], ids=["bspline", "fourier"])
    def test_matrix_equals_per_row(self, rng, b):
        fns = mixed_grid_functions(rng)
        gram = b.gram_factor(7)  # the pipeline's quad_points Gram factor
        alpha, _ = represent.fit_dataset(fns, b)
        reps = [represent.fit(f, b, gram) for f in fns]
        for kind, one_row in (
            ("none", lambda r: r),
            ("center-reduce", transforms.center_reduce),
            ("deriv1", lambda r: transforms.derive(r, 1)),
            ("deriv2", lambda r: transforms.derive(r, 2)),
        ):
            out, out_basis, out_gram = transforms.transform_dataset(alpha, b, gram, kind)
            rows = [one_row(r) for r in reps]
            assert all(r.basis == out_basis and r.gram is out_gram for r in rows)
            np.testing.assert_allclose(
                out, [r.alpha for r in rows], rtol=1e-12, atol=1e-12 * np.abs(out).max()
            )
            beta = out @ out_gram.chol.T
            np.testing.assert_allclose(
                beta, [r.beta for r in rows], rtol=1e-12, atol=1e-12 * np.abs(beta).max()
            )

    def test_row_stats_equal_per_row(self, rng, small_bspline):
        fns = mixed_grid_functions(rng)
        gram = small_bspline.gram_factor()
        alpha, _ = represent.fit_dataset(fns, small_bspline)
        volume, mu, sigma, _ = transforms.row_stats(alpha, small_bspline, gram)
        for i, f in enumerate(fns):
            stats = transforms.functional_stats(represent.fit(f, small_bspline))
            assert volume == stats.volume
            assert mu[i] == pytest.approx(stats.mu, rel=1e-12, abs=1e-14)
            assert sigma[i] == pytest.approx(stats.sigma, rel=1e-12)

    def test_constant_row_named(self, rng, small_bspline):
        fns = mixed_grid_functions(rng, n_holed=0)
        alpha, _ = represent.fit_dataset(fns, small_bspline)
        alpha[2] = 4.0  # constant function: all-ones coordinates times 4
        with pytest.raises(ConstantFunctionError, match="row 2"):
            transforms.transform_dataset(
                alpha, small_bspline, small_bspline.gram_factor(), "center-reduce"
            )

import numpy as np
import pytest

from conftest import mixed_grid_functions, random_spline_function
from fdareg import basis, fdata, represent, transforms
from fdareg.errors import ConstantFunctionError
from oracles import quadrature_integral


@pytest.fixture
def alpha(rng, small_bspline):
    """Coordinates of one noisy in-span function, a one-row matrix."""
    f, _ = random_spline_function(rng, small_bspline, noise=0.02)
    return represent.fit_dataset([f], small_bspline)[0]


def transform(alpha, b, kind):
    return transforms.transform_dataset(alpha, b, b.gram_factor(), kind)


def stats(alpha, b):
    """Row-wise ``(volume, mu, sigma)``."""
    return transforms.row_stats(alpha, b, b.gram_factor())[:3]


class TestCenterReduce:
    def test_centered_mean_zero(self, alpha, small_bspline):
        out, _, _ = transform(alpha, small_bspline, "center-reduce")
        mu = stats(out, small_bspline)[1]
        assert abs(mu[0]) < 1e-10 * max(1.0, abs(stats(alpha, small_bspline)[1][0]))

    def test_reduced_norm_equals_volume(self, alpha, small_bspline):
        a, b = small_bspline.domain
        out, _, gram = transform(alpha, small_bspline, "center-reduce")
        assert np.linalg.norm(out[0] @ gram.chol.T) == pytest.approx(b - a, rel=1e-12)

    def test_idempotent(self, alpha, small_bspline):
        once, _, _ = transform(alpha, small_bspline, "center-reduce")
        twice, _, _ = transform(once, small_bspline, "center-reduce")
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_function_errors(self, small_bspline):
        x = np.linspace(0, 1, 30)
        f = fdata.SampledFunction(x, np.full(30, 2.0))
        alpha, _ = represent.fit_dataset([f], small_bspline)
        assert stats(alpha, small_bspline)[2][0] < 1e-10  # centered norm
        assert transforms.constant_rows(alpha, small_bspline, small_bspline.gram_factor())[0]
        with pytest.raises(ConstantFunctionError):
            transform(alpha, small_bspline, "center-reduce")

    def test_affine_invariance(self, alpha, small_bspline):
        # center_reduce(a*g + b) == sign(a) * center_reduce(g)
        base, _, _ = transform(alpha, small_bspline, "center-reduce")
        ones = small_bspline.constant_coefficients()
        for a, b in ((3.7, -2.0), (-0.25, 11.0)):
            out, _, _ = transform(a * alpha + b * ones, small_bspline, "center-reduce")
            np.testing.assert_allclose(out, np.sign(a) * base, atol=1e-10)

    def test_mean_via_inner_product_matches_quadrature(self, alpha, small_bspline):
        mu = stats(alpha, small_bspline)[1][0]
        a, b = small_bspline.domain
        ref = quadrature_integral(
            lambda xs: small_bspline.evaluate(xs) @ alpha[0], small_bspline.knots.edges
        ) / (b - a)
        assert mu == pytest.approx(ref, rel=1e-10)

    def test_fourier_centering(self, rng):
        fb = basis.FourierBasis(0.0, 2.0, 7)
        x = np.linspace(0, 2, 50)
        f = fdata.SampledFunction(x, 3.0 + np.sin(np.pi * x))
        alpha, _ = represent.fit_dataset([f], fb)
        out, _, _ = transform(alpha, fb, "center-reduce")
        assert abs(stats(out, fb)[1][0]) < 1e-10


class TestDerive:
    def test_polynomial_derivative_exact(self, rng):
        # in-span cubic polynomial on an order-6 basis: derivatives are exact
        b = basis.BSplineBasis.uniform(0.0, 1.0, 6, 6)
        x = np.linspace(0, 1, 80)
        coefs = rng.normal(size=4)
        poly = np.polynomial.Polynomial(coefs)
        alpha, _ = represent.fit_dataset([fdata.SampledFunction(x, poly(x))], b)
        grid = np.linspace(0, 1, 100)
        for s in (1, 2):
            d, on, _ = transform(alpha, b, f"deriv{s}")
            expected = poly.deriv(s)(grid)
            np.testing.assert_allclose(on.evaluate(grid) @ d[0], expected, atol=1e-9)

    def test_line_second_derivative_zero(self, small_bspline):
        x = np.linspace(0, 1, 40)
        f = fdata.SampledFunction(x, 2.5 * x - 1.0)
        alpha, _ = represent.fit_dataset([f], small_bspline)
        d2, on, _ = transform(alpha, small_bspline, "deriv2")
        assert np.max(np.abs(on.evaluate(np.linspace(0, 1, 50)) @ d2[0])) < 1e-9

    def test_composition(self, rng):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 5, 5)
        f, _ = random_spline_function(rng, b, noise=0.01)
        alpha, _ = represent.fit_dataset([f], b)
        first, on, _ = transform(alpha, b, "deriv1")
        two_steps, two_on, _ = transform(first, on, "deriv1")
        one_step, one_on, _ = transform(alpha, b, "deriv2")
        np.testing.assert_allclose(two_steps, one_step, atol=1e-10)
        assert two_on == one_on

    def test_order_zero_is_identity(self, alpha, small_bspline):
        gram = small_bspline.gram_factor()
        out = transforms.transform_dataset(alpha, small_bspline, gram, "none")
        assert out[0] is alpha and out[1] is small_bspline and out[2] is gram
        same, on, on_gram = transform(alpha, small_bspline, "deriv0")
        np.testing.assert_array_equal(same, alpha)
        assert on == small_bspline and on_gram is gram


class TestDistance:
    """The pipeline compares functions by the Euclidean distance of their
    transformed beta rows, which is the L2 distance while beta = U alpha."""

    def test_transform_outputs_stay_consistent(self, alpha, small_bspline):
        # every transform returns the Gram factor of the basis it returns,
        # so beta = U alpha holds for its output
        for kind in ("center-reduce", "deriv1", "deriv2"):
            _, on, gram = transform(alpha, small_bspline, kind)
            assert gram is on.gram_factor()
            np.testing.assert_allclose(gram.chol.T @ gram.chol, gram.phi, atol=1e-14)


class TestTransformDataset:
    """The matrix transforms treat every row on its own, and their row
    statistics equal quadrature."""

    @pytest.mark.parametrize("b", [
        basis.BSplineBasis.uniform(0.0, 1.0, 6, 4),
        basis.FourierBasis(0.0, 1.0, 9),
    ], ids=["bspline", "fourier"])
    def test_matrix_equals_per_row(self, rng, b):
        fns = mixed_grid_functions(rng)
        gram = b.gram_factor()
        alpha, _ = represent.fit_dataset(fns, b)
        for kind in ("none", "center-reduce", "deriv1", "deriv2"):
            out, out_basis, out_gram = transforms.transform_dataset(alpha, b, gram, kind)
            rows = [
                transforms.transform_dataset(alpha[i : i + 1], b, gram, kind)
                for i in range(len(fns))
            ]
            assert all(r[1] == out_basis and r[2] is out_gram for r in rows)
            np.testing.assert_allclose(
                out, np.vstack([r[0] for r in rows]),
                rtol=1e-12, atol=1e-12 * np.abs(out).max(),
            )

    def test_row_stats_equal_per_row(self, rng, small_bspline):
        fns = mixed_grid_functions(rng)
        alpha, _ = represent.fit_dataset(fns, small_bspline)
        volume, mu, sigma = stats(alpha, small_bspline)
        a, b = small_bspline.domain
        edges = small_bspline.knots.edges
        assert volume == b - a
        for i in range(len(fns)):
            g = lambda xs: small_bspline.evaluate(xs) @ alpha[i]  # noqa: E731
            ref_mu = quadrature_integral(g, edges) / volume
            ref_sigma = np.sqrt(quadrature_integral(lambda xs: (g(xs) - ref_mu) ** 2, edges))
            assert mu[i] == pytest.approx(ref_mu, rel=1e-8, abs=1e-12)
            assert sigma[i] == pytest.approx(ref_sigma / volume, rel=1e-8)

    def test_constant_row_named(self, rng, small_bspline):
        fns = mixed_grid_functions(rng, n_holed=0)
        alpha, _ = represent.fit_dataset(fns, small_bspline)
        alpha[2] = 4.0  # constant function: all-ones coordinates times 4
        with pytest.raises(ConstantFunctionError, match="row 2"):
            transforms.transform_dataset(
                alpha, small_bspline, small_bspline.gram_factor(), "center-reduce"
            )

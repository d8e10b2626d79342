import numpy as np
import pytest
from scipy.interpolate import BSpline

from fdareg import basis
from fdareg.errors import (
    DomainError,
    RankDeficiencyError,
    UnsupportedOrderError,
    ValidationError,
)
from oracles import gauss_legendre_gram


class TestKnotVector:
    def test_uniform_placement(self):
        kv = basis.KnotVector.uniform(0.0, 10.0, 4, 4)
        np.testing.assert_allclose(kv.interior, [2.0, 4.0, 6.0, 8.0])
        assert kv.augmented[0] == 0.0 and kv.augmented[-1] == 10.0
        assert np.sum(kv.augmented == 0.0) == 4  # clamped

    def test_validation(self):
        with pytest.raises(ValidationError):
            basis.KnotVector(0.0, 1.0, [0.5, 0.4], 4)
        with pytest.raises(ValidationError):
            basis.KnotVector(0.0, 1.0, [1.5], 4)
        with pytest.raises(ValidationError):
            basis.KnotVector(1.0, 0.0, [], 4)


class TestBSplineEvaluation:
    def test_partition_of_unity_random_points(self, rng):
        for order in (1, 2, 4, 6):
            b = basis.BSplineBasis.uniform(-2.0, 3.0, 7, order)
            x = rng.uniform(-2.0, 3.0, 1000)
            sums = b.evaluate(x).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_endpoints(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 5, 4)
        row_a = b.evaluate(0.0)
        row_b = b.evaluate(1.0)
        assert row_a[0] == pytest.approx(1.0)
        assert row_b[-1] == pytest.approx(1.0)
        assert np.all(row_a[1:] == 0) or row_a[1:].max() < 1e-15

    def test_hat_function_midpoint(self):
        # order 2 on knots {0, .25, .5, .75, 1}: at a midpoint the two
        # covering hats both evaluate to 0.5
        b = basis.BSplineBasis.uniform(0.0, 1.0, 3, 2)
        row = b.evaluate(0.125)
        nz = row[row > 0]
        np.testing.assert_allclose(sorted(nz), [0.5, 0.5])

    def test_local_support_exact_zero(self, rng):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 10, 4)
        t = b.knots.augmented
        x = rng.uniform(0.0, 1.0, 500)
        design = b.evaluate(x)
        for k in range(b.dimension):
            outside = (x < t[k]) | (x > t[k + b.order])
            assert np.all(design[outside, k] == 0.0)

    def test_matches_scipy_design_matrix(self, rng):
        for order in (2, 3, 4, 6):
            b = basis.BSplineBasis.uniform(-1.0, 2.0, 6, order)
            x = rng.uniform(-1.0, 2.0, 200)
            ours = b.evaluate(x)
            ref = BSpline.design_matrix(x, b.knots.augmented, order - 1).toarray()
            np.testing.assert_allclose(ours, ref, atol=1e-13)

    def test_domain_error(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 3, 4)
        with pytest.raises(DomainError):
            b.evaluate(1.0001)
        with pytest.raises(DomainError):
            b.evaluate(np.array([0.5, -0.2]))

    def test_scalar_and_array_shapes(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 3, 4)
        assert b.evaluate(0.3).shape == (b.dimension,)
        assert b.evaluate(np.linspace(0, 1, 7)).shape == (7, b.dimension)


class TestGram:
    def test_order1_gram_is_h_identity(self):
        # piecewise-constant B-splines on uniform knots: phi = h * I
        b = basis.BSplineBasis.uniform(0.0, 1.0, 9, 1)
        g = b.gram_factor()
        np.testing.assert_allclose(g.phi, 0.1 * np.eye(10), atol=1e-15)

    def test_fourier_gram_identity(self):
        fb = basis.FourierBasis(0.0, 2.0, 9)
        g = fb.gram_factor()
        np.testing.assert_array_equal(g.phi, np.eye(9))

    def test_quadrature_already_exact(self):
        # doubling the node count changes nothing beyond rounding
        b = basis.BSplineBasis.uniform(0.0, 1.0, 8, 4)
        phi1 = b.gram_factor().phi
        phi2 = gauss_legendre_gram(b, 8)
        assert np.max(np.abs(phi1 - phi2)) < 1e-12

    def test_gram_vs_fine_quadrature(self):
        b = basis.BSplineBasis.uniform(0.0, 3.0, 6, 5)
        phi = b.gram_factor().phi
        fine = gauss_legendre_gram(b, 50)
        rel = np.max(np.abs(phi - fine)) / np.max(np.abs(phi))
        assert rel < 1e-10

    def test_cholesky_shape(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 4, 4)
        g = b.gram_factor()
        assert np.allclose(g.chol, np.triu(g.chol))
        np.testing.assert_allclose(g.chol.T @ g.chol, g.phi, atol=1e-14)

    def test_redundant_system_raises(self):
        # a numerically rank-deficient Gram matrix must be rejected
        phi = np.ones((3, 3))
        with pytest.raises(RankDeficiencyError):
            basis.GramFactor(phi)

    def test_asymmetric_rejected(self):
        phi = np.eye(3)
        phi[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            basis.GramFactor(phi)


class TestFourierEvaluation:
    def test_constant_term_normalization(self, rng):
        fb = basis.FourierBasis(0.0, 4.0, 7)
        x = rng.uniform(0.0, 4.0, 50)
        np.testing.assert_allclose(fb.evaluate(x)[:, 0], 0.5)  # 1/sqrt(4)

    def test_orthonormality_by_quadrature(self):
        fb = basis.FourierBasis(-1.0, 1.0, 7)
        x = np.linspace(-1.0, 1.0, 20001)
        design = fb.evaluate(x)
        w = np.full(x.size, x[1] - x[0])
        w[[0, -1]] /= 2
        gram = design.T @ (design * w[:, None])
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-6)


class TestDerivativeBasis:
    def test_constant_has_zero_derivative(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 6, 4)
        _, mapping = b.derivative_basis(1)
        np.testing.assert_allclose(mapping @ np.ones(b.dimension), 0.0, atol=1e-15)

    def test_linear_function_order2(self):
        # g(x) = x on an order-2 (hat) basis has derivative coefficients 1
        b = basis.BSplineBasis.uniform(0.0, 1.0, 4, 2)
        lower, mapping = b.derivative_basis(1)
        greville = b.knots.augmented[1 : b.dimension + 1]  # order-2 Greville points
        np.testing.assert_allclose(mapping @ greville, 1.0)
        assert lower.order == 1

    def test_second_derivative_order_and_knots(self):
        b = basis.BSplineBasis.uniform(850.0, 1050.0, 26, 6)
        lower, mapping = b.derivative_basis(2)
        assert lower.order == 4
        np.testing.assert_array_equal(lower.knots.interior, b.knots.interior)
        assert mapping.shape == (b.dimension - 2, b.dimension)

    def test_unsupported_order(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 3, 3)
        with pytest.raises(UnsupportedOrderError):
            b.derivative_basis(3)

    def test_fourier_derivative_rotation(self, rng):
        fb = basis.FourierBasis(0.0, 1.0, 9)
        same, mapping = fb.derivative_basis(1)
        assert same is fb
        coef = rng.normal(size=9)
        x = rng.uniform(0.0, 1.0, 64)
        h = 1e-6
        x = np.clip(x, h, 1 - h)
        g = lambda pts: fb.evaluate(pts) @ coef  # noqa: E731
        numeric = (g(x + h) - g(x - h)) / (2 * h)
        analytic = fb.evaluate(x) @ (mapping @ coef)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-5)

    def test_fourier_incomplete_pair_rejected(self):
        fb = basis.FourierBasis(0.0, 1.0, 8)
        with pytest.raises(UnsupportedOrderError):
            fb.derivative_basis(1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mixed_grid_functions,
    quadrature_integral,
    random_spline_function,
    synthetic_dataset,
)
from fdareg import basis, fdata, represent
from fdareg.errors import (
    BasisMismatchError,
    DegenerateLooError,
    DomainError,
    SelectionError,
    UnidentifiableCoefficientsError,
)


def naive_loo(f, b):
    """Oracle: m refits, each omitting one point (plain lstsq, no QR path)."""
    design = b.evaluate(f.x)
    m = len(f)
    total = 0.0
    for i in range(m):
        keep = np.arange(m) != i
        coef, *_ = np.linalg.lstsq(design[keep], f.y[keep], rcond=None)
        total += (f.y[i] - design[i] @ coef) ** 2
    return total / m


class TestFit:
    def test_in_span_function_recovered(self, rng, small_bspline):
        f, alpha = random_spline_function(rng, small_bspline)
        r = represent.fit(f, small_bspline)
        np.testing.assert_allclose(r.alpha, alpha, atol=1e-10)
        assert r.sse <= 1e-18 * float(f.y @ f.y)
        np.testing.assert_allclose(r(f.x), f.y, atol=1e-10)

    def test_constant_samples_give_constant_coefficients(self, small_bspline):
        x = np.linspace(0, 1, 25)
        f = fdata.SampledFunction(x, np.full(25, 3.25))
        r = represent.fit(f, small_bspline)
        np.testing.assert_allclose(r.alpha, 3.25, atol=1e-12)

    def test_beta_consistency(self, rng, small_bspline):
        f, _ = random_spline_function(rng, small_bspline, noise=0.1)
        r = represent.fit(f, small_bspline)
        np.testing.assert_allclose(
            r.beta, r.gram.chol @ r.alpha, atol=1e-12 * np.abs(r.beta).max()
        )

    def test_residual_orthogonality(self, rng, small_bspline):
        f, _ = random_spline_function(rng, small_bspline, noise=0.5)
        r = represent.fit(f, small_bspline)
        design = small_bspline.evaluate(f.x)
        resid = f.y - design @ r.alpha
        assert np.max(np.abs(design.T @ resid)) < 1e-9 * np.linalg.norm(f.y)

    def test_uncovered_support_names_indices(self):
        # no samples beyond x = 0.3: trailing B-splines are unidentifiable
        b = basis.BSplineBasis.uniform(0.0, 1.0, 8, 4)
        x = np.linspace(0.0, 0.3, 40)
        f = fdata.SampledFunction(x, np.sin(x))
        with pytest.raises(UnidentifiableCoefficientsError) as exc_info:
            represent.fit(f, b)
        assert b.dimension - 1 in exc_info.value.indices

    def test_too_few_points(self, small_bspline):
        f = fdata.SampledFunction([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UnidentifiableCoefficientsError):
            represent.fit(f, small_bspline)


class TestHatDiagonal:
    def test_range_and_trace(self, rng):
        for _ in range(5):
            b = basis.BSplineBasis.uniform(0.0, 1.0, int(rng.integers(2, 6)), 4)
            f, _ = random_spline_function(rng, b, noise=0.3)
            hat = represent.hat_diagonal(f, b)
            assert np.all(hat >= -1e-10) and np.all(hat <= 1 + 1e-10)
            assert np.sum(hat) == pytest.approx(b.dimension, abs=1e-8)


class TestLooScore:
    def test_matches_naive_refits(self, rng):
        # the module's central oracle: 50 randomized small instances
        # (instances whose random design is unidentifiable are redrawn)
        done = 0
        while done < 50:
            order = int(rng.integers(2, 5))
            q = int(rng.integers(order + 1, 9))
            b = basis.BSplineBasis.uniform(0.0, 1.0, q - order, order)
            m = int(rng.integers(q + 3, 31))
            f, _ = random_spline_function(rng, b, noise=0.3, m=m)
            try:
                if represent.hat_diagonal(f, b).max() > 0.99:
                    continue  # near-interpolating draw: both paths lose precision
                fast = represent.loo_score(f, b)
            except (UnidentifiableCoefficientsError, DegenerateLooError):
                continue
            naive = naive_loo(f, b)
            assert fast == pytest.approx(naive, rel=1e-10)
            done += 1

    def test_square_design_degenerate(self):
        b = basis.BSplineBasis.uniform(0.0, 1.0, 2, 3)  # q = 5
        x = np.linspace(0.0, 1.0, b.dimension)
        f = fdata.SampledFunction(x, np.sin(x))
        with pytest.raises(DegenerateLooError):
            represent.loo_score(f, b)

    def test_overfitting_increases_loo(self, rng):
        # truth lives on a small basis; pure-noise extra dimensions hurt LOO
        truth = basis.BSplineBasis.uniform(0.0, 1.0, 2, 4)
        x = np.linspace(0.0, 1.0, 120)
        alpha = rng.normal(size=truth.dimension)
        y = truth.evaluate(x) @ alpha + 0.05 * rng.normal(size=120)
        f = fdata.SampledFunction(x, y)
        small = represent.loo_score(f, truth)
        big = represent.loo_score(f, basis.BSplineBasis.uniform(0.0, 1.0, 30, 4))
        assert big > small


class TestDatasetPath:
    """The batched path against its one-function views and the naive oracle,
    on curves sharing one grid mixed with holed curves on grids of their own."""

    def test_loo_scores_match_per_curve_and_naive(self, rng):
        fns = mixed_grid_functions(rng)
        for q in (6, 10, 14):
            b = basis.BSplineBasis.uniform(0.0, 1.0, q - 4, 4)
            batched = represent.loo_scores(fns, b)
            per_curve = [represent.loo_score(f, b) for f in fns]
            np.testing.assert_allclose(batched, per_curve, rtol=1e-10, atol=0)
            np.testing.assert_allclose(
                batched, [naive_loo(f, b) for f in fns], rtol=1e-10, atol=0
            )

    def test_fit_dataset_matches_per_curve_fit(self, rng):
        fns = mixed_grid_functions(rng)
        b = basis.BSplineBasis.uniform(0.0, 1.0, 6, 4)
        alpha, sse = represent.fit_dataset(fns, b)
        assert alpha.shape == (len(fns), b.dimension)
        for i, f in enumerate(fns):
            r = represent.fit(f, b)
            np.testing.assert_allclose(alpha[i], r.alpha, rtol=1e-12, atol=1e-12)
            assert sse[i] == pytest.approx(r.sse, rel=1e-10)

    def test_one_qr_per_distinct_grid(self, rng, monkeypatch):
        fns = mixed_grid_functions(rng, n_shared=6, n_holed=3)
        calls = []
        solve = represent._qr_solve

        def counted(design, Y):
            calls.append(Y.shape[1])  # curves sharing this QR
            return solve(design, Y)

        monkeypatch.setattr(represent, "_qr_solve", counted)
        represent.loo_scores(fns, basis.BSplineBasis.uniform(0.0, 1.0, 4, 4))
        assert sorted(calls) == [1, 1, 1, 6]

    def test_uncovered_support_in_one_group_skips_candidate(self, rng):
        # a group whose grid has a gap leaves some fine B-splines without
        # samples: that candidate is skipped, the coarse one still scored
        gap = np.concatenate([np.linspace(0.0, 0.45, 30), np.linspace(0.6, 1.0, 30)])
        fns = mixed_grid_functions(rng, n_holed=0, m=60) + [
            fdata.SampledFunction(gap, np.sin(3 * gap) + 0.01 * rng.normal(size=60))
            for _ in range(2)
        ]
        sel = represent.select_basis_size(
            fns, (0.0, 1.0), "bspline", 4, candidates=[8, 40]
        )
        assert sel.skipped[40].startswith("UnidentifiableCoefficientsError")
        assert sel.dimension == 8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_shared=st.integers(0, 5),
        n_holed=st.integers(0, 4),
        q=st.integers(5, 12),
    )
    def test_batched_loo_equals_per_curve_property(self, seed, n_shared, n_holed, q):
        rng = np.random.default_rng(seed)
        fns = mixed_grid_functions(rng, n_shared=n_shared, n_holed=n_holed)
        b = basis.BSplineBasis.uniform(0.0, 1.0, q - 4, 4)
        batched = represent.loo_scores(fns, b)
        per_curve = [represent.loo_score(f, b) for f in fns]
        np.testing.assert_allclose(batched, per_curve, rtol=1e-10, atol=0)


MIXED_GRID_BASES = (
    basis.BSplineBasis.uniform(0.0, 1.0, 6, 4),
    basis.BSplineBasis.uniform(0.0, 1.0, 6, 5),
    basis.FourierBasis(0.0, 1.0, 9),
)


class TestUnionEvaluation:
    """One basis evaluation per dataset, on the union of the abscissas; each
    grid's design rows are sliced from it."""

    @pytest.mark.parametrize("b", MIXED_GRID_BASES, ids=repr)
    def test_sliced_design_equals_per_grid_evaluation(self, rng, monkeypatch, b):
        fns = mixed_grid_functions(rng)
        monkeypatch.setattr(represent, "_qr_solve", lambda design, Y: design)
        groups = list(represent._group_fits(fns, b))
        assert len(groups) == 5  # the shared grid and four holed grids
        for idx, design in groups:
            x = fns[idx[0]].x
            assert all(np.array_equal(fns[i].x, x) for i in idx)
            assert np.array_equal(design, b.evaluate(x))

    @pytest.mark.parametrize("b", MIXED_GRID_BASES, ids=repr)
    def test_one_evaluation_per_call(self, rng, monkeypatch, b):
        fns = mixed_grid_functions(rng)
        points = []
        evaluate = type(b).evaluate

        def counted(self, x):
            points.append(np.size(x))
            return evaluate(self, x)

        monkeypatch.setattr(type(b), "evaluate", counted)
        represent.loo_scores(fns, b)
        union = np.unique(np.concatenate([f.x for f in fns]))
        assert points == [union.size]
        represent.fit_dataset(fns, b)
        assert points == [union.size] * 2

    def test_empty_function_list(self, small_bspline):
        alpha, sse = represent.fit_dataset([], small_bspline)
        assert alpha.shape == (0, small_bspline.dimension) and sse.shape == (0,)
        assert represent.loo_scores([], small_bspline).shape == (0,)

    def test_out_of_domain_abscissa_raises(self, rng, small_bspline):
        x = np.linspace(0.0, 1.25, 40)
        fns = mixed_grid_functions(rng) + [fdata.SampledFunction(x, np.sin(x))]
        with pytest.raises(DomainError, match="outside"):
            represent.fit_dataset(fns, small_bspline)
        with pytest.raises(DomainError, match="outside"):
            represent.loo_scores(fns, small_bspline)


class TestSelectBasisSize:
    def test_single_candidate(self, rng):
        ds = synthetic_dataset(rng, n=5, m=25)
        sel = represent.select_basis_size(
            ds.functions, ds.domain, "bspline", 4, candidates=[10]
        )
        assert sel.dimension == 10

    def test_recovers_truth_scale(self, rng):
        # data generated on q=8 splines: selection should not pick the
        # largest candidate (overfit) nor the smallest (underfit)
        truth = basis.BSplineBasis.uniform(0.0, 1.0, 4, 4)
        fns = []
        for i in range(6):
            f, _ = random_spline_function(rng, truth, noise=0.05, m=60)
            fns.append(fdata.SampledFunction(f.x, f.y, id=i))
        sel = represent.select_basis_size(
            fns, (0.0, 1.0), "bspline", 4, candidates=[6, 8, 12, 20, 40]
        )
        assert sel.dimension in (6, 8, 12)

    def test_infeasible_candidates_skipped_and_reported(self, rng):
        ds = synthetic_dataset(rng, n=4, m=20)
        sel = represent.select_basis_size(
            ds.functions, ds.domain, "bspline", 4, candidates=[8, 19, 20, 64]
        )
        assert 64 in sel.skipped  # more coefficients than samples
        assert 20 in sel.skipped  # square design: degenerate LOO
        assert sel.dimension in (8, 19)

    def test_dimension_below_order_skipped(self, rng):
        ds = synthetic_dataset(rng, n=4, m=20)
        sel = represent.select_basis_size(
            ds.functions, ds.domain, "bspline", 4, candidates=[3, 8]
        )
        assert sel.skipped[3].startswith("ValidationError")
        assert sel.dimension == 8

    def test_unexpected_error_propagates(self, rng, monkeypatch):
        # only toolkit errors mark a candidate infeasible; anything else is
        # a bug and must not be reported as a skipped candidate
        def broken(functions, b):
            raise RuntimeError("bug in the LOO score")

        monkeypatch.setattr(represent, "loo_scores", broken)
        ds = synthetic_dataset(rng, n=4, m=20)
        with pytest.raises(RuntimeError, match="bug in the LOO score"):
            represent.select_basis_size(
                ds.functions, ds.domain, "bspline", 4, candidates=[8]
            )

    def test_all_infeasible_raises(self, rng):
        ds = synthetic_dataset(rng, n=3, m=10)
        with pytest.raises(SelectionError):
            represent.select_basis_size(
                ds.functions, ds.domain, "bspline", 4, candidates=[50, 60]
            )

    def test_default_grid_spans_paper_sizes(self):
        # interior-knot sweep {4, 6, ...} must bracket dimensions ~20..64
        cands = represent._default_candidates("bspline", 4, 100)
        assert min(cands) == 8 and max(cands) == 64
        cands6 = represent._default_candidates("bspline", 6, 90)
        assert max(cands6) <= 90 - 6 + 6  # never exceeds sample count


class TestBetaGeometry:
    def _pair(self, rng, b):
        f1, _ = random_spline_function(rng, b, noise=0.05)
        f2, _ = random_spline_function(rng, b, noise=0.05)
        return represent.fit(f1, b), represent.fit(f2, b)

    def test_dist_self_zero(self, rng, small_bspline):
        r, _ = self._pair(rng, small_bspline)
        assert represent.dist(r, r) == 0.0

    def test_inner_matches_quadrature(self, rng):
        # 10^4-point composite (Simpson) quadrature oracle, 50 random pairs
        for trial in range(50):
            order = int(rng.integers(2, 6))
            b = basis.BSplineBasis.uniform(0.0, 2.0, int(rng.integers(3, 9)), order)
            r1, r2 = self._pair(rng, b)
            edges = b.knots.edges
            g1 = lambda xs: b.evaluate(xs) @ r1.alpha  # noqa: E731
            g2 = lambda xs: b.evaluate(xs) @ r2.alpha  # noqa: E731
            ref_inner = quadrature_integral(lambda xs: g1(xs) * g2(xs), edges)
            ref_dist = np.sqrt(
                quadrature_integral(lambda xs: (g1(xs) - g2(xs)) ** 2, edges)
            )
            assert represent.inner(r1, r2) == pytest.approx(ref_inner, rel=1e-8)
            assert represent.dist(r1, r2) == pytest.approx(ref_dist, rel=1e-8)

    def test_fourier_beta_equals_alpha(self, rng):
        fb = basis.FourierBasis(0.0, 1.0, 7)
        x = np.linspace(0, 1, 40)
        f = fdata.SampledFunction(x, np.sin(2 * np.pi * x) + 1.0)
        r = represent.fit(f, fb)
        np.testing.assert_array_equal(r.beta, r.alpha)

    def test_linearity_of_beta(self, rng, small_bspline):
        r1, r2 = self._pair(rng, small_bspline)
        lam, mu = 2.5, -1.25
        combo_alpha = lam * r1.alpha + mu * r2.alpha
        combo_beta = small_bspline.gram_factor().chol @ combo_alpha
        np.testing.assert_allclose(combo_beta, lam * r1.beta + mu * r2.beta, atol=1e-12)

    def test_basis_mismatch(self, rng, small_bspline):
        other = basis.BSplineBasis.uniform(0.0, 1.0, 6, 4)
        r1, _ = self._pair(rng, small_bspline)
        f, _ = random_spline_function(rng, other)
        r2 = represent.fit(f, other)
        with pytest.raises(BasisMismatchError):
            represent.inner(r1, r2)
        with pytest.raises(BasisMismatchError):
            represent.dist(r1, r2)

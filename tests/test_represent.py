import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    hat_diagonal,
    mixed_grid_functions,
    random_spline_function,
    synthetic_dataset,
)
from fdareg import basis, fdata, represent
from fdareg.errors import (
    DegenerateLooError,
    DomainError,
    SelectionError,
    UnidentifiableCoefficientsError,
)
from oracles import full_select_basis_size, naive_loo, quadrature_integral, reference_qr_solve


class TestFit:
    def test_in_span_function_recovered(self, rng, small_bspline):
        f, alpha = random_spline_function(rng, small_bspline)
        fitted = represent.fit_dataset(fdata.Grids([f]), small_bspline)
        np.testing.assert_allclose(fitted[0], alpha, atol=1e-10)
        np.testing.assert_allclose(small_bspline.evaluate(f.x) @ fitted[0], f.y, atol=1e-10)

    def test_constant_samples_give_constant_coefficients(self, small_bspline):
        x = np.linspace(0, 1, 25)
        f = fdata.SampledFunction(x, np.full(25, 3.25))
        alpha = represent.fit_dataset(fdata.Grids([f]), small_bspline)
        np.testing.assert_allclose(alpha, 3.25, atol=1e-12)

    def test_beta_consistency(self, rng, small_bspline):
        # the scaled coordinates beta = alpha U^T of fit_dataset rows: row i
        # is U alpha_i, and dot products of rows are the Gram inner products
        fns = [random_spline_function(rng, small_bspline, noise=0.1)[0] for _ in range(4)]
        alpha = represent.fit_dataset(fdata.Grids(fns), small_bspline)
        chol = small_bspline.gram_factor()
        beta = alpha @ chol.T
        for a, b in zip(alpha, beta):
            np.testing.assert_allclose(b, chol @ a, atol=1e-12 * np.abs(beta).max())
        np.testing.assert_allclose(
            beta @ beta.T, alpha @ small_bspline._gram_matrix() @ alpha.T,
            atol=1e-12 * np.abs(beta).max() ** 2,
        )

    def test_residual_orthogonality(self, rng, small_bspline):
        f, _ = random_spline_function(rng, small_bspline, noise=0.5)
        alpha = represent.fit_dataset(fdata.Grids([f]), small_bspline)
        design = small_bspline.evaluate(f.x)
        resid = f.y - design @ alpha[0]
        assert np.max(np.abs(design.T @ resid)) < 1e-9 * np.linalg.norm(f.y)

    def test_uncovered_support_names_indices(self):
        # no samples beyond x = 0.3: trailing B-splines are unidentifiable
        b = basis.BSplineBasis.uniform(0.0, 1.0, 8, 4)
        x = np.linspace(0.0, 0.3, 40)
        f = fdata.SampledFunction(x, np.sin(x))
        with pytest.raises(UnidentifiableCoefficientsError) as exc_info:
            represent.fit_dataset(fdata.Grids([f]), b)
        named = json.loads(str(exc_info.value).rpartition("indices: ")[2])
        assert b.dimension - 1 in named

    def test_too_few_points(self, small_bspline):
        f = fdata.SampledFunction([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UnidentifiableCoefficientsError):
            represent.fit_dataset(fdata.Grids([f]), small_bspline)


class TestHatDiagonal:
    def test_range_and_trace(self, rng):
        for _ in range(5):
            b = basis.BSplineBasis.uniform(0.0, 1.0, int(rng.integers(2, 6)), 4)
            f, _ = random_spline_function(rng, b, noise=0.3)
            hat = hat_diagonal(f, b)
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
                if hat_diagonal(f, b).max() > 0.99:
                    continue  # near-interpolating draw: both paths lose precision
                [fast] = represent.loo_scores(fdata.Grids([f]), b)
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
            represent.loo_scores(fdata.Grids([f]), b)

    def test_overfitting_increases_loo(self, rng):
        # truth lives on a small basis; pure-noise extra dimensions hurt LOO
        truth = basis.BSplineBasis.uniform(0.0, 1.0, 2, 4)
        x = np.linspace(0.0, 1.0, 120)
        alpha = rng.normal(size=truth.dimension)
        y = truth.evaluate(x) @ alpha + 0.05 * rng.normal(size=120)
        f = fdata.SampledFunction(x, y)
        [small] = represent.loo_scores(fdata.Grids([f]), truth)
        [big] = represent.loo_scores(fdata.Grids([f]), basis.BSplineBasis.uniform(0.0, 1.0, 30, 4))
        assert big > small


class TestDatasetPath:
    """The batched path against its one-row slices and the naive oracle, on
    curves sharing one grid mixed with holed curves on grids of their own."""

    def test_loo_scores_match_per_curve_and_naive(self, rng):
        fns = mixed_grid_functions(rng)
        for q in (6, 10, 14):
            b = basis.BSplineBasis.uniform(0.0, 1.0, q - 4, 4)
            batched = represent.loo_scores(fdata.Grids(fns), b)
            per_curve = [represent.loo_scores(fdata.Grids([f]), b)[0] for f in fns]
            np.testing.assert_allclose(batched, per_curve, rtol=1e-10, atol=0)
            np.testing.assert_allclose(
                batched, [naive_loo(f, b) for f in fns], rtol=1e-10, atol=0
            )

    def test_fit_dataset_matches_per_curve_fit(self, rng):
        fns = mixed_grid_functions(rng)
        b = basis.BSplineBasis.uniform(0.0, 1.0, 6, 4)
        alpha = represent.fit_dataset(fdata.Grids(fns), b)
        assert alpha.shape == (len(fns), b.dimension)
        for i, f in enumerate(fns):
            row = represent.fit_dataset(fdata.Grids([f]), b)
            np.testing.assert_allclose(alpha[i], row[0], rtol=1e-12, atol=1e-12)

    def test_one_qr_per_distinct_grid(self, rng, monkeypatch):
        fns = mixed_grid_functions(rng, n_shared=6, n_holed=3)
        calls = []
        solve = represent._qr_solve

        def counted(design, Y):
            calls.append(Y.shape[1])  # curves sharing this QR
            return solve(design, Y)

        monkeypatch.setattr(represent, "_qr_solve", counted)
        represent.loo_scores(fdata.Grids(fns), basis.BSplineBasis.uniform(0.0, 1.0, 4, 4))
        assert sorted(calls) == [1, 1, 1, 6]

    def test_uncovered_support_in_one_group_skips_candidate(self, rng):
        # a group whose grid has a gap leaves some fine B-splines without
        # samples: that candidate is skipped, the coarse one still scored.
        # The gapped grid comes first, so every candidate reaches it before
        # it could be pruned.
        gap = np.concatenate([np.linspace(0.0, 0.45, 30), np.linspace(0.6, 1.0, 30)])
        fns = [
            fdata.SampledFunction(gap, np.sin(3 * gap) + 0.01 * rng.normal(size=60))
            for _ in range(2)
        ] + mixed_grid_functions(rng, n_holed=0, m=60)
        sel = represent.select_basis_size(
            fdata.Grids(fns), (0.0, 1.0), "bspline", 4, candidates=[8, 40]
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
        batched = represent.loo_scores(fdata.Grids(fns), b)
        per_curve = [represent.loo_scores(fdata.Grids([f]), b)[0] for f in fns]
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
        groups = list(represent._group_fits(fdata.Grids(fns), b))
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
        represent.loo_scores(fdata.Grids(fns), b)
        union = np.unique(np.concatenate([f.x for f in fns]))
        assert points == [union.size]
        represent.fit_dataset(fdata.Grids(fns), b)
        assert points == [union.size] * 2

    def test_empty_function_list(self, small_bspline):
        alpha = represent.fit_dataset(fdata.Grids([]), small_bspline)
        assert alpha.shape == (0, small_bspline.dimension)
        assert represent.loo_scores(fdata.Grids([]), small_bspline).shape == (0,)

    def test_out_of_domain_abscissa_raises(self, rng, small_bspline):
        x = np.linspace(0.0, 1.25, 40)
        fns = mixed_grid_functions(rng) + [fdata.SampledFunction(x, np.sin(x))]
        with pytest.raises(DomainError, match="outside"):
            represent.fit_dataset(fdata.Grids(fns), small_bspline)
        with pytest.raises(DomainError, match="outside"):
            represent.loo_scores(fdata.Grids(fns), small_bspline)


def _basis(kind, q):
    if kind == "fourier":
        return basis.FourierBasis(0.0, 1.0, q)
    order = int(kind[-1])
    return basis.BSplineBasis.uniform(0.0, 1.0, q - order, order)


class TestDirectLapack:
    """``_qr_solve`` calls geqp3, orgqr and trtrs directly; it equals the
    scipy wrappers it replaced (``oracles.reference_qr_solve``) bit for bit,
    errors and their messages included."""

    @staticmethod
    def _assert_same(design, Y):
        """Compare one grid's solve with the reference; return which branch
        both took."""
        try:
            expected = reference_qr_solve(design, Y)
        except UnidentifiableCoefficientsError as exc:
            with pytest.raises(UnidentifiableCoefficientsError) as got:
                represent._qr_solve(design, Y)
            assert str(got.value) == str(exc)
            return "error"
        for fast, slow in zip(represent._qr_solve(design, Y), expected):
            assert np.array_equal(fast, slow)
        return "solved"

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["bspline3", "bspline4", "bspline5", "fourier"]),
        q=st.integers(5, 30),
        m=st.integers(12, 80),
        n_shared=st.integers(0, 4),
        n_holed=st.integers(1, 4),
        gap=st.booleans(),
    )
    def test_equals_scipy_wrappers_property(self, seed, kind, q, m, n_shared, n_holed, gap):
        rng = np.random.default_rng(seed)
        grids = fdata.Grids(mixed_grid_functions(rng, n_shared, n_holed, m, gap))
        design = _basis(kind, q).evaluate(grids.union)
        for _, rows, Y in grids.blocks:
            self._assert_same(design[rows], Y)

    @pytest.mark.parametrize("kind", ["bspline4", "fourier"])
    def test_fewer_rows_than_coefficients(self, kind):
        x = np.linspace(0.0, 1.0, 7)
        Y = np.column_stack([np.sin(x), np.cos(x)])
        assert self._assert_same(_basis(kind, 11).evaluate(x), Y) == "error"

    def test_uncovered_support(self, rng):
        x = np.linspace(0.0, 0.3, 40)
        Y = np.sin(x)[:, None] + 0.01 * rng.normal(size=(40, 3))
        assert self._assert_same(_basis("bspline4", 12).evaluate(x), Y) == "error"

    @pytest.mark.parametrize("kind", ["bspline3", "bspline5", "fourier"])
    def test_holed_dataset_solved(self, rng, kind):
        grids = fdata.Grids(mixed_grid_functions(rng, 3, 4, m=60))
        design = _basis(kind, 11).evaluate(grids.union)
        for _, rows, Y in grids.blocks:
            assert self._assert_same(design[rows], Y) == "solved"


class TestSelectBasisSize:
    def test_grouped_once_for_all_candidates(self, rng, monkeypatch):
        # every candidate reuses the grouping passed in, builds no other,
        # and a completed one scores as a fresh grouping would; the others
        # are listed as pruned
        fns = mixed_grid_functions(rng)
        candidates = [6, 8, 10, 12]
        fresh = {
            q: float(np.sum(represent.loo_scores(fdata.Grids(fns), _basis("bspline4", q))))
            for q in candidates
        }
        grids = fdata.Grids(fns)

        def no_grouping(self, functions):
            raise AssertionError("a second grouping was built")

        monkeypatch.setattr(fdata.Grids, "__init__", no_grouping)
        sel = represent.select_basis_size(grids, (0.0, 1.0), "bspline", 4, candidates)
        assert sel.scores == {q: fresh[q] for q in sel.scores}
        assert sel.pruned == [q for q in candidates if q not in sel.scores]
        assert sel.pruned and not sel.skipped

    def test_empty_function_list_raises(self):
        with pytest.raises(SelectionError, match="no functions"):
            represent.select_basis_size(fdata.Grids([]), (0.0, 1.0))

    def test_single_candidate(self, rng):
        ds = synthetic_dataset(rng, n=5, m=25)
        sel = represent.select_basis_size(
            fdata.Grids(ds.functions), ds.domain, "bspline", 4, candidates=[10]
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
            fdata.Grids(fns), (0.0, 1.0), "bspline", 4, candidates=[6, 8, 12, 20, 40]
        )
        assert sel.dimension in (6, 8, 12)

    def test_infeasible_candidates_skipped_and_reported(self, rng):
        ds = synthetic_dataset(rng, n=4, m=20)
        sel = represent.select_basis_size(
            fdata.Grids(ds.functions), ds.domain, "bspline", 4, candidates=[8, 19, 20, 64]
        )
        assert 64 in sel.skipped  # more coefficients than samples
        assert 20 in sel.skipped  # square design: degenerate LOO
        assert sel.dimension in (8, 19)

    def test_dimension_below_order_skipped(self, rng):
        ds = synthetic_dataset(rng, n=4, m=20)
        sel = represent.select_basis_size(
            fdata.Grids(ds.functions), ds.domain, "bspline", 4, candidates=[3, 8]
        )
        assert sel.skipped[3].startswith("ValidationError")
        assert sel.dimension == 8

    def test_unexpected_error_propagates(self, rng, monkeypatch):
        # only toolkit errors mark a candidate infeasible; anything else is
        # a bug and must not be reported as a skipped candidate
        def broken(design, Y):
            raise RuntimeError("bug in the LOO score")

        monkeypatch.setattr(represent, "_qr_solve", broken)
        ds = synthetic_dataset(rng, n=4, m=20)
        with pytest.raises(RuntimeError, match="bug in the LOO score"):
            represent.select_basis_size(
                fdata.Grids(ds.functions), ds.domain, "bspline", 4, candidates=[8]
            )

    def test_all_infeasible_raises(self, rng):
        ds = synthetic_dataset(rng, n=3, m=10)
        with pytest.raises(SelectionError):
            represent.select_basis_size(
                fdata.Grids(ds.functions), ds.domain, "bspline", 4, candidates=[50, 60]
            )

    @pytest.mark.parametrize("kind, order, m, rule", [
        ("bspline", 4, 8, "order-4 B-splines need at least 9"),
        ("bspline", 6, 10, "order-6 B-splines need at least 11"),
        ("fourier", 4, 5, "a Fourier basis needs at least 6"),
    ], ids=["bspline4", "bspline6", "fourier"])
    def test_curves_too_short_for_the_default_grid(self, kind, order, m, rule):
        # the shortest curve is named, with its sample count and the rule
        fns = [fdata.SampledFunction(np.linspace(0.0, 1.0, size), np.ones(size), id=i)
               for i, size in ((3, 40), (8, m), (9, m))]
        with pytest.raises(SelectionError, match=re.escape(
                f"function 8 has {m} samples, too few to select a basis size: {rule} "
                "in every curve")):
            represent.select_basis_size(fdata.Grids(fns), (0.0, 1.0), kind, order)
        # one more sample gives a candidate below the sample count, which
        # leave-one-out scores
        [q] = represent._default_candidates(kind, order, m + 1)
        # (midpoints: a periodic basis would see samples at both ends as one)
        fns = [fdata.SampledFunction(x, np.sin(5 * x) + 0.1 * np.cos(17 * x), id=i)
               for i, x in enumerate(((np.arange(size) + 0.5) / size for size in (m + 1, 40)))]
        sel = represent.select_basis_size(fdata.Grids(fns), (0.0, 1.0), kind, order)
        assert q < m + 1 and sel.dimension == q and not sel.skipped

    def test_default_grid_spans_paper_sizes(self):
        # interior-knot sweep {4, 6, ...} must bracket dimensions ~20..64
        cands = represent._default_candidates("bspline", 4, 100)
        assert min(cands) == 8 and max(cands) == 64
        cands6 = represent._default_candidates("bspline", 6, 90)
        assert max(cands6) == 66 < 90  # the cap of 60 interior knots binds
        for kind in ("bspline", "fourier"):
            for m in range(5, 80):
                assert all(q < m for q in represent._default_candidates(kind, 4, m))


def _assert_same_selection(grids, kind, order, candidates):
    """The pruned selection against the full loop: the same winner, every
    completed size's total equal by ``float.hex``, completed, pruned and
    skipped sizes partitioning the candidates, a pruned size never one that
    could have won or tied, and the winner's coefficients those of a refit.
    Returns the selection, None when every size fails."""
    dimension, scores, skipped = full_select_basis_size(
        grids, (0.0, 1.0), kind, order, candidates)
    if dimension is None:
        with pytest.raises(SelectionError, match="no feasible candidate"):
            represent.select_basis_size(grids, (0.0, 1.0), kind, order, candidates)
        return None
    sel = represent.select_basis_size(grids, (0.0, 1.0), kind, order, candidates)
    assert sel.dimension == dimension
    assert {q: v.hex() for q, v in sel.scores.items()} == {
        q: scores[q].hex() for q in sel.scores}
    done = [*sel.scores, *sel.pruned, *sel.skipped]
    assert sorted(done) == sorted(candidates)
    assert list(sel.scores) == [q for q in candidates if q in sel.scores]
    assert sel.pruned == [q for q in candidates if q in sel.pruned]
    assert all(sel.skipped[q] == skipped[q] for q in sel.skipped)
    assert all(q in skipped or scores[q] > scores[dimension] for q in sel.pruned)
    alpha = represent.fit_dataset(grids, represent.make_basis(kind, (0.0, 1.0), dimension,
                                                                 order))
    assert sel.coefficients.tobytes() == alpha.tobytes()
    return sel


class TestPrunedSelection:
    """``select_basis_size`` stops a size once its partial total, the
    per-function scores summed with the unscored ones at 0, is strictly
    above the best complete total. The full loop of
    ``oracles.full_select_basis_size`` is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_shared=st.integers(0, 4),
        n_holed=st.integers(1, 6),
        m=st.integers(14, 40),
        gap=st.booleans(),
        kind=st.sampled_from(["bspline", "fourier"]),
        zero=st.booleans(),
        candidates=st.lists(st.integers(2, 44), min_size=1, max_size=8, unique=True),
    )
    def test_equals_the_full_loop_property(self, seed, n_shared, n_holed, m, gap, kind,
                                           zero, candidates):
        # mixed, holed and gapped grids; sizes below the order, degenerate
        # ones near the sample count and unidentifiable ones beyond it or
        # across the gap; all-zero curves make every feasible size tie at 0
        fns = mixed_grid_functions(np.random.default_rng(seed), n_shared=n_shared,
                                   n_holed=n_holed, m=m, gap=gap)
        if zero:
            fns = [fdata.SampledFunction(f.x, np.zeros_like(f.y), id=f.id) for f in fns]
        _assert_same_selection(fdata.Grids(fns), kind, 4, candidates)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), grid_sizes=st.lists(st.integers(1, 3), min_size=2, max_size=5),
           candidates=st.lists(st.integers(3, 9), min_size=1, max_size=6, unique=True))
    def test_equals_the_full_loop_on_drawn_scores_property(self, data, grid_sizes, candidates):
        # each (size, grid) draws its curves' scores, 0 or 1 each, so exact
        # ties abound and a later grid can reverse the order of the first;
        # one draw in ten is unidentifiable and one degenerate. Size 3 is
        # below the order. A curve's samples all hold its index, which the
        # fake least squares reads to return residuals of its drawn root.
        n = sum(grid_sizes)
        fns, grid_of = [], []
        for g, size in enumerate(grid_sizes):
            x = np.delete(np.linspace(0.0, 1.0, 12), g)
            for _ in range(size):
                fns.append(fdata.SampledFunction(x, np.full(x.size, float(len(fns)))))
                grid_of.append(g)
        outcome = st.tuples(st.integers(0, 9), st.lists(st.integers(0, 1), min_size=n,
                                                        max_size=n)).map(
            lambda draw: {0: "unidentifiable", 1: "degenerate"}.get(draw[0], draw[1]))
        drawn = {(q, g): data.draw(outcome) for q in candidates for g in range(len(grid_sizes))}

        def fake_qr_solve(design, Y):
            m, q = design.shape
            curves = Y[0].astype(int)
            result = drawn[q, grid_of[curves[0]]]
            if result == "unidentifiable":
                raise UnidentifiableCoefficientsError("drawn")
            alpha = np.zeros((q, curves.size))
            if result == "degenerate":
                return alpha, np.zeros((m, curves.size)), np.ones(m)
            return alpha, np.tile(np.array(result, dtype=float)[curves], (m, 1)), np.zeros(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(represent, "_qr_solve", fake_qr_solve)
            _assert_same_selection(fdata.Grids(fns), "bspline", 4, candidates)

    def test_a_tie_reached_from_behind_still_wins(self, monkeypatch):
        # size 8 scores 4 then 0 on its two grids, size 10 scores 0 then 4:
        # size 10 runs first and completes with 4; size 8's partial total 4
        # equals it, so size 8 is not stopped, ties and wins as the smaller
        roots = {(8, 0): 2.0, (8, 1): 0.0, (10, 0): 0.0, (10, 1): 2.0}

        def fake_qr_solve(design, Y):
            m, q = design.shape
            return np.zeros((q, 1)), np.full((m, 1), roots[q, int(Y[0, 0])]), np.zeros(m)

        fns = [fdata.SampledFunction(np.delete(np.linspace(0.0, 1.0, 12), g), np.full(11, g))
               for g in (0, 1)]
        monkeypatch.setattr(represent, "_qr_solve", fake_qr_solve)
        sel = represent.select_basis_size(fdata.Grids(fns), (0.0, 1.0), "bspline", 4, [8, 10])
        assert sel.dimension == 8
        assert sel.scores == {8: 4.0, 10: 4.0}
        assert sel.pruned == []

    def test_holed_curves_factor_fewer_grids(self, rng, monkeypatch):
        # a size that cannot win stops early, so fewer QRs run than in the
        # full loop; equal counts would mean nothing is pruned
        grids = fdata.Grids(mixed_grid_functions(rng, n_shared=4, n_holed=24))
        candidates = represent._default_candidates("bspline", 4, 36)
        real = represent._qr_solve
        calls = []

        def counted(design, Y):
            calls.append(design.shape[1])
            return real(design, Y)

        monkeypatch.setattr(represent, "_qr_solve", counted)
        full_select_basis_size(grids, (0.0, 1.0), "bspline", 4, candidates)
        full = len(calls)
        calls.clear()
        sel = represent.select_basis_size(grids, (0.0, 1.0), "bspline", 4, candidates)
        assert sel.pruned
        assert len(calls) < full
        monkeypatch.undo()
        _assert_same_selection(grids, "bspline", 4, candidates)


class TestBetaGeometry:
    """Canonical dot products of beta rows are L2 inner products."""

    def _pair(self, rng, b):
        f1, _ = random_spline_function(rng, b, noise=0.05)
        f2, _ = random_spline_function(rng, b, noise=0.05)
        alpha = represent.fit_dataset(fdata.Grids([f1, f2]), b)
        return alpha, alpha @ b.gram_factor().T

    def test_dist_self_zero(self, rng, small_bspline):
        # a curve listed twice shares one QR: identical beta rows
        f, _ = random_spline_function(rng, small_bspline, noise=0.05)
        alpha = represent.fit_dataset(fdata.Grids([f, f]), small_bspline)
        beta = alpha @ small_bspline.gram_factor().T
        assert np.linalg.norm(beta[0] - beta[1]) == 0.0

    def test_inner_matches_quadrature(self, rng):
        # 10^4-point composite (Simpson) quadrature oracle, 50 random pairs
        for trial in range(50):
            order = int(rng.integers(2, 6))
            b = basis.BSplineBasis.uniform(0.0, 2.0, int(rng.integers(3, 9)), order)
            alpha, beta = self._pair(rng, b)
            edges = b.edges
            g1 = lambda xs: b.evaluate(xs) @ alpha[0]  # noqa: E731
            g2 = lambda xs: b.evaluate(xs) @ alpha[1]  # noqa: E731
            ref_inner = quadrature_integral(lambda xs: g1(xs) * g2(xs), edges)
            ref_dist = np.sqrt(
                quadrature_integral(lambda xs: (g1(xs) - g2(xs)) ** 2, edges)
            )
            assert beta[0] @ beta[1] == pytest.approx(ref_inner, rel=1e-8)
            assert np.linalg.norm(beta[0] - beta[1]) == pytest.approx(ref_dist, rel=1e-8)

    def test_fourier_beta_equals_alpha(self, rng):
        fb = basis.FourierBasis(0.0, 1.0, 7)
        x = np.linspace(0, 1, 40)
        f = fdata.SampledFunction(x, np.sin(2 * np.pi * x) + 1.0)
        alpha = represent.fit_dataset(fdata.Grids([f]), fb)
        np.testing.assert_array_equal(alpha @ fb.gram_factor().T, alpha)

    def test_linearity_of_beta(self, rng, small_bspline):
        alpha, beta = self._pair(rng, small_bspline)
        lam, mu = 2.5, -1.25
        combo_alpha = lam * alpha[0] + mu * alpha[1]
        combo_beta = small_bspline.gram_factor() @ combo_alpha
        np.testing.assert_allclose(combo_beta, lam * beta[0] + mu * beta[1], atol=1e-12)

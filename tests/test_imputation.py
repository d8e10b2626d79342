import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdareg import imputation
from fdareg.errors import (
    ImputationError,
    IncomparableSampleError,
    ScalingError,
    ValidationError,
)
from conftest import knn_distances
from oracles import knn_fill_per_hole, reference_knn_distances, reference_knn_transform


def masked(values, mask):
    return np.asarray(values, dtype=float), np.asarray(mask, dtype=bool)


def mean_impute(values, mask):
    """Fill and fit the same data, as one fold's training rows are."""
    [(train, _)], _ = imputation.fill("mean", (0,), values, mask, values, mask, None, None)
    return train


def knn_transform(imp, values, mask, is_fit_data, ids=None):
    """``imp.transform`` on the distances the pipeline gives it: with
    ``is_fit_data`` (``values`` is the fitted matrix) the fitted rows' own,
    else the new rows' to the fitted rows. The rows' ids are their
    positions unless ``ids`` is given."""
    D = (imputation.pair_distances(values, mask) if is_fit_data else
         imputation.cross_distances(values, mask, imp.values_, imp.mask_))
    return imp.transform(values, mask, D, range(len(values)) if ids is None else ids)


def knn_impute(values, mask, k):
    """Impute a matrix whose own rows are the donors, as one fold's
    training rows are."""
    imp = imputation.KnnImputer((k,)).fit(values, mask)
    return knn_transform(imp, values, mask, True)[:, 0]


K_GRID = (1, 2, 4, 8, 16)


def holed_matrix(rng, n, p, missing):
    """Random values with a share ``missing`` of holes; the first two
    columns stay observed, so every pair of rows is comparable."""
    values = rng.normal(size=(n, p))
    mask = rng.uniform(size=values.shape) >= missing
    mask[:, :2] = True
    return values, mask


def assert_equals_per_hole_loop(imp, values, mask, is_fit_data):
    out = knn_transform(imp, values, mask, is_fit_data)
    assert out.shape == (values.shape[0], len(imp.ks), values.shape[1])
    for c, k in enumerate(imp.ks):
        ref = knn_fill_per_hole(imp, values, mask, k, is_fit_data)
        assert np.array_equal(out[:, c], ref), f"k={k}"


class TestMeanImpute:
    def test_no_missing_is_identity(self, rng):
        V = rng.normal(size=(6, 4))
        out = mean_impute(V, np.ones_like(V, dtype=bool))
        np.testing.assert_array_equal(out, V)

    def test_column_mean(self):
        V, M = masked(
            [[1.0, 9.0], [3.0, 9.0], [0.0, 9.0]],
            [[True, True], [True, True], [False, True]],
        )
        out = mean_impute(V, M)
        assert out[2, 0] == pytest.approx(2.0)  # mean of {1, 3}

    def test_observed_entries_untouched(self, rng):
        V = rng.normal(size=(10, 7))
        M = rng.uniform(size=V.shape) > 0.3
        M[:, 0] = True  # keep every column observed somewhere
        out = mean_impute(V, M)
        np.testing.assert_array_equal(out[M], V[M])

    def test_fully_missing_column(self):
        V, M = masked([[1.0, 0.0], [2.0, 0.0]], [[True, False], [True, False]])
        with pytest.raises(ImputationError):
            mean_impute(V, M)

    @pytest.mark.parametrize("unobserved, listed", [
        (2, "columns [1, 2] are"),
        (10, "columns [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] are"),
        (25, "columns [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] ... (25 in all) are"),
    ])
    def test_unobserved_columns_are_capped_at_ten_in_the_error(self, unobserved, listed):
        # on irregular curves nearly every column of the union is unobserved;
        # the message names the first 10 and the count, not all of them
        M = np.ones((3, 1 + unobserved), dtype=bool)
        M[:, 1:] = False
        with pytest.raises(ImputationError, match=re.escape(
                f"{listed} observed in no sample; their mean is undefined")):
            mean_impute(np.zeros(M.shape), M)

    def test_train_statistics_apply_to_new_rows(self):
        V, M = masked([[2.0, 4.0], [4.0, 8.0]], [[True, True], [True, True]])
        new_v, new_m = masked([[0.0, 5.0]], [[False, True]])
        [(_, out)], _ = imputation.fill("mean", (0,), V, M, new_v, new_m, None, None)
        assert out[0, 0] == pytest.approx(3.0)
        assert out[0, 1] == pytest.approx(5.0)


class TestKnnImpute:
    def test_identical_neighbor_copies_value(self):
        V, M = masked(
            [[1.0, 2.0, 0.0], [1.0, 2.0, 7.5]],
            [[True, True, False], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(7.5)

    def test_distance_zero_on_shared(self):
        d = imputation._distances(np.array([1.0, 2.0]), np.array([True, True]),
                                  *masked([[1.0, 2.0]], [[True, True]]))
        assert d[0] == 0.0

    def test_distance_normalized_by_overlap(self):
        # d = mean of squared differences over the shared observed indices
        donors_v, donors_m = masked(
            [[0.0, 0.0, 0.0, 0.0]], [[True, True, True, False]]
        )
        x = np.array([2.0, 2.0, 0.0, 1.0])
        m = np.array([True, True, False, True])
        d = imputation._distances(x, m, donors_v, donors_m)
        assert d[0] == pytest.approx((4.0 + 4.0) / 2)

    def test_nearest_by_shape_not_level(self):
        # sample 0 misses coordinate 2; donor 1 matches on shared coords
        V, M = masked(
            [
                [1.0, 2.0, 0.0],
                [1.1, 2.1, 30.0],
                [9.0, 9.0, -1.0],
            ],
            [[True, True, False], [True, True, True], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(30.0)

    def test_fewer_donors_than_k_uses_all_and_counts(self):
        V, M = masked(
            [[1.0, 0.0], [1.0, 5.0], [1.0, 0.0]],
            [[True, False], [True, True], [True, False]],
        )
        imp = imputation.KnnImputer((4,)).fit(V, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = knn_transform(imp, V, M, True)[:, 0]
        assert out[0, 1] == pytest.approx(5.0)
        assert out[2, 1] == pytest.approx(5.0)
        assert imp.short_fills_ == 2  # rows 0 and 2, one donor each

    def test_incomparable_sample(self):
        V, M = masked(
            [[1.0, 0.0], [0.0, 2.0]],
            [[True, False], [False, True]],
        )
        with pytest.raises(IncomparableSampleError):
            knn_impute(V, M, k=1)

    def test_ties_break_by_donor_index(self):
        # two donors equidistant: lower index donates
        V, M = masked(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 10.0],
                [-1.0, 0.0, 20.0],
            ],
            [[True, True, False], [True, True, True], [True, True, True]],
        )
        out = knn_impute(V, M, k=1)
        assert out[0, 2] == pytest.approx(10.0)

    def test_observed_entries_untouched(self, rng):
        V = rng.normal(size=(12, 6))
        M = rng.uniform(size=V.shape) > 0.2
        M[0] = True
        out = knn_impute(V, M, k=3)
        np.testing.assert_array_equal(out[M], V[M])


class TestKnnGrid:
    """One donor ordering per row fills every k of the grid, bit for bit as
    the per-hole, per-k loop of ``oracles.knn_fill_per_hole``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_data_equals_per_hole_loop(self, seed):
        rng = np.random.default_rng(seed)
        V, M = holed_matrix(rng, 60, 30, 0.3)
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        assert_equals_per_hole_loop(imp, V, M, is_fit_data=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_new_rows_equal_per_hole_loop(self, seed):
        rng = np.random.default_rng(seed)
        imp = imputation.KnnImputer(K_GRID).fit(*holed_matrix(rng, 60, 30, 0.3))
        assert_equals_per_hole_loop(imp, *holed_matrix(rng, 20, 30, 0.3), is_fit_data=False)

    def test_exact_ties_go_to_the_lower_donor_index(self, rng):
        # values on a coarse lattice tie often; rows 10, 20 and 30 are the
        # same donor on row 0's observed coordinates and differ in its holes
        V, M = holed_matrix(rng, 50, 12, 0.3)
        V = np.round(V, 0)
        M[[10, 20, 30]] = True
        V[[20, 30]] = V[10]
        V[20, ~M[0]] += 1.0
        V[30, ~M[0]] += 2.0
        V[0, M[0]] = V[10, M[0]]
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        assert_equals_per_hole_loop(imp, V, M, is_fit_data=True)
        assert_equals_per_hole_loop(imp, V[:5], M[:5], is_fit_data=False)
        out = knn_transform(imp, V, M, True)
        np.testing.assert_array_equal(out[0, 0, ~M[0]], V[10, ~M[0]])
        np.testing.assert_array_equal(
            out[0, 1, ~M[0]], (V[10, ~M[0]] + V[20, ~M[0]]) / 2
        )

    @pytest.mark.parametrize("is_fit_data", [True, False])
    def test_short_donor_list_equals_per_hole_loop(self, rng, is_fit_data):
        # coordinate 5 is observed by 4 donors only: fewer than max(k) = 16
        V, M = holed_matrix(rng, 40, 10, 0.2)
        M[:, 5] = False
        M[[3, 11, 17, 29], 5] = True
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        rows = slice(None) if is_fit_data else slice(0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_equals_per_hole_loop(imp, V[rows], M[rows], is_fit_data)
        # every pair of rows is comparable, so a hole's donors are the fitted
        # rows that observe its coordinate (a row never observes its own hole)
        donors = M.sum(axis=0)
        holes = ~M[rows]
        assert imp.short_fills_ == sum(int(np.sum(holes & (donors < k))) for k in K_GRID)
        # the rows with a hole at coordinate 5 have 4 donors: short for 8 and 16
        assert imp.short_fills_ >= 2 * int(holes[:, 5].sum()) > 0

    def test_short_donor_list_counts_each_row_hole_and_k(self):
        # coordinate 1 is observed by rows 0 and 1 only, so rows 2-5 each
        # have 2 donors for it: one short fill per row for k = 4 and k = 8
        V = np.arange(12.0).reshape(6, 2)
        M = np.ones_like(V, dtype=bool)
        M[2:, 1] = False
        imp = imputation.KnnImputer((1, 2, 4, 8)).fit(V, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = knn_transform(imp, V, M, True)
        assert imp.short_fills_ == 4 * 2
        # k = 2, 4 and 8 all fill from both donors; k = 1 from the nearer
        np.testing.assert_array_equal(out[2:, 1:, 1], np.full((4, 3), (1.0 + 3.0) / 2))
        np.testing.assert_array_equal(out[2:, 0, 1], np.full(4, 3.0))
        knn_transform(imp, V[:2], M[:2], False)  # the count is the last transform's
        assert imp.short_fills_ == 0

    def test_fill_counts_the_short_fills_of_both_matrices(self):
        V = np.arange(12.0).reshape(6, 2)
        M = np.ones_like(V, dtype=bool)
        M[2:, 1] = False
        # rows 2-5 are short for k = 4 and 8 as training rows and as new rows
        _, short = imputation.fill("knn", (1, 2, 4, 8), V, M, V[2:], M[2:],
                                   knn_distances(V, M, V[2:], M[2:]), (range(6), range(4)))
        assert short == 2 * 4 * 2
        assert imputation.fill("mean", (0,), V, M, V[2:], M[2:], None, None)[1] == 0
        assert imputation.fill("none", (0,), V, None, V[2:], None, None, None)[1] == 0

    @pytest.mark.parametrize("is_fit_data", [True, False])
    def test_unobserved_coordinate_raises(self, is_fit_data):
        V, M = masked(
            [[1.0, 0.0, 3.0], [2.0, 0.0, 4.0], [0.5, 0.0, 2.0]],
            [[True, False, True], [True, False, True], [True, False, True]],
        )
        imp = imputation.KnnImputer(K_GRID).fit(V, M)
        with pytest.raises(ImputationError,
                           match="no donor observes coordinate 1 for function 0"):
            knn_transform(imp, V, M, is_fit_data)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            imputation.KnnImputer((1, 0))


@st.composite
def lattice_rows(draw, p, min_rows=0, max_rows=12):
    """Rows of ``p`` values on a coarse lattice, so distances tie often,
    with a drawn share of holes (0 leaves every row complete) and some rows
    copied onto others, values and holes alike, so that rows tie exactly."""
    n = draw(st.integers(min_rows, max_rows))
    share = draw(st.sampled_from([0.0, 0.15, 0.4, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-2, 3, size=(n, p)).astype(float)
    mask = rng.uniform(size=(n, p)) >= share
    if n:
        for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      max_size=3)):
            values[dst], mask[dst] = values[src], mask[src]
    return values, mask


KS = st.lists(st.sampled_from([1, 2, 3, 4, 8]), min_size=1, max_size=4, unique=True)


def outcome(fill):
    """What ``fill()`` gives, ``(filled, short_fills)``: the bytes and shape
    of each filled matrix and the short-fill count, or the error's type and
    text."""
    try:
        filled, short = fill()
    except (ImputationError, IncomparableSampleError) as exc:
        return type(exc), str(exc)
    return [(m.tobytes(), m.shape) for m in filled], short


def array_fill(imp, values, mask, is_fit_data):
    out = knn_transform(imp, values, mask, is_fit_data)
    return [out], imp.short_fills_


def reference_fill(imp, values, mask, is_fit_data):
    out, short = reference_knn_transform(imp, values, mask, is_fit_data)
    return [out], short


#: Runs of (hole, donor) pairs a fill handles at once: one hole at a time,
#: a few holes, or every hole of these small matrices in one run.
FILL_PAIRS = st.sampled_from([1, 7, 40, imputation.FILL_PAIRS])


class TestSharedDistances:
    """The shared distance matrices and the array fill against the row-by-row
    reference of ``oracles.reference_knn_transform``, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.integers(1, 6))
    @example(data=None, p=3)
    def test_pair_distances_equal_each_rows_own(self, data, p):
        if data is None:  # one row: nothing to form but its diagonal
            V, M = np.array([[1.0, 0.0, 2.0]]), np.array([[True, False, True]])
        else:
            V, M = data.draw(lattice_rows(p, min_rows=1))
        D = imputation.pair_distances(V, M)
        holed = ~M.all(axis=1)
        for i in range(V.shape[0]):
            ref = reference_knn_distances(V, M, V[i], M[i], skip=i)
            if holed[i]:
                assert D[i].tobytes() == ref.tobytes()
            else:  # formed only toward the rows with a hole
                assert D[i, holed].tobytes() == ref[holed].tobytes()
                assert np.isnan(np.delete(D[i], i)[np.delete(~holed, i)]).all()
                assert D[i, i] == np.inf

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.integers(1, 6))
    def test_cross_distances_equal_each_rows_own(self, data, p):
        V, M = data.draw(lattice_rows(p))
        new_v, new_m = data.draw(lattice_rows(p))
        D = imputation.cross_distances(new_v, new_m, V, M)
        assert D.shape == (new_v.shape[0], V.shape[0])
        for i in range(new_v.shape[0]):
            if new_m[i].all():
                assert np.isnan(D[i]).all()
            else:
                assert D[i].tobytes() == reference_knn_distances(V, M, new_v[i],
                                                                 new_m[i]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 6), ks=KS, pairs=FILL_PAIRS)
    def test_fit_data_fill_equals_the_row_loop(self, data, p, ks, pairs):
        # a row never donates to itself, and short lists and ties are common
        V, M = data.draw(lattice_rows(p, min_rows=1))
        imp = imputation.KnnImputer(ks).fit(V, M)
        ref = outcome(lambda: reference_fill(imp, V, M, True))
        with mock.patch.object(imputation, "FILL_PAIRS", pairs):
            assert outcome(lambda: array_fill(imp, V, M, True)) == ref

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 6), ks=KS, pairs=FILL_PAIRS)
    def test_new_row_fill_equals_the_row_loop(self, data, p, ks, pairs):
        V, M = data.draw(lattice_rows(p))
        new_v, new_m = data.draw(lattice_rows(p))
        imp = imputation.KnnImputer(ks).fit(V, M)
        ref = outcome(lambda: reference_fill(imp, new_v, new_m, False))
        with mock.patch.object(imputation, "FILL_PAIRS", pairs):
            assert outcome(lambda: array_fill(imp, new_v, new_m, False)) == ref

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 6), ks=KS)
    def test_fold_slices_equal_a_fold_fitted_alone(self, data, p, ks):
        # a fold's training and validation rows read slices of the one
        # matrix of every training row, in the fold's own row order
        V, M = data.draw(lattice_rows(p, min_rows=2))
        rows = data.draw(st.permutations(range(V.shape[0])))
        cut = data.draw(st.integers(1, V.shape[0] - 1))
        tr, va = np.array(rows[:cut]), np.array(rows[cut:])
        D = imputation.pair_distances(V, M)
        imp = imputation.KnnImputer(ks).fit(V[tr], M[tr])

        def sliced():
            filled, short = imputation.fill("knn", ks, V[tr], M[tr], V[va], M[va],
                                            (D[np.ix_(tr, tr)], D[np.ix_(va, tr)]),
                                            (range(tr.size), range(va.size)))
            return [m for pair in filled for m in pair], short

        def alone():
            train, short = reference_knn_transform(imp, V[tr], M[tr], is_fit_data=True)
            new, new_short = reference_knn_transform(imp, V[va], M[va])
            return [m[:, c] for c in range(len(ks)) for m in (train, new)], short + new_short

        assert outcome(sliced) == outcome(alone)

    # donors observe coordinates 0-2 and never 3; new rows 0-2 and 4 are
    # complete, and rows 3 and 5 each fail in their own way
    DONORS = masked(np.arange(12.0).reshape(4, 3).repeat([1, 1, 2], axis=1),
                    np.tile([True, True, True, False], (4, 1)))
    UNOBSERVED_HOLE = [True, True, True, False]  # coordinate 3 has no donor
    INCOMPARABLE = [False, False, False, True]  # shares no coordinate with a donor

    @pytest.mark.parametrize("row3, row5, error, text", [
        (UNOBSERVED_HOLE, INCOMPARABLE, ImputationError,
         "no donor observes coordinate 3 for {row}"),
        (INCOMPARABLE, UNOBSERVED_HOLE, IncomparableSampleError,
         "{row} shares no observed coordinate with any donor"),
    ], ids=["unobserved-hole-first", "incomparable-first"])
    def test_the_first_failing_row_raises(self, row3, row5, error, text):
        new_m = np.ones((6, 4), dtype=bool)
        new_m[3], new_m[5] = row3, row5
        new_v = np.ones((6, 4))
        imp = imputation.KnnImputer(K_GRID).fit(*self.DONORS)
        with pytest.raises(error, match=re.escape(text.format(row="function 3"))):
            knn_transform(imp, new_v, new_m, False)
        with pytest.raises(error, match=re.escape(text.format(row="function 3"))):
            reference_knn_transform(imp, new_v, new_m)
        # an error names the row by its id, not by its position
        ids = np.array([40, 41, 42, 17, 44, 45])
        with pytest.raises(error, match=re.escape(text.format(row="function 17"))):
            knn_transform(imp, new_v, new_m, False, ids)


class TestExpertScale:
    # one-row matrices unless the test is about rows
    def test_two_point_example(self):
        values = np.array([[1.0, 7.0, 3.0]])
        mask = np.array([[True, False, True]])
        out = imputation.expert_scale_matrix(values, mask, range(len(values)))
        np.testing.assert_allclose(out[0, [0, 2]], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert out[0, 1] == 7.0  # the hole is left untouched

    def test_zero_mean_unit_deviation(self, rng):
        values = rng.normal(size=(1, 9))
        mask = np.array([[True] * 6 + [False] * 3])
        out = imputation.expert_scale_matrix(values, mask, range(len(values)))
        obs = out[mask]
        assert np.mean(obs) == pytest.approx(0.0, abs=1e-12)
        assert np.sum(obs**2) == pytest.approx(1.0)
        np.testing.assert_array_equal(out[~mask], values[~mask])

    def test_affine_invariance(self, rng):
        values = rng.normal(size=(1, 8))
        mask = rng.uniform(size=(1, 8)) > 0.3
        mask[0, :2] = True
        base = imputation.expert_scale_matrix(values, mask, range(len(values)))
        for a, b in ((2.0, 5.0), (-3.0, 1.0)):
            out = imputation.expert_scale_matrix(a * values + b, mask, [0])
            np.testing.assert_allclose(out[mask], np.sign(a) * base[mask], atol=1e-12)

    def test_rows_match_per_row_reference(self, rng):
        values = rng.normal(size=(12, 7))
        mask = rng.uniform(size=values.shape) > 0.3
        mask[:, :2] = True
        out = imputation.expert_scale_matrix(values, mask, range(len(values)))
        for i in range(values.shape[0]):
            dev = values[i, mask[i]] - np.mean(values[i, mask[i]])
            np.testing.assert_allclose(
                out[i, mask[i]], dev / np.sqrt(dev @ dev), rtol=1e-12, atol=1e-15
            )
        np.testing.assert_array_equal(out[~mask], values[~mask])

    def test_constant_observed_errors(self, rng):
        values = rng.normal(size=(3, 3))
        values[1] = [2.0, 2.0, 0.0]
        mask = np.array([[True, True, True], [True, True, False], [True, False, True]])
        # the error names the function by its id, not its row
        with pytest.raises(ScalingError, match="function 101: observed values are constant"):
            imputation.expert_scale_matrix(values, mask, [100, 101, 102])

    def test_single_observation_errors(self):
        values = np.array([[1.0, 3.0], [2.0, 1.0]])
        mask = np.array([[True, True], [True, False]])
        with pytest.raises(ScalingError, match="function 201: expert scaling needs"):
            imputation.expert_scale_matrix(values, mask, [200, 201])

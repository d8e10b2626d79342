import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdareg import fdata
from fdareg.errors import ParseError, ValidationError
from oracles import grid_mapping_per_curve


def write_tecator_like(path, n=8, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        absorb = 2.0 + 0.5 * rng.normal(size=100)
        water, fat, protein = rng.uniform(40, 70), rng.uniform(0.9, 49.1), rng.uniform(10, 25)
        rows.append(" ".join(f"{v:.6f}" for v in [*absorb, water, fat, protein]))
    path.write_text("\n".join(rows) + "\n")
    return path


class TestSampledFunction:
    def test_strict_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            fdata.SampledFunction([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            fdata.SampledFunction([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x, y, message", [
        ([0.0, 1.0], [1.0], "x and y of function 7 must be 1-d arrays of equal length"),
        ([], [], "function 7 needs at least one sample"),
    ], ids=["unequal", "empty"])
    def test_shape_errors_name_the_function(self, x, y, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            fdata.SampledFunction(x, y, id=7)

    def test_immutable(self):
        f = fdata.SampledFunction([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(AttributeError):
            f.id = 7
        with pytest.raises(ValueError):
            f.x[0] = 5.0


class TestLoadDataset:
    def test_tecator_grid(self, tmp_path):
        path = write_tecator_like(tmp_path / "tec.txt", n=8)
        ds = fdata.load_dataset(path, "tecator-grid")
        assert len(ds) == 8
        assert all(len(f) == 100 for f in ds.functions)
        assert ds.domain == (850.0, 1050.0)
        # fat column is the target
        first_row = (tmp_path / "tec.txt").read_text().splitlines()[0].split()
        assert ds.targets[0] == pytest.approx(float(first_row[101]))

    def test_empty_file_is_parse_error(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n# only a comment\n")
        with pytest.raises(ParseError):
            fdata.load_dataset(p, "tecator-grid")

    def test_domain_row_alone_is_parse_error(self, tmp_path):
        p = tmp_path / "domain-only.pairs"
        p.write_text("domain 0 1\n")
        with pytest.raises(ParseError, match="domain-only.pairs: .*no function rows"):
            fdata.load_dataset(p, "generic-pairs")

    def test_malformed_row_names_line(self, tmp_path):
        path = write_tecator_like(tmp_path / "tec.txt", n=2)
        lines = path.read_text().splitlines()
        lines[1] = "garbage " + lines[1]
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="line 2"):
            fdata.load_dataset(path, "tecator-grid")

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text(" ".join(["1.0"] * 50) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            fdata.load_dataset(p, "tecator-grid")

    def test_generic_pairs_irregular_lengths(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text(
            "domain 0 10\n"
            "3.5 0 1 2 4 5 9 7 16 8 25\n"  # m=5
            "1.0 0 0 1 1 2 4 3 9 5 25 6 36 10 100\n"  # m=7
        )
        ds = fdata.load_dataset(p, "generic-pairs")
        assert [len(f) for f in ds.functions] == [5, 7]
        assert ds.domain == (0.0, 10.0)
        assert list(ds.targets) == [3.5, 1.0]

    def test_generic_pairs_roundtrip(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("domain 0 1\n2.0 0 1 0.5 2 1 3\n")
        ds = fdata.load_dataset(p, "generic-pairs")
        out = tmp_path / "copy.txt"
        fdata.save_generic_pairs(ds, out)
        ds2 = fdata.load_dataset(out, "generic-pairs")
        assert ds2.domain == ds.domain
        np.testing.assert_array_equal(ds2.functions[0].x, ds.functions[0].x)
        np.testing.assert_array_equal(ds2.functions[0].y, ds.functions[0].y)

    def test_non_monotone_abscissas_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0 1 2 2 1 3\n")
        with pytest.raises(ValidationError):
            fdata.load_dataset(p, "generic-pairs")

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_names_the_function(self, tmp_path, target):
        # a nan target would turn every CV score and the test RMSE into nan
        p = tmp_path / "pairs.txt"
        p.write_text(f"domain 0 1\n2.0 0 1 1 2\n{target} 0 3 1 4\n")
        with pytest.raises(ValidationError, match="function 1 has a non-finite target"):
            fdata.load_dataset(p, "generic-pairs")
        path = write_tecator_like(tmp_path / "tec.txt", n=3)
        lines = path.read_text().splitlines()
        cols = lines[2].split()
        cols[101] = target  # the fat column
        lines[2] = " ".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="function 2 has a non-finite target"):
            fdata.load_dataset(path, "tecator-grid")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sample_names_the_function(self, tmp_path, value):
        path = write_tecator_like(tmp_path / "tec.txt", n=6)
        lines = path.read_text().splitlines()
        cols = lines[3].split()
        cols[40] = value  # an absorbance of the fourth row
        lines[3] = " ".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError,
                           match="sample coordinates of function 3 must be finite"):
            fdata.load_dataset(path, "tecator-grid")
        p = tmp_path / "pairs.txt"
        p.write_text(f"domain 0 1\n2.0 0 1 1 2\n1.0 0 3 {value} 4\n")
        with pytest.raises(ValidationError,
                           match="sample coordinates of function 1 must be finite"):
            fdata.load_dataset(p, "generic-pairs")


class TestDataset:
    def test_non_finite_target_names_the_first_function(self):
        functions = [fdata.SampledFunction([0.0, 1.0], [1.0, 2.0], id=i) for i in (4, 5, 6)]
        with pytest.raises(ValidationError, match=re.escape("function 5 has a non-finite "
                                                            "target nan")):
            fdata.Dataset(functions, [1.0, np.nan, np.inf], (0.0, 1.0))

    @pytest.mark.parametrize("bounds", ["0 nan", "0 inf", "-inf 1", "nan nan"])
    def test_non_finite_domain_is_rejected(self, bounds, tmp_path):
        # every loader passes through the constructor, so a domain row with a
        # non-finite bound is a named error, not a dataset on (0, nan)
        p = tmp_path / "pairs.txt"
        p.write_text(f"domain {bounds}\n2.0 0 1 1 2\n1.0 0 3 1 4\n")
        a, b = (float(v) for v in bounds.split())
        with pytest.raises(ValidationError,
                           match=re.escape(f"domain [{a}, {b}] has a non-finite bound")):
            fdata.load_dataset(p, "generic-pairs")


class TestDropRandom:
    def test_tecator_fraction(self):
        f = fdata.SampledFunction(np.arange(100.0), np.zeros(100))
        out = fdata.drop_random(f, 0.10, seed=3)
        assert len(out) == 90

    def test_round_half_up(self):
        f = fdata.SampledFunction(np.arange(5.0), np.zeros(5))
        # 0.1 * 5 = 0.5 rounds up: 1 point removed
        assert len(fdata.drop_random(f, 0.1, seed=0)) == 4

    def test_fraction_zero_identity(self):
        f = fdata.SampledFunction(np.arange(10.0), np.arange(10.0) ** 2)
        out = fdata.drop_random(f, 0.0, seed=1)
        np.testing.assert_array_equal(out.x, f.x)
        np.testing.assert_array_equal(out.y, f.y)

    def test_deterministic_per_seed(self):
        f = fdata.SampledFunction(np.arange(50.0), np.zeros(50))
        a = fdata.drop_random(f, 0.2, seed=42)
        b = fdata.drop_random(f, 0.2, seed=42)
        c = fdata.drop_random(f, 0.2, seed=43)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_result_is_subsequence(self, rng):
        f = fdata.SampledFunction(np.sort(rng.uniform(0, 1, 30)), rng.normal(size=30))
        out = fdata.drop_random(f, 0.3, seed=5)
        assert len(out) == 30 - 9
        assert set(out.x).issubset(set(f.x))
        assert np.all(np.diff(out.x) > 0)

    def test_drops_exactly_the_drawn_indices(self, rng):
        # the points removed are the generator's draws without replacement,
        # whatever the order of the draws
        for seed in range(5):
            f = fdata.SampledFunction(np.sort(rng.uniform(0, 1, 100)), rng.normal(size=100))
            drawn = np.random.default_rng(seed).choice(100, size=10, replace=False)
            keep = np.setdiff1d(np.arange(100), drawn)
            out = fdata.drop_random(f, 0.1, seed=seed)
            np.testing.assert_array_equal(out.x, f.x[keep])
            np.testing.assert_array_equal(out.y, f.y[keep])

    def test_emptied_function_is_named(self):
        f = fdata.SampledFunction([0.5], [1.0], id=7)
        with pytest.raises(ValidationError, match="dropping would leave function 7 empty"):
            fdata.drop_random(f, 0.5, seed=0)

    def test_invalid_fraction(self):
        f = fdata.SampledFunction([0.0, 1.0], [0.0, 0.0])
        for frac in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError):
                fdata.drop_random(f, frac, seed=0)


class TestGrids:
    def test_roundtrip_with_holes(self, rng):
        grid = np.linspace(0.0, 10.0, 21)
        fns = []
        for i in range(5):
            f = fdata.SampledFunction(grid, rng.normal(size=21), id=i)
            fns.append(fdata.drop_random(f, 0.2, seed=i))
        values, mask = fdata.Grids(fns).on(grid)
        assert mask.sum(axis=1).tolist() == [17] * 5
        for i, f in enumerate(fns):
            np.testing.assert_array_equal(values[i, mask[i]], f.y)

    def test_off_grid_sample_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        on_grid = fdata.SampledFunction([0.0, 0.5], [1.0, 2.0], id=4)
        off_grid = fdata.SampledFunction([0.0, 0.3], [1.0, 2.0], id=7)
        with pytest.raises(ValidationError, match="function 7 has samples off the common grid"):
            fdata.Grids([on_grid, off_grid, off_grid]).on(grid)
        with pytest.raises(ValidationError, match="function 4 has samples off the common grid"):
            fdata.Grids([on_grid]).on(np.empty(0))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 7),
        p=st.integers(1, 25),
        drop=st.sampled_from([0.0, 0.1, 0.4]),
        shift=st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 0.25, -3.0]),
    )
    def test_on_equals_per_curve_reference(self, seed, n, p, drop, shift):
        # holed curves, some sharing an abscissa array, abscissas jittered by
        # up to 1e-10; one curve may have a sample moved by ``shift``
        rng = np.random.default_rng(seed)
        grid = np.cumsum(rng.uniform(0.5, 1.5, p))
        fns = []
        for i, fid in enumerate(rng.permutation(n) + 10):
            if fns and rng.random() < 0.3:
                x = fns[rng.integers(len(fns))].x
            else:
                keep = rng.random(p) >= drop
                keep[rng.integers(p)] = True
                x = grid[keep] + rng.uniform(-1e-10, 1e-10, keep.sum())
            if shift and i == n // 2:
                x = x.copy()
                x[0 if shift < 0 else rng.integers(x.size)] += shift
            fns.append(fdata.SampledFunction(x, rng.normal(size=x.size), id=fid))
        dataset = fdata.Dataset(fns, np.zeros(n), (grid[0] - 4.0, grid[-1] + 1.0))
        try:
            expected = grid_mapping_per_curve(dataset, grid)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                fdata.Grids(fns).on(grid)
            return
        values, mask = fdata.Grids(fns).on(grid)
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(mask, expected[1])


class TestMatrix:
    def test_default_grid_is_the_union(self, rng):
        grid = np.linspace(0.0, 1.0, 9)
        Y = rng.normal(size=(3, 9))
        ds = fdata.Dataset([fdata.SampledFunction(grid, y, id=i) for i, y in enumerate(Y)],
                           np.zeros(3), (0.0, 1.0))
        np.testing.assert_array_equal(ds.matrix(), Y)
        np.testing.assert_array_equal(ds.matrix(grid + 1e-10), Y)

    def test_missing_grid_point_names_the_function(self):
        grid = np.linspace(0.0, 1.0, 5)
        fns = [fdata.SampledFunction(grid, np.zeros(5), id=3),
               fdata.SampledFunction(grid[1:], np.zeros(4), id=8)]
        ds = fdata.Dataset(fns, np.zeros(2), (0.0, 1.0))
        with pytest.raises(ValidationError,
                           match="not sampled on a common grid: function 8 misses a grid point"):
            ds.matrix()

    def test_empty_dataset_is_0_by_0(self):
        fns = [fdata.SampledFunction([0.0, 1.0], [i, i], id=i) for i in range(4)]
        _, empty = fdata.split(fdata.Dataset(fns, np.zeros(4), (0.0, 1.0)), 0)
        assert empty.matrix().shape == (0, 0)


def ids(dataset):
    return tuple(f.id for f in dataset.functions)


class TestSplit:
    def _dataset(self, n=10):
        fns = [fdata.SampledFunction([0.0, 1.0], [i, i], id=i) for i in range(n)]
        return fdata.Dataset(fns, np.arange(n, dtype=float), (0.0, 1.0))

    def test_partition_property(self):
        ds = self._dataset(17)
        train, test = fdata.split(ds, 5, seed=0)
        assert len(train) == 12 and len(test) == 5
        assert sorted(ids(train) + ids(test)) == list(range(17))
        assert set(ids(train)).isdisjoint(ids(test))

    def test_fixed_order_mode(self):
        ds = self._dataset(10)
        train, test = fdata.split(ds, 3, shuffle=False)
        assert ids(train) == tuple(range(7))
        assert ids(test) == (7, 8, 9)

    def test_zero_test_size(self):
        ds = self._dataset(4)
        train, test = fdata.split(ds, 0, seed=1)
        assert len(train) == 4 and len(test) == 0

    def test_too_large_test_size(self):
        ds = self._dataset(4)
        with pytest.raises(ValidationError):
            fdata.split(ds, 4, seed=0)

    def test_deterministic(self):
        ds = self._dataset(9)
        a = ids(fdata.split(ds, 3, seed=7)[1])
        b = ids(fdata.split(ds, 3, seed=7)[1])
        assert a == b


def test_make_holes_master_seed_reproducible():
    fns = [
        fdata.SampledFunction(np.arange(20.0), np.arange(20.0), id=i) for i in range(4)
    ]
    ds = fdata.Dataset(fns, np.zeros(4), (0.0, 19.0))
    a = fdata.make_holes(ds, 0.25, seed=11)
    b = fdata.make_holes(ds, 0.25, seed=11)
    for fa, fb in zip(a.functions, b.functions):
        np.testing.assert_array_equal(fa.x, fb.x)
    assert all(len(f) == 15 for f in a.functions)
    # different functions get different hole patterns
    assert any(
        not np.array_equal(a.functions[0].x, f.x) for f in a.functions[1:]
    )

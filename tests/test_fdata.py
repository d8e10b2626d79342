import numpy as np
import pytest

from fdareg import fdata
from fdareg.errors import ParseError, ValidationError


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

    def test_invalid_fraction(self):
        f = fdata.SampledFunction([0.0, 1.0], [0.0, 0.0])
        for frac in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError):
                fdata.drop_random(f, frac, seed=0)


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

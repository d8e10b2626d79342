import json

import numpy as np
import pytest

from conftest import synthetic_dataset
from fdareg import cli, fdata, represent, suites
from fdareg.errors import ConfigError
from fdareg.selection import ExperimentSpec


@pytest.fixture(scope="module")
def pairs_file(tmp_path_factory):
    rng = np.random.default_rng(31)
    ds = synthetic_dataset(rng, n=36, m=26, noise=0.005)
    path = tmp_path_factory.mktemp("data") / "synthetic.pairs"
    fdata.save_generic_pairs(ds, path)
    return path


SMALL_SPEC = {
    "name": "cli-rbfn",
    "model": "rbfn",
    "representation": {"kind": "bspline", "order": 4, "dimension": 9},
    "rbfn": {
        "width_multipliers": [0.5, 1.0, 2.0],
        "ridges": [1e-4, 1e-1],
        "max_centers": 12,
    },
    "seed": 4,
}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0


def test_make_holes_roundtrip(pairs_file, tmp_path):
    out = tmp_path / "holed.pairs"
    rc = cli.main([
        "make-holes", "--data", str(pairs_file), "--format", "generic-pairs",
        "--drop-fraction", "0.2", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    holed = fdata.load_dataset(out, "generic-pairs")
    original = fdata.load_dataset(pairs_file, "generic-pairs")
    assert holed.domain == original.domain
    assert all(len(f) == 26 - 5 for f in holed.functions)


def test_make_holes_punches_the_holes_of_the_holed_tables(pairs_file, tmp_path, monkeypatch):
    # make-holes --seed s and suite --seed s on a holed table, each at its
    # default fraction, drop the same samples
    holed = tmp_path / "holed.pairs"
    assert cli.main(["make-holes", "--data", str(pairs_file), "--format", "generic-pairs",
                     "--seed", "5", "--out", str(holed)]) == 0
    grids = []

    def record_grids(spec, train, test):
        grids[:] = [f.x for f in (*train.functions, *test.functions)]
        raise ConfigError("not run")

    monkeypatch.setattr(cli, "run_experiment", record_grids)
    cli.main(["suite", "--table", "table3", "--seed", "5", "--data", str(pairs_file),
              "--format", "generic-pairs", "--test-size", "9", "--out", str(tmp_path / "s")])
    expected = fdata.load_dataset(holed, "generic-pairs").functions
    assert len(grids) == len(expected) == 36
    for x, f in zip(grids, expected):
        np.testing.assert_array_equal(x, f.x)


def test_represent_outputs(pairs_file, tmp_path):
    out = tmp_path / "rep"
    rc = cli.main([
        "represent", "--data", str(pairs_file), "--format", "generic-pairs",
        "--basis", "bspline", "--order", "4", "--dimension", "10",
        "--out", str(out), "--emit-curves", "--curve-functions", "2",
    ])
    assert rc == 0
    alpha_rows = (out / "alpha.csv").read_text().splitlines()
    assert len(alpha_rows) == 37  # header + 36 functions
    assert (out / "beta.csv").exists()
    assert (out / "curve_fit_0.csv").exists()
    assert (out / "curve_pca_variance.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dimension"] == 10

    # the reconstruction file round-trips through the loader
    recon = fdata.load_dataset(out / "reconstruction.pairs", "generic-pairs")
    original = fdata.load_dataset(pairs_file, "generic-pairs")
    assert len(recon) == len(original)
    np.testing.assert_allclose(recon.targets, original.targets)
    for fr, fo in zip(recon.functions, original.functions):
        np.testing.assert_array_equal(fr.x, fo.x)
        # spline fit should track the (low-noise) samples closely
        assert np.max(np.abs(fr.y - fo.y)) < 0.2


def test_holed_reconstruction_equals_per_curve_evaluation(pairs_file, tmp_path):
    # one basis evaluation on the union gives each curve's fitted values
    # bit for bit as evaluating the basis at its own abscissas
    holed = tmp_path / "holed.pairs"
    assert cli.main([
        "make-holes", "--data", str(pairs_file), "--format", "generic-pairs",
        "--drop-fraction", "0.1", "--seed", "3", "--out", str(holed),
    ]) == 0
    out = tmp_path / "rep-holed"
    assert cli.main([
        "represent", "--data", str(holed), "--format", "generic-pairs",
        "--basis", "fourier", "--dimension", "9", "--out", str(out),
    ]) == 0
    data = fdata.load_dataset(holed, "generic-pairs")
    basis = represent.make_basis("fourier", data.domain, 9)
    alpha = represent.fit_dataset(fdata.Grids(data.functions), basis)
    recon = fdata.load_dataset(out / "reconstruction.pairs", "generic-pairs")
    for f, fr, a in zip(data.functions, recon.functions, alpha):
        np.testing.assert_array_equal(fr.x, f.x)
        np.testing.assert_array_equal(fr.y, basis.evaluate(f.x) @ a)


def test_emit_curves_skips_only_constant_curves(tmp_path):
    # the first shown curve is constant, so it alone has no center-reduce file
    rng = np.random.default_rng(5)
    ds = synthetic_dataset(rng, n=8, m=26, noise=0.005)
    flat = fdata.SampledFunction(ds.functions[0].x, np.full(26, 2.5), id=0)
    data = tmp_path / "flat.pairs"
    fdata.save_generic_pairs(
        fdata.Dataset([flat, *ds.functions[1:]], ds.targets, ds.domain), data
    )
    out = tmp_path / "rep-flat"
    rc = cli.main([
        "represent", "--data", str(data), "--format", "generic-pairs",
        "--basis", "bspline", "--order", "4", "--dimension", "8",
        "--out", str(out), "--emit-curves", "--curve-functions", "2",
    ])
    assert rc == 0
    assert not (out / "curve_center_reduce_0.csv").exists()
    assert (out / "curve_center_reduce_1.csv").exists()
    for name in ("fit", "deriv1", "deriv2"):
        assert (out / f"curve_{name}_0.csv").exists()
        assert (out / f"curve_{name}_1.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["omitted_curves"] == {"center_reduce": "curves [0] are constant"}


def test_emit_curves_of_a_single_curve_omit_the_pca_curves(tmp_path, capsys):
    # PCA needs two curves; the other curve files of one curve are written
    rng = np.random.default_rng(5)
    data = tmp_path / "one.pairs"
    fdata.save_generic_pairs(synthetic_dataset(rng, n=1, m=26, noise=0.005), data)
    out = tmp_path / "rep-one"
    assert cli.main([
        "represent", "--data", str(data), "--format", "generic-pairs",
        "--dimension", "8", "--out", str(out), "--emit-curves",
    ]) == 0
    reason = "ValidationError: PCA needs a 2-d array with at least 2 samples"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["omitted_curves"] == {"pca_variance": reason, "pc1_vs_mean": reason}
    for name in ("samples", "fit", "center_reduce", "deriv1", "deriv2"):
        assert (out / f"curve_{name}_0.csv").exists()
    assert not list(out.glob("curve_p*.csv"))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, omitted", [
    (["--basis", "fourier", "--dimension", "6"], {
        "deriv1": "UnsupportedOrderError: Fourier derivatives need complete sine/cosine "
                  "pairs (odd dimension)",
        "deriv2": "UnsupportedOrderError: Fourier derivatives need complete sine/cosine "
                  "pairs (odd dimension)",
    }),
    (["--order", "2", "--dimension", "8"], {
        "deriv2": "UnsupportedOrderError: order-2 splines support derivatives up to 1",
    }),
], ids=["fourier-even-dimension", "bspline-order-2"])
def test_emit_curves_names_the_derivatives_the_basis_lacks(argv, omitted, pairs_file,
                                                           tmp_path):
    out = tmp_path / "rep"
    assert cli.main(["represent", "--data", str(pairs_file), "--format", "generic-pairs",
                     *argv, "--out", str(out), "--emit-curves"]) == 0
    assert json.loads((out / "manifest.json").read_text())["omitted_curves"] == omitted
    for name in ("fit", "center_reduce", "deriv1", "deriv2"):
        assert (out / f"curve_{name}_0.csv").exists() == (name not in omitted)


def test_represent_loo_selection(pairs_file, tmp_path):
    out = tmp_path / "rep-loo"
    rc = cli.main([
        "represent", "--data", str(pairs_file), "--format", "generic-pairs",
        "--dimension", "loo", "--out", str(out),
    ])
    assert rc == 0
    report = (out / "loo_report.csv").read_text().splitlines()
    assert report[0] == "dimension,total_loo"
    assert len(report) > 1


def test_represent_loo_lists_pruned_sizes(tmp_path):
    # on holed curves leave-one-out stops the sizes that can no longer win:
    # each is one "q,pruned" line, and every default size is on one line
    ds = fdata.make_holes(synthetic_dataset(np.random.default_rng(424), n=38, m=24,
                                            noise=0.005), 0.15, seed=9)
    data = tmp_path / "holed.pairs"
    fdata.save_generic_pairs(ds, data)
    out = tmp_path / "out"
    assert cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                     "--dimension", "loo", "--out", str(out)]) == 0
    sel = represent.select_basis_size(fdata.Grids(fdata.load_dataset(data, "generic-pairs").functions),
                                      ds.domain)
    report = (out / "loo_report.csv").read_text().splitlines()
    assert sel.pruned and [f"{q},pruned" for q in sel.pruned] == [
        line for line in report if line.endswith(",pruned")]
    assert sorted(int(line.split(",")[0]) for line in report[1:]) == sorted(
        [*sel.scores, *sel.pruned, *sel.skipped])


def test_represent_loo_writes_the_refit_outputs(tmp_path, monkeypatch):
    # the selected size's coefficients come from its leave-one-out fits, not
    # a refit, and every output is byte for byte that of representing the
    # curves at that size, which refits them; the holes give every curve
    # its own grid
    ds = fdata.make_holes(synthetic_dataset(np.random.default_rng(424), n=38, m=24,
                                            noise=0.005), 0.15, seed=9)
    data = tmp_path / "holed.pairs"
    fdata.save_generic_pairs(ds, data)

    def run(dimension, out):
        assert cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                         "--dimension", dimension, "--out", str(out), "--emit-curves",
                         "--curve-functions", "3"]) == 0
        return json.loads((out / "manifest.json").read_text())

    with monkeypatch.context() as mp:
        mp.setattr(represent, "fit_dataset", None)  # the loo route must not refit
        selected = run("loo", tmp_path / "loo")
    fixed = run(str(selected["dimension"]), tmp_path / "fixed")
    grids = fdata.Grids(fdata.load_dataset(data, "generic-pairs").functions)
    basis = represent.make_basis("bspline", ds.domain, selected["dimension"])
    # the SSE of the QR fits' own residuals
    sse = np.empty(len(grids))
    for idx, (_, resid, _) in represent._group_fits(grids, basis):
        sse[idx] = np.einsum("ij,ij->j", resid, resid)
    assert selected["mean_sse"] == float(np.mean(sse))
    assert {k: v for k, v in selected.items() if k != "args"} == {
        k: v for k, v in fixed.items() if k != "args"}
    files = sorted(p.name for p in (tmp_path / "fixed").iterdir() if p.name != "manifest.json")
    assert "alpha.csv" in files and "reconstruction.pairs" in files
    assert sorted(files + ["loo_report.csv"]) == sorted(
        p.name for p in (tmp_path / "loo").iterdir() if p.name != "manifest.json")
    for name in files:
        assert (tmp_path / "loo" / name).read_bytes() == (tmp_path / "fixed" / name).read_bytes()


def test_experiment_command(pairs_file, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SMALL_SPEC))
    out = tmp_path / "exp"
    rc = cli.main([
        "experiment", "--spec", str(spec_file),
        "--data", str(pairs_file), "--format", "generic-pairs",
        "--test-size", "9", "--split", "fixed", "--out", str(out),
    ])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "cli-rbfn" in report
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "experiment,selected-params,test-rmse,wall-time"
    assert len(results) == 2
    assert (out / "row_cli-rbfn.json").exists()


def test_experiment_rerun_byte_identical_report(pairs_file, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SMALL_SPEC))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"exp-{tag}"
        rc = cli.main([
            "experiment", "--spec", str(spec_file),
            "--data", str(pairs_file), "--format", "generic-pairs",
            "--test-size", "9", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()
    assert (
        (outs[0] / "row_cli-rbfn.json").read_bytes()
        == (outs[1] / "row_cli-rbfn.json").read_bytes()
    )


def test_failing_row_does_not_stop_the_suite(pairs_file, tmp_path, monkeypatch, capsys):
    names = ("first", "broken", "third")

    def three_rows(seed=0):
        return [
            ExperimentSpec.from_dict(dict(SMALL_SPEC, name=name, seed=seed))
            for name in names
        ]

    real_run = cli.run_experiment

    def run_or_fail(spec, train, test):
        if spec.name == "broken":
            raise ConfigError("no grid cell was scored in every fold")
        return real_run(spec, train, test)

    monkeypatch.setitem(suites.SUITE_BUILDERS, "three-rows", three_rows)
    monkeypatch.setattr(cli, "run_experiment", run_or_fail)
    out = tmp_path / "suite"
    rc = cli.main([
        "suite", "--table", "three-rows",
        "--data", str(pairs_file), "--format", "generic-pairs",
        "--test-size", "9", "--out", str(out),
    ])
    assert rc == 1
    assert "broken: ConfigError" in capsys.readouterr().err
    for name in ("first", "third"):
        row = json.loads((out / f"row_{name}.json").read_text())
        assert set(row) == {"name", "model", "seed", "test_rmse", "cv_score", "selected",
                            "info", "notes"}
        assert np.isfinite(row["test_rmse"])
    failed = json.loads((out / "row_broken.json").read_text())
    assert set(failed) == {"name", "model", "seed", "error"}
    assert failed["error"] == {
        "type": "ConfigError", "message": "no grid cell was scored in every fold"
    }
    report = (out / "report.txt").read_text().splitlines()
    [line] = [text for text in report if text.startswith("broken")]
    assert "failed" in line and "ConfigError: no grid cell" in line
    assert sum(text.startswith(("first", "third")) for text in report) == 2
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 4
    assert results[2].startswith("broken,failed: ConfigError")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == list(names)


@pytest.mark.parametrize("table, argv, fraction", [
    ("holed-rows", [], 0.1),
    ("holed-rows", ["--drop-fraction", "0"], 0.0),
    ("complete-rows", [], 0.0),
    ("complete-rows", ["--drop-fraction", "0.2"], 0.2),
], ids=["holed-default", "holed-explicit-zero", "complete-default", "complete-explicit"])
def test_drop_fraction_default_and_explicit(table, argv, fraction, pairs_file, tmp_path,
                                            monkeypatch):
    # an explicit --drop-fraction wins, 0 included; without it the holed
    # tables punch 10 % holes and the others none
    def one_row(seed=0):
        return [ExperimentSpec.from_dict(dict(SMALL_SPEC, seed=seed))]

    lengths = []

    def record_lengths(spec, train, test):
        lengths.extend(len(f) for f in train.functions)
        raise ConfigError("not run")

    monkeypatch.setitem(suites.SUITE_BUILDERS, "holed-rows", one_row)
    monkeypatch.setitem(suites.SUITE_BUILDERS, "complete-rows", one_row)
    monkeypatch.setattr(suites, "HOLED_TABLES", (*suites.HOLED_TABLES, "holed-rows"))
    monkeypatch.setattr(cli, "run_experiment", record_lengths)
    out = tmp_path / "suite"
    cli.main([
        "suite", "--table", table, *argv,
        "--data", str(pairs_file), "--format", "generic-pairs",
        "--test-size", "9", "--out", str(out),
    ])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["drop_fraction"] == fraction
    assert f"drop-fraction={fraction}" in (out / "report.txt").read_text()
    assert set(lengths) == {26 - round(26 * fraction)}


def test_config_error_exit_status(pairs_file, tmp_path, capsys):
    bad = dict(SMALL_SPEC, name="bad", model="mlp")  # MLP without PCA
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(bad))
    rc = cli.main([
        "experiment", "--spec", str(spec_file),
        "--data", str(pairs_file), "--format", "generic-pairs",
        "--test-size", "9", "--out", str(tmp_path / "bad-out"),
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_data_file(tmp_path, capsys):
    rc = cli.main([
        "make-holes", "--data", str(tmp_path / "nope.txt"),
        "--out", str(tmp_path / "x"),
    ])
    _assert_named_error(rc, capsys.readouterr().err,
                        f"error: file not found: {tmp_path / 'nope.txt'}")


@pytest.mark.parametrize("kind, message", [
    ("latin-1", "not UTF-8 text"), ("directory", "is a directory, not a data file"),
])
def test_unreadable_data_file_is_a_named_error(kind, message, tmp_path, capsys):
    data = tmp_path / "spectra"
    if kind == "directory":
        data.mkdir()
    else:
        data.write_bytes("domain 0 1\n1.0 0 1 1 \u00b5\n".encode("latin-1"))
    rc = cli.main(["make-holes", "--data", str(data), "--format", "generic-pairs",
                   "--out", str(tmp_path / "holed.pairs")])
    _assert_named_error(rc, capsys.readouterr().err, f"{data}: {message}")
    assert not (tmp_path / "holed.pairs").exists()


@pytest.mark.parametrize("kind, message", [
    ("latin-1", "is not UTF-8 text"), ("directory", "is a directory, not a spec file"),
])
def test_unreadable_spec_file_is_a_named_error(kind, message, pairs_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    if kind == "directory":
        spec.mkdir()
    else:
        spec.write_bytes('{"name": "\u00b5"}'.encode("latin-1"))
    rc = cli.main(["experiment", "--spec", str(spec), "--data", str(pairs_file),
                   "--format", "generic-pairs", "--out", str(tmp_path / "out")])
    _assert_named_error(rc, capsys.readouterr().err, f"spec file {spec} {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["represent", "--dimension", "8"],
    ["make-holes"],
    ["experiment", "--spec", "SPEC", "--test-size", "9"],
    ["suite", "--table", "table1", "--test-size", "9"],
], ids=["represent", "make-holes", "experiment", "suite"])
def test_out_of_the_wrong_kind_is_a_named_error(argv, pairs_file, tmp_path, capsys):
    # an existing file as the output directory (a directory as make-holes'
    # output file), or a path below a file
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    blocker = tmp_path / "file"
    blocker.write_text("keep me\n")
    (tmp_path / "dir").mkdir()
    wrong_kind = tmp_path / "dir" if argv[0] == "make-holes" else blocker
    for out in (wrong_kind, blocker / "x"):
        rc = cli.main([*argv, "--data", str(pairs_file), "--format", "generic-pairs",
                       "--out", str(out)])
        _assert_named_error(rc, capsys.readouterr().err, f"error: {tmp_path}")
    assert blocker.read_text() == "keep me\n"
    assert not any((tmp_path / "dir").iterdir())


def _assert_named_error(rc, err, *fragments):
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


BAD_SPECS = {
    "unknown-key": (json.dumps(dict(SMALL_SPEC, fold_count=3)), "'fold_count'"),
    "unknown-nested-key": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "bspline", "quad_points": 8})),
        "'quad_points' in spec section 'representation'",
    ),
    "malformed-json": ('{"name": "cli-rbfn", ', "not valid JSON"),
    "missing-required-key": (json.dumps({"model": "rbfn"}), "missing required key 'name'"),
    "section-not-object": (
        json.dumps(dict(SMALL_SPEC, pca=5)), "spec section 'pca' must be an object"
    ),
    # no such settings: a fixed k is a one-entry k_grid, classical PCA always
    # z-scores its columns, and the models are rbfn and mlp
    "removed-impute-k": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "raw"},
                        impute={"kind": "knn", "k": 4})),
        "unknown key 'k' in spec section 'impute'",
    ),
    "removed-pca-standardize": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "raw"},
                        pca={"kind": "classical", "standardize": True})),
        "unknown key 'standardize' in spec section 'pca'",
    ),
    "removed-mean-model": (json.dumps(dict(SMALL_SPEC, model="mean")), "unknown model 'mean'"),
    # a fixed PCA size is a one-entry component_grid
    "removed-pca-n-components": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "raw"},
                        pca={"kind": "classical", "n_components": 3})),
        "unknown key 'n_components' in spec section 'pca'",
    ),
    # mistyped values: each names its key instead of ending in a traceback
    "dimension-not-a-number": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "bspline", "dimension": "abc"})),
        "representation.dimension must be 'loo' or a positive integer, not 'abc'",
    ),
    "dimension-list": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "bspline", "dimension": [3]})),
        "representation.dimension must be 'loo' or a positive integer, not (3,)",
    ),
    "order-not-a-number": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "bspline", "order": "x"})),
        "representation.order must be a positive integer, not 'x'",
    ),
    "model-list": (json.dumps(dict(SMALL_SPEC, model=["rbfn"])), "unknown model ['rbfn']"),
    "name-not-a-string": (
        json.dumps(dict(SMALL_SPEC, name=5)), "name must be a non-empty string, not 5",
    ),
    "name-empty": (json.dumps(dict(SMALL_SPEC, name="")), "name must be a non-empty string"),
    # the name is a file name and a results.csv field
    "name-with-a-slash": (
        json.dumps(dict(SMALL_SPEC, name="a/b")),
        "name must be letters, digits, '.', '_' and '-' with no leading '.', not 'a/b'",
    ),
    "name-with-a-comma": (
        json.dumps(dict(SMALL_SPEC, name="a,b")),
        "name must be letters, digits, '.', '_' and '-' with no leading '.', not 'a,b'",
    ),
    "name-with-a-leading-dot": (
        json.dumps(dict(SMALL_SPEC, name="..")),
        "name must be letters, digits, '.', '_' and '-' with no leading '.', not '..'",
    ),
    "folds-exceed-training-rows": (
        json.dumps(dict(SMALL_SPEC, folds=500)), "folds=500 exceeds the 27 training rows",
    ),
    "repeated-ridge": (
        json.dumps(dict(SMALL_SPEC, rbfn={"ridges": [1e-6, 1e-6, 1e-3]})),
        "rbfn.ridges repeats the value 1e-06",
    ),
    "seed-not-a-number": (
        json.dumps(dict(SMALL_SPEC, seed="x")),
        "seed must be a non-negative integer, not 'x'",
    ),
    "seed-negative": (
        json.dumps(dict(SMALL_SPEC, seed=-1)),
        "seed must be a non-negative integer, not -1",
    ),
    "max-centers-not-a-number": (
        json.dumps(dict(SMALL_SPEC, rbfn={"max_centers": "x"})),
        "rbfn.max_centers must be a positive integer, not 'x'",
    ),
    "restarts-not-a-number": (
        json.dumps(dict(SMALL_SPEC, mlp={"restarts": "x"})),
        "mlp.restarts must be a positive integer, not 'x'",
    ),
    "cv-restarts-zero": (
        json.dumps(dict(SMALL_SPEC, mlp={"cv_restarts": 0})),
        "mlp.cv_restarts must be a positive integer, not 0",
    ),
    "max-iter-fraction": (
        json.dumps(dict(SMALL_SPEC, mlp={"max_iter": 2.5})),
        "mlp.max_iter must be a positive integer, not 2.5",
    ),
    "cv-max-iter-zero": (
        json.dumps(dict(SMALL_SPEC, mlp={"cv_max_iter": 0})),
        "mlp.cv_max_iter must be a positive integer, not 0",
    ),
    # model grids: each value is checked before any training sees it
    "width-multiplier-zero": (
        json.dumps(dict(SMALL_SPEC, rbfn={"width_multipliers": [1.0, 0.0]})),
        "rbfn.width_multipliers must hold positive finite numbers, not 0.0",
    ),
    "ridges-empty": (
        json.dumps(dict(SMALL_SPEC, rbfn={"ridges": []})),
        "rbfn.ridges must be a non-empty list, not ()",
    ),
    "hidden-grid-not-a-number": (
        json.dumps(dict(SMALL_SPEC, mlp={"hidden_grid": ["x"]})),
        "mlp.hidden_grid must hold positive integers, not 'x'",
    ),
    "decay-grid-negative": (
        json.dumps(dict(SMALL_SPEC, mlp={"decay_grid": [-1.0]})),
        "mlp.decay_grid must hold non-negative finite numbers, not -1.0",
    ),
    # grids the row does not use are checked too
    "k-grid-scalar": (
        json.dumps(dict(SMALL_SPEC, impute={"k_grid": 5})),
        "impute.k_grid must be a non-empty list, not 5",
    ),
    "component-grid-scalar": (
        json.dumps(dict(SMALL_SPEC, pca={"component_grid": 7})),
        "pca.component_grid must be a non-empty list, not 7",
    ),
    "k-grid-zero": (
        json.dumps(dict(SMALL_SPEC, impute={"k_grid": [4, 0, -1]})),
        "impute.k_grid must hold positive integers, not 0",
    ),
    "component-grid-fraction": (
        json.dumps(dict(SMALL_SPEC, pca={"component_grid": [3, 2.5, "x"]})),
        "pca.component_grid must hold positive integers, not 2.5",
    ),
}
#: The one bad spec that only the data can reveal: it fails as its row runs.
RUNTIME_SPEC_ERRORS = {"folds-exceed-training-rows"}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_is_a_named_error(case, pairs_file, tmp_path, capsys):
    text, fragment = BAD_SPECS[case]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    rc = cli.main([
        "experiment", "--spec", str(spec_file),
        "--data", str(pairs_file), "--format", "generic-pairs",
        "--test-size", "9", "--out", str(tmp_path / "out"),
    ])
    _assert_named_error(rc, capsys.readouterr().err, fragment)
    # the spec is checked before any row runs or writes a file
    assert (tmp_path / "out").exists() == (case in RUNTIME_SPEC_ERRORS)


@pytest.mark.parametrize("argv, fragment", [
    (["suite", "--table", "table1", "--test-size", "500"], "test_size"),
    (["suite", "--table", "table1", "--drop-fraction", "1.5"], "fraction"),
    (["suite", "--table", "table1", "--drop-fraction", "-0.2"], "fraction"),
    (["make-holes", "--drop-fraction", "-0.2"], "fraction"),
], ids=["suite-test-size", "suite-drop-fraction", "suite-negative-drop-fraction",
        "make-holes-drop-fraction"])
def test_bad_argument_is_a_named_error(argv, fragment, pairs_file, tmp_path, capsys):
    rc = cli.main([
        *argv, "--data", str(pairs_file), "--format", "generic-pairs",
        "--out", str(tmp_path / "out"),
    ])
    _assert_named_error(rc, capsys.readouterr().err, fragment)


def test_domain_row_alone_is_a_named_error(tmp_path, capsys):
    data = tmp_path / "domain-only.pairs"
    data.write_text("domain 0 1\n")
    out = tmp_path / "out"
    rc = cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                   "--dimension", "5", "--out", str(out)])
    _assert_named_error(rc, capsys.readouterr().err, "domain-only.pairs", "no function rows")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_dimension_is_a_usage_error(value, pairs_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([
            "represent", "--data", str(pairs_file), "--format", "generic-pairs",
            "--dimension", value, "--out", str(tmp_path / "out"),
        ])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --dimension" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_bad_order_is_a_usage_error(value, pairs_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([
            "represent", "--data", str(pairs_file), "--format", "generic-pairs",
            "--order", value, "--out", str(tmp_path / "out"),
        ])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --order: expected a positive integer, got '{value}'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def _curves_file(path, sizes, ends=False):
    """A generic-pairs file of noisy sine curves with ``sizes`` samples, at
    the midpoints of equal cells of the domain (a periodic basis would see
    samples at both ends as one), or evenly spaced from end to end if
    ``ends``."""
    rng = np.random.default_rng(4)
    lines = ["domain 0 1"]
    for size in sizes:
        x = np.linspace(0.0, 1.0, size) if ends else (np.arange(size) + 0.5) / size
        y = np.sin(2 * np.pi * x) + 0.1 * rng.normal(size=size)
        lines.append("1.0 " + " ".join(f"{a:.6f} {b:.6f}" for a, b in zip(x, y)))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_curves_too_short_for_basis_selection_are_named(tmp_path, capsys):
    data = tmp_path / "short.pairs"
    data.write_text("domain 0 1\n1.0 0 1 0.5 2 1 3\n2.0 0 1 1 2\n")
    rc = cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                   "--dimension", "loo", "--out", str(tmp_path / "out")])
    _assert_named_error(rc, capsys.readouterr().err,
                        "function 1 has 2 samples, too few to select a basis size: "
                        "order-4 B-splines need at least 9 in every curve")


@pytest.mark.parametrize("dimension", ["loo", "9"])
def test_failed_represent_leaves_no_output_directory(dimension, tmp_path, capsys):
    data = tmp_path / "short.pairs"
    data.write_text("domain 0 1\n1.0 0 1 0.5 2 1 3\n2.0 0 1 1 2\n")
    out = tmp_path / "out"
    rc = cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                   "--dimension", dimension, "--out", str(out)])
    _assert_named_error(rc, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("basis, sizes", [("bspline", (10, 12)), ("fourier", (7, 12))])
def test_shortest_selectable_curves_get_a_scored_size(basis, sizes, tmp_path):
    # the interpolating size q = m, which leave-one-out cannot score, is not
    # offered: every size offered is scored, none skipped
    data = _curves_file(tmp_path / "short.pairs", sizes)
    out = tmp_path / "out"
    rc = cli.main(["represent", "--data", str(data), "--format", "generic-pairs",
                   "--basis", basis, "--dimension", "loo", "--out", str(out)])
    assert rc == 0
    report = (out / "loo_report.csv").read_text().splitlines()
    assert report[0] == "dimension,total_loo" and len(report) == 2
    assert "skipped" not in report[1]


def test_fourier_sees_samples_at_both_ends_as_one(tmp_path, capsys):
    # a 6-sample curve from end to end holds 5 distinct points of the
    # period, too few for size 5; a 7-sample curve gets size 5, scored
    argv = ["represent", "--format", "generic-pairs", "--basis", "fourier",
            "--dimension", "loo", "--out", str(tmp_path / "out")]
    data = _curves_file(tmp_path / "ends.pairs", (6, 12), ends=True)
    rc = cli.main(argv + ["--data", str(data)])
    _assert_named_error(rc, capsys.readouterr().err,
                        "function 0 has 6 samples, too few to select a basis size: a Fourier "
                        "basis needs at least 6 in every curve, counting samples at both ends "
                        "as one")
    assert not (tmp_path / "out").exists()
    data = _curves_file(tmp_path / "ends.pairs", (7, 12), ends=True)
    assert cli.main(argv + ["--data", str(data)]) == 0
    report = (tmp_path / "out" / "loo_report.csv").read_text().splitlines()
    assert report[1].startswith("5,") and "skipped" not in report[1] and len(report) == 2


def test_non_finite_target_is_a_named_error(pairs_file, tmp_path, capsys):
    # a nan target would give a row of nan scores, which is not JSON
    lines = pairs_file.read_text().splitlines()
    first = lines[1].split(" ", 1)
    lines[1] = f"nan {first[1]}"
    data = tmp_path / "nan-target.pairs"
    data.write_text("\n".join(lines) + "\n")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SMALL_SPEC))
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--spec", str(spec_file), "--data", str(data),
                   "--format", "generic-pairs", "--test-size", "9", "--out", str(out)])
    _assert_named_error(rc, capsys.readouterr().err, "function 0 has a non-finite target nan")
    assert not list(tmp_path.glob("out/row_*.json"))


def test_seed_flag_overrides_the_spec_seed(pairs_file, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SMALL_SPEC))
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--spec", str(spec_file), "--data", str(pairs_file),
                   "--format", "generic-pairs", "--test-size", "9", "--seed", "11",
                   "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "row_cli-rbfn.json").read_text())["seed"] == 11
    [spec] = json.loads((out / "manifest.json").read_text())["specs"]
    assert ExperimentSpec.from_dict(spec) == ExperimentSpec.from_dict(dict(SMALL_SPEC, seed=11))


@pytest.mark.parametrize("argv, flag", [
    (["make-holes", "--seed", "-1"], "--seed"),
    (["suite", "--table", "table1", "--seed", "-1"], "--seed"),
    (["experiment", "--spec", "spec.json", "--seed", "-1"], "--seed"),
    (["represent", "--emit-curves", "--curve-functions", "-1"], "--curve-functions"),
], ids=["make-holes-seed", "suite-seed", "experiment-seed", "represent-curve-functions"])
def test_negative_count_is_a_usage_error(argv, flag, pairs_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([
            *argv, "--data", str(pairs_file), "--format", "generic-pairs",
            "--out", str(tmp_path / "out"),
        ])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()

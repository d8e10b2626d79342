import json

import numpy as np
import pytest

from conftest import synthetic_dataset
from fdareg import cli, fdata, suites
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
        assert np.isfinite(row["test_rmse"]) and "error" not in row
    failed = json.loads((out / "row_broken.json").read_text())
    assert failed["error"] == {
        "type": "ConfigError", "message": "no grid cell was scored in every fold"
    }
    assert "test_rmse" not in failed
    report = (out / "report.txt").read_text().splitlines()
    [line] = [text for text in report if text.startswith("broken")]
    assert "failed" in line and "ConfigError: no grid cell" in line
    assert sum(text.startswith(("first", "third")) for text in report) == 2
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 4
    assert results[2].startswith("broken,failed: ConfigError")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == list(names)


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
    assert rc == 1


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
                        pca={"kind": "classical", "standardize": True, "n_components": 3})),
        "unknown key 'standardize' in spec section 'pca'",
    ),
    "removed-mean-model": (json.dumps(dict(SMALL_SPEC, model="mean")), "unknown model 'mean'"),
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
    "n-components-not-a-number": (
        json.dumps(dict(SMALL_SPEC, representation={"kind": "raw"},
                        pca={"kind": "classical", "n_components": "x"})),
        "pca.n_components must be 'cv' or a positive integer, not 'x'",
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
}


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


@pytest.mark.parametrize("argv, fragment", [
    (["suite", "--table", "table1", "--test-size", "500"], "test_size"),
    (["suite", "--table", "table1", "--drop-fraction", "1.5"], "fraction"),
    (["make-holes", "--drop-fraction", "-0.2"], "fraction"),
], ids=["suite-test-size", "suite-drop-fraction", "make-holes-drop-fraction"])
def test_bad_argument_is_a_named_error(argv, fragment, pairs_file, tmp_path, capsys):
    rc = cli.main([
        *argv, "--data", str(pairs_file), "--format", "generic-pairs",
        "--out", str(tmp_path / "out"),
    ])
    _assert_named_error(rc, capsys.readouterr().err, fragment)


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

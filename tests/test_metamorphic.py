"""Metamorphic relations of ``run_experiment``.

Each relation changes the input in a way that must leave the report equal,
or scale it exactly, and compares the reports bit for bit (floats by
``float.hex``):

- *test set*: a test set of training curves with targets drawn uniformly
  from [-1e3, 1e3] leaves everything but the test RMSE equal, so neither the
  selection nor the refit reads the test set;
- *curve ids*: relabelling every curve leaves the whole report equal;
- *wavelength axis*: multiplying every abscissa and the domain by 4 or by
  1/4 leaves the whole report equal; a power of two scales the knots, the
  Gram factor and the coordinates exactly;
- *targets*: doubling them keeps an RBFN row's selection and gives exactly
  2x its test RMSE and 4x its CV score. The MLP can keep its selection but
  not its bits, because its initialization scale is fixed and its training
  is nonlinear, so this relation is asserted on the RBFN rows alone.

The rows are small: 40 generated curves of 30 points on [850, 1050] nm, the
last 10 held out, cut grids, and 10 % holes on the holed rows.
"""

import functools

import numpy as np
import pytest

from conftest import synthetic_dataset
from fdareg import fdata
from fdareg.selection import (
    ExperimentSpec,
    ImputeSpec,
    MlpSettings,
    PcaSpec,
    RbfnSettings,
    RepresentationSpec,
    TransformSpec,
    run_experiment,
)

RBFN = RbfnSettings(width_multipliers=(0.5, 2.0), ridges=(1e-3,), max_centers=12)

#: name -> (spec, holed)
ROWS = {
    "bspline-deriv1-rbfn": (ExperimentSpec(
        "bspline-deriv1-rbfn", "rbfn", RepresentationSpec("bspline", order=5),
        transform=TransformSpec("deriv1"), rbfn=RBFN, seed=3), False),
    "holed-bspline-rbfn": (ExperimentSpec(
        "holed-bspline-rbfn", "rbfn", RepresentationSpec("bspline", order=4),
        rbfn=RBFN, seed=3), True),
    "pca-rbfn": (ExperimentSpec(
        "pca-rbfn", "rbfn", RepresentationSpec("raw"),
        pca=PcaSpec("classical", component_grid=(2, 4)), rbfn=RBFN, seed=3), False),
    "knn-mlp": (ExperimentSpec(
        "knn-mlp", "mlp", RepresentationSpec("raw"),
        pca=PcaSpec("classical", component_grid=(2, 4), whiten=True),
        impute=ImputeSpec("knn", k_grid=(1, 2)),
        mlp=MlpSettings(hidden_grid=(1,), decay_grid=(1e-3,), restarts=3, cv_restarts=2,
                        max_iter=40, cv_max_iter=20), seed=3), True),
}
RBFN_ROWS = [name for name, (spec, _) in ROWS.items() if spec.model == "rbfn"]
FIELDS = ("selected", "test_rmse", "cv_score", "notes", "info")


def _data(holed: bool):
    ds = synthetic_dataset(np.random.default_rng(3), n=40, m=30, domain=(850.0, 1050.0))
    if holed:
        ds = fdata.make_holes(ds, 0.1, seed=3)
    return fdata.split(ds, 10, shuffle=False)


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _fields(report, fields=FIELDS) -> dict:
    return {field: _exact(getattr(report, field)) for field in fields}


def _map(ds: fdata.Dataset, function=lambda f: f, targets=None, domain=None):
    """``ds`` with every curve mapped, and the targets or domain replaced."""
    return fdata.Dataset([function(f) for f in ds.functions],
                         ds.targets if targets is None else targets,
                         ds.domain if domain is None else domain)


@functools.cache
def _report(name: str):
    """The row's report on the unchanged data, computed once."""
    spec, holed = ROWS[name]
    return run_experiment(spec, *_data(holed))


@pytest.mark.parametrize("name", ROWS)
def test_test_set_is_read_by_neither_the_selection_nor_the_refit(name):
    spec, holed = ROWS[name]
    train, test = _data(holed)
    targets = np.random.default_rng(11).uniform(-1e3, 1e3, len(test))
    other = fdata.Dataset(train.functions[:len(test)], targets, train.domain)
    fields = ("selected", "cv_score", "notes", "info")
    assert _fields(run_experiment(spec, train, other), fields) == _fields(_report(name), fields)


@pytest.mark.parametrize("name", ROWS)
def test_relabelled_curve_ids_leave_the_report_equal(name):
    spec, holed = ROWS[name]

    def relabel(f):  # reverses the order of the ids
        return fdata.SampledFunction(f.x, f.y, id=10**6 - 7 * f.id)

    train, test = (_map(ds, relabel) for ds in _data(holed))
    assert _fields(run_experiment(spec, train, test)) == _fields(_report(name))


@pytest.mark.parametrize("scale", [4.0, 0.25])
@pytest.mark.parametrize("name", ROWS)
def test_scaled_wavelength_axis_leaves_the_report_equal(name, scale):
    spec, holed = ROWS[name]

    def stretch(f):
        return fdata.SampledFunction(f.x * scale, f.y, id=f.id)

    train, test = (_map(ds, stretch, domain=tuple(scale * v for v in ds.domain))
                   for ds in _data(holed))
    assert _fields(run_experiment(spec, train, test)) == _fields(_report(name))


@pytest.mark.parametrize("name", RBFN_ROWS)
def test_doubled_targets_scale_the_rbfn_errors_exactly(name):
    spec, holed = ROWS[name]
    train, test = (_map(ds, targets=2.0 * ds.targets) for ds in _data(holed))
    doubled, report = run_experiment(spec, train, test), _report(name)
    assert doubled.selected == report.selected
    assert doubled.test_rmse.hex() == (2.0 * report.test_rmse).hex()
    assert doubled.cv_score.hex() == (4.0 * report.cv_score).hex()

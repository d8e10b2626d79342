"""Benchmark workloads: fixed suite rows on Tecator-shaped synthetic data.

Each workload is a list of ``ExperimentSpec`` rows from ``fdareg.suites``,
run on the generated spectra, complete or with 10 % holes. Rows that are
too slow to repeat several times within one benchmark run have their grids
cut; the cut is written next to the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from fdareg import fdata, suites
from fdareg.cv import derive_seed
from fdareg.selection import ExperimentReport, ExperimentSpec

import tecator_synth

TEST_SIZE = 43  # fixed-order split: 172 train, 43 test
HOLE_FRACTION = 0.1


def _row(table: str, seed: int, name: str) -> ExperimentSpec:
    return next(spec for spec in suites.SUITE_BUILDERS[table](seed=seed) if spec.name == name)


def _bspline_rows(seed: int) -> list[ExperimentSpec]:
    # exp09 alone of table1's B-spline rows (exp05, exp08, exp09, exp10):
    # the others run the same layers
    return [_row("table1", seed, "table1-exp09-deriv1")]


def _pca_rows(seed: int) -> list[ExperimentSpec]:
    spec = _row("table1", seed, "table1-exp03-pca-cv")
    # 2 of the 20 PCA sizes; the RBFN grid and the folds are as shipped
    return [replace(spec, pca=replace(spec.pca, component_grid=(5, 10)))]


def _holed_bspline_rows(seed: int) -> list[ExperimentSpec]:
    # exp09 without exp10-deriv2-missing, which runs the same layers
    return [_row("table3", seed, "table3-exp09-deriv1-missing")]


def _knn_mlp_rows(seed: int) -> list[ExperimentSpec]:
    spec = _row("table4", seed, "table4-exp2-knn-impute")
    # one MLP cell and 2 of the 18 PCA sizes; the k grid, the 8 CV restarts
    # and the 60-restart final refit are as shipped
    return [replace(
        spec,
        pca=replace(spec.pca, component_grid=(6, 12)),
        mlp=replace(spec.mlp, hidden_grid=(1,), decay_grid=(1e-3,)),
    )]


@dataclass(frozen=True)
class Workload:
    name: str
    holed: bool
    rows: Callable[[int], list[ExperimentSpec]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectra-bspline-rbfn", False, _bspline_rows),
        Workload("spectra-pca-rbfn", False, _pca_rows),
        Workload("holed-bspline-rbfn", True, _holed_bspline_rows),
        Workload("holed-knn-mlp", True, _knn_mlp_rows),
    )
}


def prepare(workload: Workload, seed: int):
    """Generate the data and the rows: ``(train, test, specs)``.

    Holes and split follow the ``fdareg suite`` command: holes seeded by
    ``derive_seed(seed, "holes")``, then a fixed-order split.
    """
    dataset = tecator_synth.generate(seed)
    if workload.holed:
        dataset = fdata.make_holes(dataset, HOLE_FRACTION, derive_seed(seed, "holes"))
    train, test = fdata.split(dataset, TEST_SIZE, shuffle=False)
    return train, test, workload.rows(seed)


def _grid_of(spec: ExperimentSpec, key: str):
    """Allowed values of a selected hyperparameter, or None if unbounded."""
    if key == "impute_k":
        return spec.impute.grid()
    if key == "n_components":
        return spec.pca.grid(spec.model)
    if key == "width_multiplier":
        return spec.rbfn.width_multipliers
    if key == "ridge":
        return spec.rbfn.ridges
    if key == "n_centers":
        return range(1, spec.rbfn.max_centers + 1)
    if key == "hidden":
        return spec.mlp.hidden_grid
    if key == "decay":
        return spec.mlp.decay_grid
    return None


def check_report(spec: ExperimentSpec, report: ExperimentReport) -> list[str]:
    """Reasons a row's output is invalid; empty when it is valid."""
    problems = []
    for label, value in (("test RMSE", report.test_rmse), ("CV score", report.cv_score)):
        if not math.isfinite(value):
            problems.append(f"{label} is {value}")
    for key, value in sorted(report.selected.items()):
        grid = _grid_of(spec, key)
        if grid is None:
            problems.append(f"unexpected selected key {key}")
        elif value not in grid:
            problems.append(f"selected {key}={value} is outside its grid")
    return problems


def outcome(report: ExperimentReport) -> dict:
    """The part of a report that the reference pins down."""
    return {"selected": dict(sorted(report.selected.items())), "test_rmse": report.test_rmse}


#: Relative tolerance on the test RMSE against the committed reference;
#: selected hyperparameters must match exactly.
RMSE_RTOL = 1e-9


def matches(reference: dict, observed: dict) -> bool:
    return reference["selected"] == observed["selected"] and math.isclose(
        reference["test_rmse"], observed["test_rmse"], rel_tol=RMSE_RTOL, abs_tol=0.0
    )

"""The traced functions of each fdareg layer, and the per-layer metric names.

A layer is one module of the program. Every target below is a public
function or method the pipeline calls through a module or class attribute,
so patching that attribute reaches every call. ``WITH_CHILDREN`` lists the
targets that can call another target; they also report ``total_s``.
"""

from __future__ import annotations

import inspect

from fdareg import basis, fpca, imputation, mlp, rbfn, represent, selection, transforms

from tracer import Target

LAYERS = ("basis", "represent", "transforms", "fpca", "imputation", "rbfn", "mlp", "selection")


def _arg(fn, name):
    """Reader of argument ``name`` from a call's ``(args, kwargs)``."""
    signature = inspect.signature(fn)

    def read(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


_train_ols_max = _arg(rbfn.train_ols, "max_centers")
_train_restarts = _arg(mlp.train, "restarts")


def _points(args, kwargs, design):
    """Abscissas evaluated: rows of the design matrix, 1 for a scalar."""
    return {"basis.evaluate.points": design.shape[0] if design.ndim == 2 else 1}


def targets() -> list[Target]:
    return [
        Target("basis.evaluate", basis.BSplineBasis, "evaluate", _points),
        Target("basis.evaluate", basis.FourierBasis, "evaluate", _points),
        Target("basis.gram_factor", basis._BasisBase, "gram_factor"),
        Target("represent.select_basis_size", represent, "select_basis_size",
               lambda a, k, r: {"represent.select_basis_size.candidates_skipped": len(r.skipped)}),
        Target("represent.loo_score", represent, "loo_score"),
        Target("represent.fit", represent, "fit"),
        Target("transforms.transform_dataset", transforms, "transform_dataset"),
        Target("fpca.fit_fpca", fpca, "fit_fpca"),
        Target("fpca.scores", fpca, "scores"),
        Target("fpca.Standardizer.transform", fpca.Standardizer, "transform"),
        Target("imputation.KnnImputer.transform", imputation.KnnImputer, "transform",
               lambda a, k, r: {"imputation.KnnImputer.transform.rows": r.shape[0]}),
        Target("rbfn.train_ols", rbfn, "train_ols",
               lambda a, k, r: {"rbfn.train_ols.centers": r.max_size,
                                "rbfn.train_ols.requested": _train_ols_max(a, k)}),
        Target("rbfn.RbfnPath.predictions", rbfn.RbfnPath, "predictions"),
        Target("mlp.train", mlp, "train",
               lambda a, k, r: {"mlp.train.restarts": _train_restarts(a, k)}),
        Target("mlp.forward", mlp, "forward"),
        Target("selection.run_experiment", selection, "run_experiment",
               lambda a, k, r: {"selection.notes": len(r.notes)}),
    ]


FUNCTIONS = tuple(dict.fromkeys(t.name for t in targets()))
WITH_CHILDREN = (
    "basis.gram_factor",  # evaluates the basis at quadrature nodes on a cache miss
    "represent.select_basis_size",
    "represent.loo_score",
    "represent.fit",
    "transforms.transform_dataset",  # derivative bases get their own Gram factor
    "selection.run_experiment",
)

#: Library warnings counted around each row, by (category name, message
#: fragment); the first match names the counter.
WARNING_KINDS = (
    ("rbfn.early_stop_warnings", "UserWarning", "forward selection stopped early"),
    ("imputation.short_donor_warnings", "UserWarning", "donors observe coordinate"),
    ("mlp.diverged_warnings", "UserWarning", "diverged and were discarded"),
    ("rbfn.invalid_value_warnings", "RuntimeWarning", "invalid value encountered"),
)
OTHER_WARNINGS = "selection.other_warnings"


def classify_warning(message) -> str:
    """Counter name for one ``warnings.WarningMessage``."""
    category = message.category.__name__
    text = str(message.message)
    for name, kind, fragment in WARNING_KINDS:
        if category == kind and fragment in text:
            if kind == "RuntimeWarning" and not message.filename.endswith("rbfn.py"):
                continue
            return name
    return OTHER_WARNINGS


#: Per-pass counters the traced run reports besides calls and times.
COUNTERS = (
    "basis.evaluate.points",
    "represent.select_basis_size.candidates_skipped",
    "imputation.KnnImputer.transform.rows",
    "rbfn.train_ols.centers",
    "mlp.train.restarts",
    "selection.notes",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in WITH_CHILDREN:
            units[f"{name}.total_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share_pct"] = "%"
    for name in COUNTERS + tuple(kind[0] for kind in WARNING_KINDS) + (OTHER_WARNINGS,):
        units[name] = "count"
    units["rbfn.train_ols.fill_ratio"] = "ratio"
    units["selection.reference_checked"] = "count"
    units["selection.reference_mismatches"] = "count"
    units["error_rate"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units

"""Benchmark suite definitions: the spectrometric experiment matrix.

``SUITE_BUILDERS[table](seed=s)`` returns the experiment rows of one results
table, in table order, each with the run's seed ``s``; the rows themselves
are written once, seedless, in ``_TABLES``. Tables 1-2 run on the complete
spectra; the ``HOLED_TABLES`` expect a dataset with randomly punched holes
(the CLI applies the hole fraction before splitting). Grids follow the
toolkit defaults: a PCA row without a ``component_grid`` lets CV choose
among 1-20 components (1-18 for the MLP), and a fixed size such as table
1's 20 is a one-entry grid. The MLP rows trim the hidden grid and per-cell
restart count to keep a full suite run in the minutes-to-an-hour range
(final refits always use the full 60 restarts).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .selection import (
    ExperimentSpec,
    ImputeSpec,
    MlpSettings,
    PcaSpec,
    RepresentationSpec,
    TransformSpec,
)

_RAW = RepresentationSpec("raw")
_B4, _B5, _B6 = (RepresentationSpec("bspline", order, "loo") for order in (4, 5, 6))
_CR, _D1, _D2 = (TransformSpec(kind) for kind in ("center-reduce", "deriv1", "deriv2"))
_PCA_W = PcaSpec("classical", whiten=True)
_FPCA_W = PcaSpec("functional", whiten=True)
_MLP_T2 = MlpSettings(hidden_grid=(1, 2, 3, 4), cv_restarts=10)
_MLP_T45 = MlpSettings(hidden_grid=(1, 2, 3), cv_restarts=8)
_E = ExperimentSpec

_TABLES = {
    # RBFN rows on complete spectra (experiments 1-10)
    "table1": (
        _E("table1-exp01-raw", "rbfn", _RAW),
        _E("table1-exp02-pca20", "rbfn", _RAW, pca=PcaSpec("classical", (20,))),
        _E("table1-exp03-pca-cv", "rbfn", _RAW, pca=PcaSpec("classical")),
        _E("table1-exp04-pca-cv-whiten", "rbfn", _RAW, pca=_PCA_W),
        _E("table1-exp05-bspline4", "rbfn", _B4),
        _E("table1-exp06-fpca20", "rbfn", _B4, pca=PcaSpec("functional", (20,))),
        _E("table1-exp07-fpca-cv-whiten", "rbfn", _B4, pca=_FPCA_W),
        _E("table1-exp08-center-reduce", "rbfn", _B4, transform=_CR),
        _E("table1-exp09-deriv1", "rbfn", _B5, transform=_D1),
        _E("table1-exp10-deriv2", "rbfn", _B6, transform=_D2),
    ),
    # MLP rows on complete spectra (experiments 1-5); PCA always whitened
    "table2": (
        _E("table2-exp1-pca", "mlp", _RAW, pca=_PCA_W, mlp=_MLP_T2),
        _E("table2-exp2-fpca", "mlp", _B4, pca=_FPCA_W, mlp=_MLP_T2),
        _E("table2-exp3-center-reduce-fpca", "mlp", _B4, transform=_CR, pca=_FPCA_W,
           mlp=_MLP_T2),
        _E("table2-exp4-deriv1-fpca", "mlp", _B5, transform=_D1, pca=_FPCA_W, mlp=_MLP_T2),
        _E("table2-exp5-deriv2-fpca", "mlp", _B6, transform=_D2, pca=_FPCA_W, mlp=_MLP_T2),
    ),
    # RBFN derivative rows rerun on the holed spectra (rows 9-10)
    "table3": (
        _E("table3-exp09-deriv1-missing", "rbfn", _B5, transform=_D1),
        _E("table3-exp10-deriv2-missing", "rbfn", _B6, transform=_D2),
    ),
    # MLP functional rows rerun on the holed spectra (rows 2-3)
    "table3-mlp": (
        _E("table3-mlp-exp2-fpca-missing", "mlp", _B4, pca=_FPCA_W, mlp=_MLP_T2),
        _E("table3-mlp-exp3-center-reduce-fpca-missing", "mlp", _B4, transform=_CR,
           pca=_FPCA_W, mlp=_MLP_T2),
    ),
    # classical imputation + PCA + MLP on the holed spectra
    "table4": (
        _E("table4-exp1-mean-impute", "mlp", _RAW, pca=_PCA_W, impute=ImputeSpec("mean"),
           mlp=_MLP_T45),
        _E("table4-exp2-knn-impute", "mlp", _RAW, pca=_PCA_W, impute=ImputeSpec("knn"),
           mlp=_MLP_T45),
    ),
    # expert-scaled imputation + PCA + MLP on the holed spectra
    "table5": (
        _E("table5-exp1-expert-mean-impute", "mlp", _RAW, pca=_PCA_W,
           impute=ImputeSpec("mean", expert_scale=True), mlp=_MLP_T45),
        _E("table5-exp2-expert-knn-impute", "mlp", _RAW, pca=_PCA_W,
           impute=ImputeSpec("knn", expert_scale=True), mlp=_MLP_T45),
    ),
}


def _seeded(rows: tuple[ExperimentSpec, ...], seed: int = 0) -> list[ExperimentSpec]:
    """The rows of one table, each with the run's ``seed``."""
    return [replace(spec, seed=seed) for spec in rows]


SUITE_BUILDERS = {table: partial(_seeded, rows) for table, rows in _TABLES.items()}

#: Tables that run on the holed benchmark (the CLI punches holes first).
HOLED_TABLES = ("table3", "table3-mlp", "table4", "table5")

"""Benchmark suite definitions: the spectrometric experiment matrix.

Each builder returns the experiment rows of one results table, in table
order. Tables 1-2 run on the complete spectra; tables 3-5 expect a dataset
with randomly punched holes (the CLI applies the hole fraction before
splitting). Grids follow the toolkit defaults; the MLP rows trim the hidden
grid and per-cell restart count to keep a full suite run in the
minutes-to-an-hour range (final refits always use the full 60 restarts).
"""

from __future__ import annotations

from .selection import (
    ExperimentSpec,
    ImputeSpec,
    MlpSettings,
    PcaSpec,
    RepresentationSpec,
    TransformSpec,
)

RAW = RepresentationSpec(kind="raw")


def _bspline(order: int) -> RepresentationSpec:
    return RepresentationSpec(kind="bspline", order=order, dimension="loo")


_MLP_T2 = MlpSettings(hidden_grid=(1, 2, 3, 4), cv_restarts=10)
_MLP_T45 = MlpSettings(hidden_grid=(1, 2, 3), cv_restarts=8)


def table1_specs(seed: int = 0) -> list[ExperimentSpec]:
    """RBFN rows on complete spectra (experiments 1-10)."""
    rows = [
        ExperimentSpec("table1-exp01-raw", "rbfn", RAW, seed=seed),
        ExperimentSpec(
            "table1-exp02-pca20", "rbfn", RAW,
            pca=PcaSpec("classical", n_components=20),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp03-pca-cv", "rbfn", RAW,
            pca=PcaSpec("classical", n_components="cv"),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp04-pca-cv-whiten", "rbfn", RAW,
            pca=PcaSpec("classical", n_components="cv", whiten=True),
            seed=seed,
        ),
        ExperimentSpec("table1-exp05-bspline4", "rbfn", _bspline(4), seed=seed),
        ExperimentSpec(
            "table1-exp06-fpca20", "rbfn", _bspline(4),
            pca=PcaSpec("functional", n_components=20),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp07-fpca-cv-whiten", "rbfn", _bspline(4),
            pca=PcaSpec("functional", n_components="cv", whiten=True),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp08-center-reduce", "rbfn", _bspline(4),
            transform=TransformSpec("center-reduce"),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp09-deriv1", "rbfn", _bspline(5),
            transform=TransformSpec("deriv1"),
            seed=seed,
        ),
        ExperimentSpec(
            "table1-exp10-deriv2", "rbfn", _bspline(6),
            transform=TransformSpec("deriv2"),
            seed=seed,
        ),
    ]
    return rows


def table2_specs(seed: int = 0) -> list[ExperimentSpec]:
    """MLP rows on complete spectra (experiments 1-5); PCA always whitened."""
    pca_cv = dict(n_components="cv", whiten=True)
    return [
        ExperimentSpec(
            "table2-exp1-pca", "mlp", RAW,
            pca=PcaSpec("classical", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
        ExperimentSpec(
            "table2-exp2-fpca", "mlp", _bspline(4),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
        ExperimentSpec(
            "table2-exp3-center-reduce-fpca", "mlp", _bspline(4),
            transform=TransformSpec("center-reduce"),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
        ExperimentSpec(
            "table2-exp4-deriv1-fpca", "mlp", _bspline(5),
            transform=TransformSpec("deriv1"),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
        ExperimentSpec(
            "table2-exp5-deriv2-fpca", "mlp", _bspline(6),
            transform=TransformSpec("deriv2"),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
    ]


def table3_specs(seed: int = 0) -> list[ExperimentSpec]:
    """RBFN derivative rows rerun on the holed spectra (rows 9-10)."""
    return [
        ExperimentSpec(
            "table3-exp09-deriv1-missing", "rbfn", _bspline(5),
            transform=TransformSpec("deriv1"),
            seed=seed,
        ),
        ExperimentSpec(
            "table3-exp10-deriv2-missing", "rbfn", _bspline(6),
            transform=TransformSpec("deriv2"),
            seed=seed,
        ),
    ]


def table3_mlp_specs(seed: int = 0) -> list[ExperimentSpec]:
    """MLP functional rows rerun on the holed spectra (rows 2-3)."""
    pca_cv = dict(n_components="cv", whiten=True)
    return [
        ExperimentSpec(
            "table3-mlp-exp2-fpca-missing", "mlp", _bspline(4),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
        ExperimentSpec(
            "table3-mlp-exp3-center-reduce-fpca-missing", "mlp", _bspline(4),
            transform=TransformSpec("center-reduce"),
            pca=PcaSpec("functional", **pca_cv),
            mlp=_MLP_T2, seed=seed,
        ),
    ]


def table4_specs(seed: int = 0) -> list[ExperimentSpec]:
    """Classical imputation + PCA + MLP on the holed spectra."""
    pca_cv = dict(n_components="cv", whiten=True)
    return [
        ExperimentSpec(
            "table4-exp1-mean-impute", "mlp", RAW,
            pca=PcaSpec("classical", **pca_cv),
            impute=ImputeSpec("mean"),
            mlp=_MLP_T45, seed=seed,
        ),
        ExperimentSpec(
            "table4-exp2-knn-impute", "mlp", RAW,
            pca=PcaSpec("classical", **pca_cv),
            impute=ImputeSpec("knn"),
            mlp=_MLP_T45, seed=seed,
        ),
    ]


def table5_specs(seed: int = 0) -> list[ExperimentSpec]:
    """Expert-scaled imputation + PCA + MLP on the holed spectra."""
    pca_cv = dict(n_components="cv", whiten=True)
    return [
        ExperimentSpec(
            "table5-exp1-expert-mean-impute", "mlp", RAW,
            pca=PcaSpec("classical", **pca_cv),
            impute=ImputeSpec("mean", expert_scale=True),
            mlp=_MLP_T45, seed=seed,
        ),
        ExperimentSpec(
            "table5-exp2-expert-knn-impute", "mlp", RAW,
            pca=PcaSpec("classical", **pca_cv),
            impute=ImputeSpec("knn", expert_scale=True),
            mlp=_MLP_T45, seed=seed,
        ),
    ]


SUITE_BUILDERS = {
    "table1": table1_specs,
    "table2": table2_specs,
    "table3": table3_specs,
    "table3-mlp": table3_mlp_specs,
    "table4": table4_specs,
    "table5": table5_specs,
}

#: Tables that run on the holed benchmark (the CLI punches holes first).
HOLED_TABLES = ("table3", "table3-mlp", "table4", "table5")

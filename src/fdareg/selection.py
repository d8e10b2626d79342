"""Experiment harness: preprocessing chains, joint grids, k-fold selection.

An :class:`ExperimentSpec` encodes one benchmark row: how functions are
represented (raw grid, B-splines, Fourier), which functional transform and
PCA flavor apply, the imputation route for holed data, the model family and
its hyperparameter grids. :func:`run_experiment` cross-validates every grid
cell on the training set only, refits the winner, and evaluates once on the
test set, which stays sealed until that point.

It is the one cross-validation engine of the toolkit, and its rule is that
a cell must be scored in every fold. A cell can miss a fold when an RBFN
selection path stops before its center count or when a fold's preprocessing
fails; such a cell scores ``inf``, can never win, and is counted in one note
on the report.

Data-dependent preprocessing (imputation, column standardization, PCA and
whitening statistics) is refitted inside every fold, once per fold and
imputation k: the fold's training and validation rows are imputed and
standardized once, and every PCA size of the grid takes its scores from
those two matrices. Per-function steps
(basis projection, centering, derivatives, expert scaling) use no
cross-sample information, so they are computed once up front, on whole
coefficient or value matrices: one basis evaluation per dataset, on the
union of its sampling abscissas, and one pivoted QR per distinct sampling
grid give the ``(n, q)`` coefficient matrix, and each transform maps it to
another. Basis-size selection by leave-one-out never sees a target and is
also done once, on the training functions, with one basis evaluation per
candidate size and one QR per grid and candidate size.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fpca as fpca_mod
from . import imputation as imp_mod
from . import mlp as mlp_mod
from . import rbfn as rbfn_mod
from . import represent as rep_mod
from . import transforms as tr_mod
from .cv import derive_seed, make_folds, rmse
from .errors import ConfigError, FdaregError
from .fdata import Dataset

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "SealedTestSet",
    "IsolationError",
    "run_experiment",
]


class IsolationError(FdaregError):
    """The sealed test set was touched before final evaluation."""


class SealedTestSet:
    """Holds the test data inaccessible until final evaluation."""

    __slots__ = ("_payload", "_unlocked", "peek_attempts")

    def __init__(self, payload):
        self._payload = payload
        self._unlocked = False
        self.peek_attempts = 0

    @property
    def unlocked(self) -> bool:
        return self._unlocked

    def peek(self):
        if not self._unlocked:
            self.peek_attempts += 1
            raise IsolationError("test set accessed before final evaluation")
        return self._payload

    def unlock(self):
        self._unlocked = True
        return self._payload


@dataclass(frozen=True)
class RepresentationSpec:
    kind: str = "raw"  # raw | bspline | fourier
    order: int = 4  # spline order (bspline only)
    dimension: int | str = "loo"  # basis size, or "loo" to select it

    def validate(self):
        if self.kind not in ("raw", "bspline", "fourier"):
            raise ConfigError(f"unknown representation kind {self.kind!r}")
        if self.kind == "bspline" and self.order < 1:
            raise ConfigError("spline order must be >= 1")


@dataclass(frozen=True)
class TransformSpec:
    kind: str = "none"  # none | center-reduce | deriv1 | deriv2

    @property
    def deriv_order(self) -> int:
        return int(self.kind[len("deriv"):]) if self.kind.startswith("deriv") else 0

    def validate(self, representation: RepresentationSpec):
        if self.kind not in ("none", "center-reduce", "deriv1", "deriv2"):
            raise ConfigError(f"unknown transform {self.kind!r}")
        if self.kind == "none":
            return
        if representation.kind == "raw":
            raise ConfigError("functional transforms need a basis representation")
        if self.deriv_order and representation.kind == "bspline":
            if representation.order <= self.deriv_order:
                raise ConfigError(
                    f"deriv{self.deriv_order} needs spline order > {self.deriv_order}"
                )


@dataclass(frozen=True)
class PcaSpec:
    kind: str = "none"  # none | classical | functional
    standardize: bool = False  # z-score columns first (classical convention)
    n_components: int | str | None = None  # int, or "cv"
    component_grid: tuple[int, ...] | None = None  # grid when n_components == "cv"
    whiten: bool = False

    def validate(self, representation: RepresentationSpec, model: str):
        if self.kind not in ("none", "classical", "functional"):
            raise ConfigError(f"unknown pca kind {self.kind!r}")
        if self.kind == "none":
            return
        if self.kind == "functional" and representation.kind == "raw":
            raise ConfigError("functional PCA needs a basis representation")
        if self.kind == "classical" and representation.kind != "raw":
            raise ConfigError("classical PCA applies to raw grid vectors")
        if self.n_components is None:
            raise ConfigError("pca needs n_components (an integer or 'cv')")

    def grid(self, model: str) -> tuple[int, ...]:
        if self.n_components == "cv":
            if self.component_grid is not None:
                return tuple(self.component_grid)
            # MLP inputs are capped at 18 principal components
            return tuple(range(1, 19)) if model == "mlp" else tuple(range(1, 21))
        return (int(self.n_components),)


@dataclass(frozen=True)
class ImputeSpec:
    kind: str = "none"  # none | mean | knn
    k: int | str = "cv"  # neighbor count, or "cv"
    k_grid: tuple[int, ...] = (1, 2, 4, 8, 16)
    expert_scale: bool = False

    def validate(self, representation: RepresentationSpec):
        if self.kind not in ("none", "mean", "knn"):
            raise ConfigError(f"unknown imputation {self.kind!r}")
        if (self.kind != "none" or self.expert_scale) and representation.kind != "raw":
            raise ConfigError(
                "imputation and expert scaling are non-functional: they need "
                "the raw grid representation"
            )

    def grid(self) -> tuple[int, ...]:
        if self.kind != "knn":
            return (0,)  # single pass-through cell
        return tuple(self.k_grid) if self.k == "cv" else (int(self.k),)


@dataclass(frozen=True)
class RbfnSettings:
    width_multipliers: tuple[float, ...] = rbfn_mod.WIDTH_MULTIPLIERS
    ridges: tuple[float, ...] = rbfn_mod.RIDGE_GRID
    max_centers: int = rbfn_mod.MAX_CENTERS_CAP


@dataclass(frozen=True)
class MlpSettings:
    hidden_grid: tuple[int, ...] = mlp_mod.HIDDEN_GRID
    decay_grid: tuple[float, ...] = mlp_mod.DECAY_GRID
    restarts: int = 60  # final refit
    cv_restarts: int = 12  # per grid cell during cross-validation
    max_iter: int = mlp_mod.MAX_ITER  # final refit
    cv_max_iter: int = 150  # optimizer budget per CV cell


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark row: preprocessing chain, model family and grids."""

    name: str
    model: str  # rbfn | mlp | mean
    representation: RepresentationSpec = RepresentationSpec()
    transform: TransformSpec = TransformSpec()
    pca: PcaSpec = PcaSpec()
    impute: ImputeSpec = ImputeSpec()
    rbfn: RbfnSettings = RbfnSettings()
    mlp: MlpSettings = MlpSettings()
    folds: int = 4
    seed: int = 0

    def validate(self):
        if self.model not in ("rbfn", "mlp", "mean"):
            raise ConfigError(f"unknown model {self.model!r}")
        self.representation.validate()
        self.transform.validate(self.representation)
        self.pca.validate(self.representation, self.model)
        self.impute.validate(self.representation)
        if self.model == "mlp":
            if self.pca.kind == "none":
                raise ConfigError("the MLP pipeline requires a PCA stage")
            if not self.pca.whiten:
                raise ConfigError("MLP inputs must be whitened PCA scores")
        if self.folds < 2:
            raise ConfigError("cross-validation needs at least 2 folds")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        """Build a spec from :meth:`to_dict` output; unknown keys raise ConfigError."""
        def tup(value):
            return tuple(value) if isinstance(value, list) else value

        _check_keys("spec", raw, cls)
        kwargs = dict(raw)
        for key, sub in (
            ("representation", RepresentationSpec),
            ("transform", TransformSpec),
            ("pca", PcaSpec),
            ("impute", ImputeSpec),
            ("rbfn", RbfnSettings),
            ("mlp", MlpSettings),
        ):
            if key in kwargs and isinstance(kwargs[key], dict):
                _check_keys(f"spec section {key!r}", kwargs[key], sub)
                kwargs[key] = sub(**{k: tup(v) for k, v in kwargs[key].items()})
        return cls(**kwargs)


def _check_keys(where: str, raw: dict, cls) -> None:
    unknown = [key for key in raw if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


@dataclass
class ExperimentReport:
    """Outcome of one experiment row."""

    name: str
    model: str
    test_rmse: float
    cv_score: float
    selected: dict
    info: dict
    n_train: int
    n_test: int
    seed: int
    wall_time: float
    notes: tuple[str, ...] = ()

    def selected_as_text(self) -> str:
        return " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in sorted(self.selected.items()))


class _Stage1:
    """Fold-independent per-sample features for the training set, plus the
    recipe to compute the same features for new functions."""

    def __init__(self, spec: ExperimentSpec, train: Dataset):
        self.spec = spec
        self.info: dict = {}
        rep = spec.representation
        if rep.kind == "raw":
            self.basis = None
            if spec.impute.kind != "none" or spec.impute.expert_scale:
                # holed functions share no complete grid; the canonical grid
                # is the union of observed abscissas (holes only delete
                # points, they never move them)
                self.grid = np.unique(
                    np.concatenate([f.x for f in train.functions])
                )
                values, mask = imp_mod.masked_matrix_from_dataset(train, self.grid)
                if spec.impute.expert_scale:
                    values = imp_mod.expert_scale_matrix(values, mask)
                self.train_values, self.train_mask = values, mask
            else:
                self.grid = train.common_grid()
                self.train_values = train.matrix()
                self.train_mask = None
        else:
            if rep.dimension == "loo":
                sel = rep_mod.select_basis_size(
                    train.functions, train.domain, rep.kind, rep.order
                )
                dimension = sel.dimension
                self.info["loo_scores"] = {int(k): float(v) for k, v in sel.scores.items()}
            else:
                dimension = int(rep.dimension)
            self.basis = rep_mod.make_basis(rep.kind, train.domain, dimension, rep.order)
            self.gram = self.basis.gram_factor()
            self.info["basis"] = {
                "kind": rep.kind,
                "order": rep.order,
                "dimension": dimension,
            }
            self.train_values = self._functional_features(train)
            self.train_mask = None
            self.info["n_coefficients"] = int(self.train_values.shape[1])

    def _functional_features(self, dataset: Dataset) -> np.ndarray:
        alpha, _ = rep_mod.fit_dataset(dataset.functions, self.basis)
        alpha, _, gram = tr_mod.transform_dataset(
            alpha, self.basis, self.gram, self.spec.transform.kind
        )
        return alpha @ gram.chol.T

    def features(self, dataset: Dataset):
        """Features of a new dataset (same recipe, no refitting)."""
        if self.basis is not None:
            return self._functional_features(dataset), None
        if self.train_mask is not None:
            values, mask = imp_mod.masked_matrix_from_dataset(dataset, self.grid)
            if self.spec.impute.expert_scale:
                values = imp_mod.expert_scale_matrix(values, mask)
            return values, mask
        grid = dataset.common_grid()
        if grid.size != self.grid.size or not np.allclose(grid, self.grid):
            raise ConfigError("test data is not sampled on the training grid")
        return dataset.matrix(), None


class _FittedPreproc:
    """Fold-level data-dependent chain: impute -> standardize -> PCA.

    Fitted once per (fold, k), it keeps the imputed and standardized
    training matrix ``train_X``; ``prepare`` imputes and standardizes new
    rows once, and ``project`` slices the PCA scores of either matrix for
    one component count, so the PCA-size grid reuses both.
    """

    def __init__(self, spec: ExperimentSpec, k_impute: int,
                 values: np.ndarray, mask: np.ndarray | None, max_comp: int | None):
        self.spec = spec
        self.imputer = None
        X = values
        if spec.impute.kind == "mean":
            self.imputer = imp_mod.MeanImputer().fit(values, mask)
            X = self.imputer.transform(values, mask)
        elif spec.impute.kind == "knn":
            self.imputer = imp_mod.KnnImputer(k_impute).fit(values, mask)
            X = self.imputer.transform(values, mask, is_fit_data=True)
        self.standardizer = None
        if spec.pca.kind == "classical" and spec.pca.standardize:
            self.standardizer = fpca_mod.Standardizer().fit(X)
            X = self.standardizer.transform(X)
        self.train_X = X
        self.pca = None
        if spec.pca.kind != "none":
            # run_experiment keeps max_comp within every fold matrix's rank
            self.pca = fpca_mod.fit_fpca(X, n_components=max_comp)

    def prepare(self, values, mask):
        """Impute and standardize new rows (donors are the fitted rows)."""
        X = values
        if self.imputer is not None:
            X = self.imputer.transform(values, mask)
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        return X

    def project(self, X, n_comp: int | None):
        """PCA scores of prepared rows on ``n_comp`` components."""
        if self.pca is None:
            return X
        return fpca_mod.scores(self.pca, X, n_comp, whiten=self.spec.pca.whiten)


def _cell_sort_key(cell: tuple) -> tuple:
    return tuple(-1 if v is None else v for v in cell)


def run_experiment(spec: ExperimentSpec, train: Dataset, test: Dataset) -> ExperimentReport:
    """Cross-validate all grid cells on the training set, refit the winner,
    and report the test RMSE.

    A cell must be scored in every fold: its CV score is the mean of its
    ``plan.k`` per-fold validation errors, and a cell that some fold did
    not score is excluded (scored ``inf``) and counted in a note. Exact
    ties break toward the smallest cell tuple. PCA sizes no fold can fit
    are dropped before the folds run, with one note.

    The test set is sealed on entry and only unlocked after the winning
    model has been refitted on the full training set; selection never
    touches it. Reports are deterministic given the spec's seed.
    """
    t0 = time.perf_counter()
    spec.validate()
    sealed = SealedTestSet(test)
    del test

    stage = _Stage1(spec, train)
    y = train.targets
    n = len(train)
    notes: list[str] = []
    plan = make_folds(n, spec.folds, derive_seed(spec.seed, "folds"))

    impute_grid = spec.impute.grid()
    comp_grid, max_comp = (None,), None
    if spec.pca.kind != "none":
        # a centered fold matrix has rank at most min(n - 1, q)
        bound = min(min(tr.size for tr, _ in plan) - 1, stage.train_values.shape[1])
        requested = spec.pca.grid(spec.model)
        comp_grid = tuple(c for c in requested if c <= bound)
        if not comp_grid:
            raise ConfigError(f"experiment {spec.name}: PCA sizes {list(requested)} all "
                              f"exceed {bound}, the most components every fold can fit")
        if comp_grid != requested:
            notes.append(f"PCA sizes {[c for c in requested if c > bound]} exceed {bound}, "
                         "the most components every fold can fit, and were dropped")
        max_comp = max(comp_grid)

    # cell: (k_impute, n_comp, *model_params) -> (summed fold errors, folds scored)
    table: dict[tuple, tuple[float, int]] = {}
    for fold_i, (tr, va) in enumerate(plan):
        for k_imp in impute_grid:
            mask_tr = stage.train_mask[tr] if stage.train_mask is not None else None
            mask_va = stage.train_mask[va] if stage.train_mask is not None else None
            try:
                pre = _FittedPreproc(
                    spec, k_imp, stage.train_values[tr], mask_tr, max_comp
                )
                va_X = pre.prepare(stage.train_values[va], mask_va)
            except FdaregError as exc:
                notes.append(f"fold {fold_i}, impute k={k_imp}: {exc}")
                continue
            for n_comp in comp_grid:
                try:
                    X_tr = pre.project(pre.train_X, n_comp)
                    X_va = pre.project(va_X, n_comp)
                except FdaregError as exc:
                    notes.append(
                        f"fold {fold_i}, impute k={k_imp}, comps={n_comp}: {exc}"
                    )
                    continue
                _score_model_cells(
                    spec, X_tr, y[tr], X_va, y[va], k_imp, n_comp, fold_i, table
                )

    scores = {
        cell: total / plan.k if folds == plan.k else np.inf
        for cell, (total, folds) in table.items()
    }
    partial = sum(1 for _, folds in table.values() if folds < plan.k)
    if partial:
        notes.append(f"{partial} cells not scored in every fold were excluded")
    if partial == len(table):
        raise ConfigError(
            f"experiment {spec.name}: no grid cell was scored in every fold"
        )
    best_cell = min(sorted(scores, key=_cell_sort_key), key=lambda c: scores[c])
    cv_score = float(scores[best_cell])

    selected, predictor = _fit_final(spec, stage, best_cell, y, notes)

    test_ds = sealed.unlock()
    test_values, test_mask = stage.features(test_ds)
    preds = predictor(test_values, test_mask)
    test_rmse = rmse(preds, test_ds.targets)

    return ExperimentReport(
        name=spec.name,
        model=spec.model,
        test_rmse=test_rmse,
        cv_score=cv_score,
        selected=selected,
        info=stage.info,
        n_train=n,
        n_test=len(test_ds),
        seed=spec.seed,
        wall_time=time.perf_counter() - t0,
        notes=tuple(notes),
    )


def _add_fold_score(table: dict, cell: tuple, error: float) -> None:
    """Add one fold's validation error of ``cell`` to the fold table."""
    total, folds = table.get(cell, (0.0, 0))
    table[cell] = (total + error, folds + 1)


def _score_model_cells(spec, X_tr, y_tr, X_va, y_va, k_imp, n_comp, fold_i, table):
    """Evaluate every model-hyperparameter cell on one fold."""
    if spec.model == "mean":
        mean = float(np.mean(y_tr))
        _add_fold_score(
            table, (k_imp, n_comp), float(np.sum((y_va - mean) ** 2)) / y_va.size
        )
    elif spec.model == "rbfn":
        base_width = rbfn_mod.median_width(X_tr)
        cap = min(spec.rbfn.max_centers, X_tr.shape[0])
        for mult in spec.rbfn.width_multipliers:
            paths = rbfn_mod.train_ols_paths(
                X_tr, y_tr, mult * base_width, spec.rbfn.ridges, cap
            )
            for ridge, path in zip(spec.rbfn.ridges, paths):
                preds = path.predictions(X_va)
                sse = np.sum((preds - y_va[:, None]) ** 2, axis=0) / y_va.size
                for i in range(path.max_size):
                    cell = (k_imp, n_comp, mult, float(ridge), i + 1)
                    _add_fold_score(table, cell, float(sse[i]))
    else:  # mlp
        for hidden in spec.mlp.hidden_grid:
            for decay in spec.mlp.decay_grid:
                cell = (k_imp, n_comp, hidden, float(decay))
                seed = derive_seed(
                    spec.seed, f"mlp-cv-f{fold_i}-i{k_imp}-c{n_comp}-h{hidden}-d{decay:g}"
                )
                net = mlp_mod.train(
                    X_tr, y_tr, hidden, decay,
                    restarts=spec.mlp.cv_restarts, seed=seed,
                    max_iter=spec.mlp.cv_max_iter,
                )
                err = mlp_mod.forward(net, X_va) - y_va
                _add_fold_score(table, cell, float(err @ err) / y_va.size)


def _fit_final(spec, stage, cell, y, notes):
    """Refit the winning cell on the full training set.

    Returns the selected-parameter dict and a ``predict(values, mask)``
    closure for test-time use. When the full-data RBFN path stops before
    the selected center count, the refit uses every center it holds and a
    note in ``notes`` names both counts.
    """
    if spec.model == "mean":
        mean = float(np.mean(y))
        return {"train_mean": mean}, lambda values, mask: np.full(
            np.atleast_2d(values).shape[0], mean
        )

    k_imp, n_comp = cell[0], cell[1]
    pre = _FittedPreproc(spec, k_imp or 1, stage.train_values, stage.train_mask, n_comp)
    X = pre.project(pre.train_X, n_comp)

    selected: dict = {}
    if stage.train_mask is not None and spec.impute.kind == "knn":
        selected["impute_k"] = k_imp
    if n_comp is not None:
        selected["n_components"] = n_comp

    if spec.model == "rbfn":
        mult, ridge, kc = cell[2], cell[3], cell[4]
        width = mult * rbfn_mod.median_width(X)
        [path] = rbfn_mod.train_ols_paths(X, y, width, (ridge,), min(kc, X.shape[0]))
        if path.max_size < kc:
            notes.append(
                f"final refit: the full-data path stopped at {path.max_size} "
                f"of the selected {kc} centers"
            )
        model = path.model(min(kc, path.max_size))
        selected.update(
            width_multiplier=mult, ridge=ridge, n_centers=model.n_centers
        )

        def predictor(values, mask):
            X_new = pre.project(pre.prepare(values, mask), n_comp)
            return rbfn_mod.predict(model, X_new)

    else:
        hidden, decay = cell[2], cell[3]
        seed = derive_seed(spec.seed, "mlp-final")
        model = mlp_mod.train(
            X, y, hidden, decay,
            restarts=spec.mlp.restarts, seed=seed, max_iter=spec.mlp.max_iter,
        )
        selected.update(hidden=hidden, decay=decay)

        def predictor(values, mask):
            X_new = pre.project(pre.prepare(values, mask), n_comp)
            return mlp_mod.forward(model, X_new)

    return selected, predictor

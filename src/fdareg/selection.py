"""Experiment harness: preprocessing chains, joint grids, k-fold selection.

An :class:`ExperimentSpec` encodes one benchmark row: how functions are
represented (raw grid, B-splines, Fourier), which functional transform and
PCA flavor apply, the imputation route for holed data, the model family and
its hyperparameter grids. :func:`run_experiment` cross-validates every grid
cell on the training set only, refits the winner, and evaluates once on the
test set, which stays sealed until that point.

It is the one cross-validation engine of the toolkit, and its rule is that
a cell must be scored in every fold. A cell misses a fold when an RBFN
selection path stops before its center count, or when a fold's
preprocessing or training call fails (noted with the fold and the cell);
such a cell scores ``inf``, can never win, and is counted in one note on
the report. One trainer runs every training call, in the folds and in the
final refit: one RBFN width multiplier (an OLS path per ridge) or one MLP
``(hidden, decay)``, with one prediction column per grid cell it trains.

Data-dependent preprocessing (imputation, column standardization, PCA and
whitening statistics) is one chain, refitted inside every fold and once more
for the final refit. A fold fits it on its training rows for the whole k
grid: the training and validation rows are imputed once, k-NN ordering each
row's donors a single time, standardization and PCA are fitted once per k,
and every PCA size of the grid takes its scores from the two standardized
matrices. The final refit fits the same chain for the winning k alone; a
k's fill does not depend on the other ks of the grid. Per-function steps
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
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property

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
        if self.kind == "bspline" and not _positive_int(self.order):
            raise ConfigError("representation.order must be a positive integer, "
                              f"not {self.order!r}")
        if self.dimension != "loo" and not _positive_int(self.dimension):
            raise ConfigError("representation.dimension must be 'loo' or a positive "
                              f"integer, not {self.dimension!r}")


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
    kind: str = "none"  # none | classical (z-scored columns) | functional
    n_components: int | str | None = None  # int, or "cv"
    component_grid: tuple[int, ...] | None = None  # grid when n_components == "cv"
    whiten: bool = False

    def validate(self, representation: RepresentationSpec):
        if self.kind not in ("none", "classical", "functional"):
            raise ConfigError(f"unknown pca kind {self.kind!r}")
        if self.kind == "none":
            return
        if self.kind == "functional" and representation.kind == "raw":
            raise ConfigError("functional PCA needs a basis representation")
        if self.kind == "classical" and representation.kind != "raw":
            raise ConfigError("classical PCA applies to raw grid vectors")
        if self.n_components != "cv" and not _positive_int(self.n_components):
            raise ConfigError("pca.n_components must be 'cv' or a positive integer, "
                              f"not {self.n_components!r}")
        if not all(map(_positive_int, self.component_grid or ())):
            raise ConfigError("pca.component_grid must hold positive integers, "
                              f"not {list(self.component_grid)}")

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
    k_grid: tuple[int, ...] = (1, 2, 4, 8, 16)  # neighbor counts chosen by CV
    expert_scale: bool = False

    def validate(self, representation: RepresentationSpec):
        if self.kind not in ("none", "mean", "knn"):
            raise ConfigError(f"unknown imputation {self.kind!r}")
        if (self.kind != "none" or self.expert_scale) and representation.kind != "raw":
            raise ConfigError(
                "imputation and expert scaling are non-functional: they need "
                "the raw grid representation"
            )
        if self.kind == "knn" and not all(map(_positive_int, self.k_grid)):
            raise ConfigError("impute.k_grid must hold positive integers, "
                              f"not {list(self.k_grid)}")

    def grid(self) -> tuple[int, ...]:
        return tuple(self.k_grid) if self.kind == "knn" else (0,)  # 0: pass-through


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


#: Per model family, the names of a grid cell's model parameters, in cell order.
_PARAMS = {"rbfn": ("width_multiplier", "ridge", "n_centers"), "mlp": ("hidden", "decay")}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark row: preprocessing chain, model family and grids."""

    name: str
    model: str  # rbfn | mlp: the family whose grid is cross-validated
    representation: RepresentationSpec = RepresentationSpec()
    transform: TransformSpec = TransformSpec()
    pca: PcaSpec = PcaSpec()
    impute: ImputeSpec = ImputeSpec()
    rbfn: RbfnSettings = RbfnSettings()
    mlp: MlpSettings = MlpSettings()
    folds: int = 4
    seed: int = 0

    def validate(self):
        if self.model not in _PARAMS:
            raise ConfigError(f"unknown model {self.model!r}")
        self.representation.validate()
        self.transform.validate(self.representation)
        self.pca.validate(self.representation)
        self.impute.validate(self.representation)
        if self.model == "mlp":
            if self.pca.kind == "none":
                raise ConfigError("the MLP pipeline requires a PCA stage")
            if not self.pca.whiten:
                raise ConfigError("MLP inputs must be whitened PCA scores")
        if not _positive_int(self.folds) or self.folds < 2:
            raise ConfigError(f"folds must be an integer of at least 2, not {self.folds!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed!r}")
        for key, value in (
            ("rbfn.max_centers", self.rbfn.max_centers),
            ("mlp.restarts", self.mlp.restarts),
            ("mlp.cv_restarts", self.mlp.cv_restarts),
            ("mlp.max_iter", self.mlp.max_iter),
            ("mlp.cv_max_iter", self.mlp.cv_max_iter),
        ):
            if not _positive_int(value):
                raise ConfigError(f"{key} must be a positive integer, not {value!r}")
        for key, values, valid, what in (
            ("rbfn.width_multipliers", self.rbfn.width_multipliers, _positive_number,
             "positive finite numbers"),
            ("rbfn.ridges", self.rbfn.ridges, _non_negative_number, "non-negative finite numbers"),
            ("mlp.hidden_grid", self.mlp.hidden_grid, _positive_int, "positive integers"),
            ("mlp.decay_grid", self.mlp.decay_grid, _non_negative_number,
             "non-negative finite numbers"),
        ):
            if not isinstance(values, (tuple, list)) or not values:
                raise ConfigError(f"{key} must be a non-empty list, not {values!r}")
            bad = [v for v in values if not valid(v)]
            if bad:
                raise ConfigError(f"{key} must hold {what}, not {bad[0]!r}")
        # a repeated value would score its cells twice in one fold
        for key, values in (
            ("impute.k_grid", self.impute.k_grid),
            ("pca.component_grid", self.pca.component_grid or ()),
            ("rbfn.width_multipliers", self.rbfn.width_multipliers),
            ("rbfn.ridges", self.rbfn.ridges),
            ("mlp.hidden_grid", self.mlp.hidden_grid),
            ("mlp.decay_grid", self.mlp.decay_grid),
        ):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{key} repeats the value {repeated[0]!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        """Build a spec from :meth:`to_dict` output.

        An unknown key, a missing required key or a section that is not
        an object raises :class:`ConfigError` naming the key.
        """
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
            if key in kwargs:
                _check_keys(f"spec section {key!r}", kwargs[key], sub)
                kwargs[key] = sub(**{k: tup(v) for k, v in kwargs[key].items()})
        return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _is_int(value) and value > 0


def _non_negative_number(value) -> bool:
    finite = _is_int(value) or (isinstance(value, (float, np.floating)) and np.isfinite(value))
    return finite and value >= 0


def _positive_number(value) -> bool:
    return _non_negative_number(value) and value > 0


def _check_keys(where: str, raw, cls) -> None:
    """Raise ConfigError unless ``raw`` is an object that holds every
    required field of ``cls`` and no other key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, not {type(raw).__name__}")
    unknown = [key for key in raw if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"missing required key {missing[0]!r} in {where}")


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
        self.basis = None
        # the raw grid route of imputation and expert scaling keeps a mask
        self.masked = spec.impute.kind != "none" or spec.impute.expert_scale
        rep = spec.representation
        if rep.kind != "raw":
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
        elif self.masked:
            # holed functions share no complete grid; the canonical grid
            # is the union of observed abscissas (holes only delete
            # points, they never move them)
            self.grid = np.unique(np.concatenate([f.x for f in train.functions]))
        else:
            self.grid = train.common_grid()
        self.train_values, self.train_mask = self.features(train)
        if self.basis is not None:
            self.info["n_coefficients"] = int(self.train_values.shape[1])

    def _functional_features(self, dataset: Dataset) -> np.ndarray:
        alpha, _ = rep_mod.fit_dataset(dataset.functions, self.basis)
        alpha, _, gram = tr_mod.transform_dataset(
            alpha, self.basis, self.gram, self.spec.transform.kind
        )
        return alpha @ gram.chol.T

    def features(self, dataset: Dataset):
        """Features ``(values, mask)`` of a dataset, by the recipe fixed on
        the training set (no refitting); ``mask`` is None unless
        ``masked``."""
        if self.basis is not None:
            return self._functional_features(dataset), None
        if self.masked:
            values, mask = imp_mod.masked_matrix_from_dataset(dataset, self.grid)
            if self.spec.impute.expert_scale:
                values = imp_mod.expert_scale_matrix(values, mask)
            return values, mask
        grid = dataset.common_grid()
        if grid.size != self.grid.size or not np.allclose(grid, self.grid):
            raise ConfigError("test data is not sampled on the training grid")
        return dataset.matrix(), None


class _Preprocessing:
    """Imputation -> standardization -> PCA, fitted once on a set of training
    rows for the imputation grid ``ks`` and up to ``max_comp`` components.

    The rows are imputed once for the whole k grid (k-NN orders each row's
    donors a single time); the standardizer (classical PCA only) and the PCA
    are then fitted once per k. ``train[i]`` holds the standardized training
    rows for ``ks[i]``, ``prepare`` imputes and standardizes new rows for
    every k, and ``project`` slices the PCA scores of either for one
    component count, so every PCA size of the grid reuses them. Without an
    imputer the rows pass through as they are; ``n_comp = 0`` means no PCA.
    """

    def __init__(self, spec: ExperimentSpec, ks: tuple[int, ...],
                 values: np.ndarray, mask: np.ndarray | None, max_comp: int):
        self.whiten = spec.pca.whiten
        self.imputer = None
        if spec.impute.kind == "mean":
            self.imputer = imp_mod.MeanImputer().fit(values, mask)
        elif spec.impute.kind == "knn":
            self.imputer = imp_mod.KnnImputer(ks).fit(values, mask)
        filled = self._impute(values, mask, is_fit_data=True)
        classical = spec.pca.kind == "classical"
        self.standardizers = [fpca_mod.Standardizer().fit(X) if classical else None
                              for X in filled]
        self.train = self._standardize(filled)
        # run_experiment keeps max_comp within every fold matrix's rank
        self.pcas = [fpca_mod.fit_fpca(X, n_components=max_comp) if max_comp else None
                     for X in self.train]

    def _impute(self, values, mask, is_fit_data=False) -> list[np.ndarray]:
        if isinstance(self.imputer, imp_mod.KnnImputer):
            filled = self.imputer.transform(values, mask, is_fit_data)
            return [np.ascontiguousarray(filled[:, c]) for c in range(filled.shape[1])]
        # without k-NN the grid is the single pass-through k = 0
        return [values if self.imputer is None else self.imputer.transform(values, mask)]

    def _standardize(self, filled: list[np.ndarray]) -> list[np.ndarray]:
        return [X if std is None else std.transform(X)
                for std, X in zip(self.standardizers, filled)]

    def prepare(self, values, mask) -> list[np.ndarray]:
        """Impute and standardize new rows, one matrix per k."""
        return self._standardize(self._impute(values, mask))

    def project(self, i: int, X: np.ndarray, n_comp: int) -> np.ndarray:
        """PCA scores of rows prepared for ``ks[i]`` on ``n_comp`` components."""
        if not n_comp:
            return X
        return fpca_mod.scores(self.pcas[i], X, n_comp, whiten=self.whiten)


def _fold_note(fold_i: int, exc, k_imp=0, n_comp=0, call="") -> str:
    """A fold failure note: the fold, then the imputation k on k-NN rows and
    the PCA size on PCA rows (0 on the others), then the training call."""
    parts = [f"fold {fold_i}", k_imp and f"impute k={k_imp}",
             n_comp and f"comps={n_comp}", call]
    return ", ".join(p for p in parts if p) + f": {exc}"


def _fold_inputs(spec, stage, tr, va, comp_grid, fold_i, notes):
    """Yield ``(k_imp, n_comp, X_tr, X_va)``, the model inputs of one fold
    for every imputation and PCA-size cell.

    One :class:`_Preprocessing` serves the whole fold. A failed
    preprocessing fit notes every k; a failed projection notes its cell.
    """
    ks = spec.impute.grid()
    values, mask = stage.train_values, stage.train_mask
    try:
        pre = _Preprocessing(spec, ks, values[tr], None if mask is None else mask[tr],
                             max(comp_grid))
        X_va = pre.prepare(values[va], None if mask is None else mask[va])
    except FdaregError as exc:
        notes.extend(_fold_note(fold_i, exc, k_imp) for k_imp in ks)
        return
    for i, k_imp in enumerate(ks):
        for n_comp in comp_grid:
            try:
                scores = pre.project(i, pre.train[i], n_comp), pre.project(i, X_va[i], n_comp)
            except FdaregError as exc:
                notes.append(_fold_note(fold_i, exc, k_imp, n_comp))
                continue
            yield (k_imp, n_comp, *scores)


def run_experiment(spec: ExperimentSpec, train: Dataset, test: Dataset) -> ExperimentReport:
    """Cross-validate all grid cells on the training set, refit the winner,
    and report the test RMSE.

    A cell must be scored in every fold: its CV score is the mean of its
    ``len(plan)`` per-fold validation errors, and a cell that some fold did
    not score is excluded (scored ``inf``) and counted in a note. Exact
    ties break toward the smallest cell tuple. PCA sizes no fold can fit
    are dropped before the folds run, with one note; when none fits, the
    largest size every fold can fit replaces them. When no cell is
    scored in every fold, the ``ConfigError`` counts the per-fold failure
    notes and quotes the first.

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
    if spec.folds > n:
        raise ConfigError(f"experiment {spec.name}: folds={spec.folds} exceeds the "
                          f"{n} training rows")
    plan = make_folds(n, spec.folds, derive_seed(spec.seed, "folds"))

    comp_grid = (0,)  # 0: no PCA
    if spec.pca.kind != "none":
        # a centered fold matrix has rank at most min(n - 1, q)
        bound = min(min(tr.size for tr, _ in plan) - 1, stage.train_values.shape[1])
        requested = spec.pca.grid(spec.model)
        if bound < 1:
            raise ConfigError(f"experiment {spec.name}: PCA sizes {list(requested)} all "
                              f"exceed {bound}, the most components every fold can fit")
        comp_grid = tuple(c for c in requested if c <= bound)
        if comp_grid != requested:
            fate = "and were dropped" if comp_grid else f"so {bound} is used"
            notes.append(f"PCA sizes {[c for c in requested if c > bound]} exceed {bound}, "
                         f"the most components every fold can fit, {fate}")
        comp_grid = comp_grid or (bound,)

    # cell: (k_impute, n_comp, *model_params) -> (summed fold errors, folds scored)
    table: dict[tuple, tuple[float, int]] = {}
    notes_before_folds = len(notes)
    for fold_i, (tr, va) in enumerate(plan):
        for k_imp, n_comp, X_tr, X_va in _fold_inputs(
            spec, stage, tr, va, comp_grid, fold_i, notes
        ):
            _score_model_cells(spec, X_tr, y[tr], X_va, y[va], fold_i, k_imp, n_comp,
                               table, notes)
    fold_failures = notes[notes_before_folds:]

    scores = {
        cell: total / len(plan) if folds == len(plan) else np.inf
        for cell, (total, folds) in table.items()
    }
    partial = sum(1 for _, folds in table.values() if folds < len(plan))
    if partial:
        notes.append(f"{partial} cells not scored in every fold were excluded")
    if partial == len(table):
        cause = (f"; {len(fold_failures)} fold failures, first: {fold_failures[0]}"
                 if fold_failures else "")
        raise ConfigError(
            f"experiment {spec.name}: no grid cell was scored in every fold{cause}"
        )
    best_cell = min(sorted(scores), key=lambda c: scores[c])
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


class _TrainingSet:
    """Training rows; the RBFN base width is computed once for every call."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X, self.y = X, y

    @cached_property
    def base_width(self) -> float:
        return rbfn_mod.median_width(self.X)


def _train(spec, rows: _TrainingSet, call: tuple, seed_key: str, final: bool):
    """Run one training call; return ``(cells, predict)`` pairs whose
    ``predict(X_new)`` gives one column per model-parameter tuple in ``cells``.

    An RBFN call ``(mult, ridges, cap)`` grows one OLS path per ridge, with a
    cell per center count on it. An MLP call ``(hidden, decay)`` is one cell,
    trained with the refit's budget if ``final``; ``seed_key`` seeds it, with
    the cell appended in cross-validation.
    """
    if spec.model == "rbfn":
        mult, ridges, cap = call
        paths = rbfn_mod.train_ols_paths(rows.X, rows.y, mult * rows.base_width, ridges,
                                         min(cap, rows.X.shape[0]))
        return [([(mult, float(ridge), k) for k in range(1, path.max_size + 1)],
                 path.predictions) for ridge, path in zip(ridges, paths)]
    hidden, decay = call
    m = spec.mlp
    restarts, max_iter = (m.restarts, m.max_iter) if final else (m.cv_restarts, m.cv_max_iter)
    seed_key = seed_key if final else f"{seed_key}-h{hidden}-d{decay:g}"
    net = mlp_mod.train(rows.X, rows.y, hidden, decay, restarts=restarts,
                        seed=derive_seed(spec.seed, seed_key), max_iter=max_iter)
    return [([(hidden, float(decay))], lambda X_new: mlp_mod.forward(net, X_new)[:, None])]


def _score_model_cells(spec, X_tr, y_tr, X_va, y_va, fold_i, k_imp, n_comp, table, notes):
    """Run every training call of the model grid on one fold's inputs and
    add each cell's validation MSE to the fold table; a call that fails is
    noted, and its cells miss the fold."""
    if spec.model == "rbfn":
        r = spec.rbfn
        calls = [((m, r.ridges, r.max_centers), f"width_multiplier={m:g}")
                 for m in r.width_multipliers]
    else:
        calls = [((h, d), f"hidden={h}, decay={d:g}")
                 for h in spec.mlp.hidden_grid for d in spec.mlp.decay_grid]
    rows = _TrainingSet(X_tr, y_tr)
    for call, label in calls:
        try:
            trained = _train(spec, rows, call, f"mlp-cv-f{fold_i}-i{k_imp}-c{n_comp}",
                             final=False)
        except FdaregError as exc:
            notes.append(_fold_note(fold_i, exc, k_imp, n_comp, label))
            continue
        for cells, predict in trained:
            mse = np.sum((predict(X_va) - y_va[:, None]) ** 2, axis=0) / y_va.size
            for cell, error in zip(cells, mse):
                key = (k_imp, n_comp, *cell)
                total, folds = table.get(key, (0.0, 0))
                table[key] = (total + float(error), folds + 1)


def _fit_final(spec, stage, cell, y, notes):
    """Refit the winning cell on the full training set before the caller
    unlocks the test set; return the selected-parameter dict and a
    ``predict(values, mask)`` closure for the test rows.

    :func:`_train` runs the winner's single call, RBFN ``(mult, (ridge,),
    n_centers)`` or MLP ``(hidden, decay)``, with the refit's budget, and the
    refit model is its last column. When the full-data RBFN path stops short
    of the selected center count, a note in ``notes`` names both counts.
    """
    k_imp, n_comp, *params = cell
    pre = _Preprocessing(spec, (k_imp,), stage.train_values, stage.train_mask, n_comp)
    X = pre.project(0, pre.train[0], n_comp)

    call = (params[0], (params[1],), params[2]) if spec.model == "rbfn" else tuple(params)
    [(cells, predict)] = _train(spec, _TrainingSet(X, y), call, "mlp-final", final=True)
    if cells[-1][-1] != params[-1]:  # only an RBFN path can stop short
        notes.append(f"final refit: the full-data path stopped at {cells[-1][-1]} "
                     f"of the selected {params[-1]} centers")

    selected: dict = {}
    if spec.impute.kind == "knn":
        selected["impute_k"] = k_imp
    if spec.pca.kind != "none":
        selected["n_components"] = n_comp
    selected.update(zip(_PARAMS[spec.model], cells[-1]))

    return selected, lambda values, mask: predict(
        pre.project(0, pre.prepare(values, mask)[0], n_comp))[:, -1]

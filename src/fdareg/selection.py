"""Experiment harness: preprocessing chains, joint grids, k-fold selection.

An :class:`ExperimentSpec` encodes one benchmark row: how functions are
represented (raw grid, B-splines, Fourier), which functional transform and
PCA flavor apply, the imputation route for holed data, the model family and
its hyperparameter grids. :func:`run_experiment` cross-validates every grid
cell on the training set only, refits the winner, and evaluates once on the
test set, whose curves it reads only once the selection is final and whose
targets only to score the refit (``tests/test_metamorphic.py`` guards both).

It is the one cross-validation engine of the toolkit, and its rule is that
a cell must be scored in every fold. A cell misses a fold when an RBFN
selection path stops before its center count, or when a fold's
preprocessing or training call fails (noted with the fold and the cell);
such a cell scores ``inf``, can never win, and is counted in one note on
the report. One train-and-predict path, :func:`_predict_cells`, serves
every fold and the final refit, which is its last split: the training rows,
then the validation rows of a fold or the test rows of the refit. Each of
its training calls is one RBFN width multiplier (an OLS path per ridge) or
one MLP ``(hidden, decay)``, with one prediction column per grid cell it
trains. The RBFN calls of one set of training rows share two
squared-distance matrices: the training rows' own, which gives the base
width and every width's design, and the new rows' to them, which every
path of every width slices by its selected centers.

Data-dependent preprocessing (imputation, column standardization, PCA and
whitening statistics) is one chain of plain arrays, refitted inside every
fold and once more for the final refit. A fold fills its training and
validation rows once for the whole k grid (k-NN orders each row's donors a
single time) into one pair of matrices per k; each k's training matrix fits
one standardizer and one PCA, and every PCA size of the grid slices its
scores of the pair. The final refit runs the same chain for the winning k
alone, as a k's fill does not depend on the other ks. Per-function steps
(basis projection, centering, derivatives, expert scaling) use no
cross-sample information, so they are computed once up front, on whole
coefficient or value matrices, from one grouping of each dataset's curves
by sampling grid (:class:`~fdareg.fdata.Grids`), the one input of every
route: the training set is grouped once up front and the test set once,
just before the refit. The basis route evaluates the basis once, on the
union of the abscissas, and runs one pivoted QR per distinct grid for the
``(n, q)`` coefficient matrix, which each transform maps to another. The
grid route reads the grouping's values on the union of the training
abscissas, with a mask when an imputer fills the holes and complete
otherwise, then expert-scales them if asked. Basis-size selection by
leave-one-out never sees a target and is also done once, on the training
grouping, with one basis evaluation per candidate size and one QR per grid
and candidate size.
"""

from __future__ import annotations

import re
import time
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import fpca as fpca_mod
from . import imputation as imp_mod
from . import mlp as mlp_mod
from . import rbfn as rbfn_mod
from . import represent as rep_mod
from . import transforms as tr_mod
from .cv import derive_seed, make_folds, rmse
from .errors import ConfigError, FdaregError
from .fdata import Dataset, Grids

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "run_experiment",
]


@dataclass(frozen=True)
class RepresentationSpec:
    kind: str = "raw"  # raw | bspline | fourier
    order: int = 4  # spline order (bspline only)
    dimension: int | str = "loo"  # basis size, or "loo" to select it


@dataclass(frozen=True)
class TransformSpec:
    kind: str = "none"  # none | center-reduce | deriv1 | deriv2


@dataclass(frozen=True)
class PcaSpec:
    kind: str = "none"  # none | classical (z-scored columns) | functional
    # the sizes CV chooses from, a fixed size being a one-entry grid; None:
    # 1-20, or 1-18 for the MLP
    component_grid: tuple[int, ...] | None = None
    whiten: bool = False

    def grid(self, model: str) -> tuple[int, ...]:
        if self.component_grid is not None:
            return tuple(self.component_grid)
        # MLP inputs are capped at 18 principal components
        return tuple(range(1, 19)) if model == "mlp" else tuple(range(1, 21))


@dataclass(frozen=True)
class ImputeSpec:
    kind: str = "none"  # none | mean | knn
    k_grid: tuple[int, ...] = (1, 2, 4, 8, 16)  # neighbor counts chosen by CV
    expert_scale: bool = False

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
        """Raise :class:`ConfigError` at the first value that breaks a rule.

        The rules are four tables, checked in turn: the choices among named
        kinds, the single values, the grids and the rules across sections.
        Every grid must be a non-empty list of valid, distinct values (a
        repeated value would score its cells twice in one fold), and a grid
        is checked even when the row does not use it; a
        ``pca.component_grid`` of None stands for the model's default sizes.
        """
        rep, pca, imp, rbfn, mlp = (self.representation, self.pca, self.impute,
                                    self.rbfn, self.mlp)
        for label, value, choices in (
            ("model", self.model, _PARAMS),
            ("representation kind", rep.kind, ("raw", "bspline", "fourier")),
            ("transform", self.transform.kind, ("none", "center-reduce", "deriv1", "deriv2")),
            ("pca kind", pca.kind, ("none", "classical", "functional")),
            ("imputation", imp.kind, ("none", "mean", "knn")),
        ):
            if not isinstance(value, str) or value not in choices:
                raise ConfigError(f"unknown {label} {value!r}")
        for key, value, valid, what in (
            ("name", self.name, lambda v: isinstance(v, str) and v, "a non-empty string"),
            # the name is a file name (row_<name>.json) and a results.csv field
            ("name", self.name, lambda v: re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9._-]*", v),
             "letters, digits, '.', '_' and '-' with no leading '.'"),
            ("pca.whiten", pca.whiten, _flag, "true or false"),
            ("impute.expert_scale", imp.expert_scale, _flag, "true or false"),
            ("representation.order", rep.order, _positive_int, "a positive integer"),
            ("representation.dimension", rep.dimension, lambda v: v == "loo" or _positive_int(v),
             "'loo' or a positive integer"),
            ("folds", self.folds, lambda v: _is_int(v) and v >= 2, "an integer of at least 2"),
            ("seed", self.seed, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
            ("rbfn.max_centers", rbfn.max_centers, _positive_int, "a positive integer"),
            ("mlp.restarts", mlp.restarts, _positive_int, "a positive integer"),
            ("mlp.cv_restarts", mlp.cv_restarts, _positive_int, "a positive integer"),
            ("mlp.max_iter", mlp.max_iter, _positive_int, "a positive integer"),
            ("mlp.cv_max_iter", mlp.cv_max_iter, _positive_int, "a positive integer"),
        ):
            if not valid(value):
                raise ConfigError(f"{key} must be {what}, not {value!r}")
        sizes = pca.grid(self.model) if pca.component_grid is None else pca.component_grid
        for key, values, valid, what in (
            ("impute.k_grid", imp.k_grid, _positive_int, "positive integers"),
            ("pca.component_grid", sizes, _positive_int, "positive integers"),
            ("rbfn.width_multipliers", rbfn.width_multipliers, _positive_number,
             "positive finite numbers"),
            ("rbfn.ridges", rbfn.ridges, _non_negative_number, "non-negative finite numbers"),
            ("mlp.hidden_grid", mlp.hidden_grid, _positive_int, "positive integers"),
            ("mlp.decay_grid", mlp.decay_grid, _non_negative_number,
             "non-negative finite numbers"),
        ):
            if not isinstance(values, (tuple, list)) or not values:
                raise ConfigError(f"{key} must be a non-empty list, not {values!r}")
            bad = [v for v in values if not valid(v)]
            if bad:
                raise ConfigError(f"{key} must hold {what}, not {bad[0]!r}")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{key} repeats the value {repeated[0]!r}")
        raw = rep.kind == "raw"
        deriv = {"deriv1": 1, "deriv2": 2}.get(self.transform.kind, 0)
        for broken, message in (
            (self.transform.kind != "none" and raw,
             "functional transforms need a basis representation"),
            (rep.kind == "bspline" and rep.order <= deriv,
             f"deriv{deriv} needs spline order > {deriv}"),
            (pca.kind == "functional" and raw, "functional PCA needs a basis representation"),
            (pca.kind == "classical" and not raw, "classical PCA applies to raw grid vectors"),
            ((imp.kind != "none" or imp.expert_scale) and not raw,
             "imputation and expert scaling are non-functional: they need the raw grid "
             "representation"),
            (self.model == "mlp" and pca.kind == "none", "the MLP pipeline requires a PCA stage"),
            (self.model == "mlp" and not pca.whiten, "MLP inputs must be whitened PCA scores"),
        ):
            if broken:
                raise ConfigError(message)

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


def _flag(value) -> bool:
    return isinstance(value, (bool, np.bool_))


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


class _Stage1:
    """Fold-independent per-sample features for the training set, plus the
    recipe to compute the same features for new functions; ``notes`` names
    the basis sizes leave-one-out skipped."""

    def __init__(self, spec: ExperimentSpec, train: Dataset):
        self.spec = spec
        self.info: dict = {}
        self.notes: list[str] = []
        self.basis = None
        grids = Grids(train.functions)
        rep = spec.representation
        if rep.kind != "raw":
            if rep.dimension == "loo":
                sel = rep_mod.select_basis_size(grids, train.domain, rep.kind, rep.order)
                dimension = sel.dimension
                self.info["loo_scores"] = {int(k): float(v) for k, v in sel.scores.items()}
                if sel.skipped:
                    self.notes.append(
                        f"leave-one-out skipped basis sizes {list(sel.skipped)}, the first "
                        f"with {next(iter(sel.skipped.values()))}"
                    )
            else:
                dimension = int(rep.dimension)
            self.basis = rep_mod.make_basis(rep.kind, train.domain, dimension, rep.order)
            self.info["basis"] = {
                "kind": rep.kind,
                "order": rep.order,
                "dimension": dimension,
            }
        else:
            # holed functions share no complete grid; the canonical grid is
            # the union of the training abscissas (holes only delete points,
            # they never move them)
            self.grid = grids.union
        self.train_values, self.train_mask = self.features(grids)
        if self.basis is not None:
            self.info["n_coefficients"] = int(self.train_values.shape[1])

    def features(self, grids: Grids):
        """Features ``(values, mask)`` of a dataset's grouping by sampling
        grid, by the recipe fixed on the training set (no refitting);
        ``mask`` is None unless an imputer is to fill the holes."""
        if self.basis is not None:
            alpha, _ = rep_mod.fit_dataset(grids, self.basis)
            alpha, basis = tr_mod.transform_dataset(alpha, self.basis, self.spec.transform.kind)
            return alpha @ basis.gram_factor().T, None
        if self.spec.impute.kind != "none":
            values, mask = grids.on(self.grid)
        else:
            values, mask = grids.matrix(self.grid), None
        if self.spec.impute.expert_scale:
            values = imp_mod.expert_scale_matrix(values, mask)
        return values, mask


def _fold_note(fold_i: int, exc, k_imp: int, n_comp: int, call: str) -> str:
    """A fold failure note: the fold, then the imputation k on k-NN rows and
    the PCA size on PCA rows (0 on the others), then the training call."""
    parts = [f"fold {fold_i}", k_imp and f"impute k={k_imp}",
             n_comp and f"comps={n_comp}", call]
    return ", ".join(p for p in parts if p) + f": {exc}"


def _predict_cells(spec, ks, comp_grid, calls, train_rows, y, new_rows, seed_key, final,
                   failed):
    """Train every call of ``calls`` on the training rows for every
    imputation k of ``ks`` and PCA size of ``comp_grid``; yield ``(cells,
    P)`` per trained model, ``P`` holding its predictions on the new rows,
    one column per full grid cell ``(k_imp, n_comp, *model_params)``.

    ``train_rows`` and ``new_rows`` are ``(values, mask)`` features. Both
    are filled once for the whole k grid (:func:`~fdareg.imputation.fill`).
    Then, per k, the training rows fit one standardizer (classical PCA
    only) and one PCA of ``max(comp_grid)`` components, and every size of
    the grid slices its scores of both matrices (size 0: no PCA).
    On RBFN rows, each (k, size) forms the training rows' squared
    distances, the new rows' distances to them and the base width once for
    every width. An RBFN call ``(mult, ridges, cap)`` grows one OLS path per
    ridge, with a cell per center count on it. An MLP call ``(hidden,
    decay)`` is one cell, trained with the refit's budget if ``final``;
    ``seed_key`` seeds it, with the (k, size) and the cell appended in
    cross-validation. Each failure goes to ``failed(exc, k_imp, n_comp,
    label)``: a fill failure reaches every k, a projection failure its
    (k, size), and a training failure that call's cells.
    """
    try:
        filled = imp_mod.fill(spec.impute.kind, ks, *train_rows, *new_rows)
    except FdaregError as exc:
        for k_imp in ks:
            failed(exc, k_imp, 0, "")
        return
    for k_imp, (train_k, new_k) in zip(ks, filled):
        if spec.pca.kind == "classical":
            std = fpca_mod.Standardizer().fit(train_k)
            train_k, new_k = std.transform(train_k), std.transform(new_k)
        # run_experiment keeps max(comp_grid) within every fold matrix's rank
        pca = fpca_mod.fit_fpca(train_k, max(comp_grid)) if spec.pca.kind != "none" else None
        for n_comp in comp_grid:
            try:
                X, X_new = ((train_k, new_k) if pca is None else
                            [fpca_mod.scores(pca, Z, n_comp, whiten=spec.pca.whiten)
                             for Z in (train_k, new_k)])
            except FdaregError as exc:
                failed(exc, k_imp, n_comp, "")
                continue
            if spec.model == "rbfn":
                D = rbfn_mod.sq_distances(X, X)
                D_new = rbfn_mod.sq_distances(X_new, X)
                width = rbfn_mod.median_width(D)
            for call, label in calls:
                try:
                    if spec.model == "rbfn":
                        mult, ridges, cap = call
                        trained = rbfn_mod.train_ols_paths(D, y, mult * width, ridges,
                                                           min(cap, X.shape[0]))
                    else:
                        hidden, decay = call
                        m = spec.mlp
                        restarts, max_iter = ((m.restarts, m.max_iter) if final
                                              else (m.cv_restarts, m.cv_max_iter))
                        key = (seed_key if final else
                               f"{seed_key}-i{k_imp}-c{n_comp}-h{hidden}-d{decay:g}")
                        trained = mlp_mod.train(X, y, hidden, decay, restarts=restarts,
                                                seed=derive_seed(spec.seed, key),
                                                max_iter=max_iter)
                except FdaregError as exc:
                    failed(exc, k_imp, n_comp, label)
                    continue
                # one prediction matrix at a time, as the caller consumes them
                if spec.model == "rbfn":
                    for ridge, path in zip(ridges, trained):
                        yield ([(k_imp, n_comp, mult, float(ridge), k)
                                for k in range(1, path.max_size + 1)],
                               path.predictions(D_new))
                else:
                    yield ([(k_imp, n_comp, hidden, float(decay))],
                           mlp_mod.forward(trained, X_new)[:, None])


def _reraise(exc, *where):
    raise exc


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

    The folds and the final refit run the same :func:`_predict_cells`: each
    fold predicts its validation rows, and the refit, the winner's single
    call on the full training set, predicts the test rows. The test curves
    are read once the selection is final, just before the refit, and
    neither the selection nor the refit reads their targets
    (``tests/test_metamorphic.py`` replaces the test set and checks that
    nothing else moves). An empty test set has no RMSE and is a
    ``ConfigError``. Reports are deterministic given the spec's seed.
    """
    t0 = time.perf_counter()
    spec.validate()
    if not len(test):
        raise ConfigError(f"experiment {spec.name}: the test set is empty")

    stage = _Stage1(spec, train)
    y = train.targets
    n = len(train)
    notes = list(stage.notes)
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

    if spec.model == "rbfn":
        r = spec.rbfn
        calls = [((m, r.ridges, r.max_centers), f"width_multiplier={m:g}")
                 for m in r.width_multipliers]
    else:
        calls = [((h, d), f"hidden={h}, decay={d:g}")
                 for h in spec.mlp.hidden_grid for d in spec.mlp.decay_grid]
    values, mask = stage.train_values, stage.train_mask
    ks = spec.impute.grid()

    def rows(idx):
        return values[idx], None if mask is None else mask[idx]

    # cell: (k_impute, n_comp, *model_params) -> (summed fold errors, folds scored)
    table: dict[tuple, tuple[float, int]] = {}
    notes_before_folds = len(notes)
    for fold_i, (tr, va) in enumerate(plan):
        def failed(exc, *where, fold_i=fold_i):
            notes.append(_fold_note(fold_i, exc, *where))

        y_va = y[va]
        for cells, P in _predict_cells(spec, ks, comp_grid, calls, rows(tr), y[tr], rows(va),
                                       f"mlp-cv-f{fold_i}", False, failed):
            mse = np.sum((P - y_va[:, None]) ** 2, axis=0) / y_va.size
            for cell, error in zip(cells, mse):
                total, folds = table.get(cell, (0.0, 0))
                table[cell] = (total + float(error), folds + 1)
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

    k_imp, n_comp, *params = best_cell
    call = (params[0], (params[1],), params[2]) if spec.model == "rbfn" else tuple(params)
    test_rows = stage.features(Grids(test.functions))
    [(cells, P)] = _predict_cells(spec, (k_imp,), (n_comp,), [(call, "")], (values, mask), y,
                                  test_rows, "mlp-final", True, _reraise)
    if cells[-1][-1] != params[-1]:  # only an RBFN path can stop short
        notes.append(f"final refit: the full-data path stopped at {cells[-1][-1]} "
                     f"of the selected {params[-1]} centers")
    selected: dict = {}
    if spec.impute.kind == "knn":
        selected["impute_k"] = k_imp
    if spec.pca.kind != "none":
        selected["n_components"] = n_comp
    selected.update(zip(_PARAMS[spec.model], cells[-1][2:]))

    return ExperimentReport(
        name=spec.name,
        model=spec.model,
        test_rmse=rmse(P[:, -1], test.targets),
        cv_score=cv_score,
        selected=selected,
        info=stage.info,
        n_train=n,
        n_test=len(test),
        seed=spec.seed,
        wall_time=time.perf_counter() - t0,
        notes=tuple(notes),
    )

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
selection path stops before its center count, when a fold's preprocessing
or training call fails (noted with the fold and the cell), or when its
validation error there is not finite (the cells are counted in a note);
such a cell can never win, and the cells that miss a fold are counted in
one note on the report. Every split has two steps: :func:`_prepare` fits
the preprocessing chain on the training rows and prepares the model inputs
of the training rows and the new rows once per imputation k and PCA size,
and the model family's stack trainer trains a stack of calls on them. The
final refit is the last split, with the test rows as its new rows: it
calls the same two steps, its training a one-job stack, and a failure there
is raised, not noted.

The engine names no model family: what differs between the RBFN and the
MLP is one ``_Family`` record per family in ``_FAMILIES``, and the engine
reads nothing else about a family. A record holds:

- ``params``, the names of a cell's model parameters, in cell order;
- ``pca_sizes``, the PCA sizes of a spec that gives none (MLP inputs are
  capped at 18 principal components);
- ``rules``, the family's ``(broken(spec), message)`` spec rules, checked
  after the cross-section rules;
- ``calls(spec)``, the training calls of the spec's grid, ``(call,
  label)`` each;
- ``inputs(X, X_new)``, the model inputs of one (k, size) from its
  training and new rows' scores;
- ``train(spec, jobs)``, the stack trainer. It takes an iterable of jobs
  ``(inputs, y, k_imp, n_comp, call, fold)``, each one call on one
  ``(k_imp, n_comp)``'s :func:`_prepare` inputs, in fold ``fold`` or, with
  None, in the final refit, and returns an iterator over the jobs' results
  in job order. A result is the toolkit error the job met, or one
  ``(cells, P)`` per path it trained, ``P`` holding its predictions on the
  new rows, one column per full grid cell ``(k_imp, n_comp, head, path,
  *tail)``;
- ``reports_paths``, whether ``info["pruned_paths"]`` counts the skipped
  path trainings.

The records call the model modules' functions by attribute at call time,
so a patched function is the one trained. A training call is shaped
``(head, paths, *tail)`` in every family: an RBFN width multiplier
``(mult, ridges, cap)``, an OLS path per ridge, or an MLP ``(hidden,
(decay,))``, one path; it gives one prediction column per grid cell it
trains, and a cell's fourth entry names its path. On RBFN rows the prepared
inputs are two squared-distance matrices: the training rows' own, which
gives the base width and every width's design, and the new rows' to them,
which every path of every width slices by its selected centers. An RBFN
job trains only when its result is taken, and an MLP stack is one
:func:`~fdareg.mlp.train` call whose seeds are keyed by the fold, the (k,
size) and the cell, or by the refit.

The engine skips the path trainings that can no longer change the
selection. A path is one ridge's OLS path of an RBFN call, with a cell per
center count; an MLP call is one path with one cell. Each fold's split is
prepared once, up front. Fold 0 trains every call on every (k, size).
The calls on a (k, size) then run their folds 1 to K - 1 one call after
the other, in ascending order of their best fold-0 cell error (ties in
fold-0 order).
Before each fold, once some cell is complete, a call keeps only the paths
that hold a live cell: one scored in every fold so far whose partial score,
the sum of its fold errors so far over the fold count K, is <= the best
complete score so far. It trains only those paths, in grid order, and a
call with none left stops. A call that starts its later folds with no
complete cell (in practice the first) first grows its lead path alone
through folds 1 to K - 1: the path of its best fold-0 cell, ties going to
the smallest cell. The best of the lead's complete cells sets the bound
under which the call's other paths then run their later folds; if the
lead completes none, they run unbounded. The bound is exact. A fold error
is a finite MSE, so it is >= 0, and adding a non-negative float never
lowers a sum: a dropped path's cells would all end strictly above a score
some cell already has, so none of them can win or tie. With no bound, a
group of paths runs the same fold loop with every path held. A kept path is
grown bit for bit as in the whole call (in ``train_ols_paths`` no path
reads another's numbers), so its predictions do not move. The winner's
errors are still summed in fold order, and MLP seeds are keyed by the fold
and the cell, not by the order of training, so the selection, its score
and the refit are those of training every call in every fold
(``fold_major_cv`` in ``tests/oracles.py``). Counted against training
every path of every call in folds 1 to K - 1, ``info["pruned_trainings"]``
holds the (call, fold) pairs in which the schedule trained no path of the
call, and on RBFN rows ``info["pruned_paths"]`` the (call, fold, ridge)
path trainings it skipped; a training that fails, or whose preparation
failed, counts as made. Failure notes keep the fold-major order, one per
failing (fold, call) even when its lead and its other paths both fail, and
the cells of a dropped path are not counted as excluded.

Trainings are made in stacks (the family's ``train``), whose results are
taken fold by fold under the rule above. Fold 0's calls form one stack, and
an unbounded group's folds 1 to K - 1 another. A bounded call that holds
live paths before fold f trains folds f to K - 1 in one stack if the
largest partial sum S of its live cells passes S (K - 1) / f <= K best,
its mean fold error so far carried to the last check before fold K - 1,
with ``best`` the best complete score; otherwise it trains fold f alone. A
new stack starts when the held paths change or the stack is used up. The
result of a fold the rule prunes is dropped: it is not tabulated, noted or
counted, so the selection, the counters and the notes are the schedule's.
An RBFN stack trains a job only when its result is taken, so RBFN rows
make exactly the schedule's trainings. An MLP stack is one
:func:`~fdareg.mlp.train` call, which decides what shares a loop: a
bounded call's remaining folds share one loop where the per-call overhead
of a small network dominates, at the price of the folds it then drops.

Data-dependent preprocessing (imputation, column standardization, PCA and
whitening statistics) is one chain of plain arrays, refitted inside every
fold and once more for the final refit. A fold fills its training and
validation rows once for the whole k grid (k-NN orders each row's donors a
single time) into one pair of matrices per k; each k's training matrix fits
one standardizer and one PCA, and every PCA size of the grid slices its
scores of the pair. The final refit runs the same chain for the winning k
alone, as a k's fill does not depend on the other ks. The k-NN distance
between two training rows does not depend on the fold either: the training
rows' distances are formed once per experiment
(:func:`~fdareg.imputation.pair_distances`), a fold reads its rows' slices
of that one matrix and the final refit the whole of it, and the test rows'
distances to the training rows are formed at the refit, once the selection
is final. A k-NN failure names its curve by its id, as stage-1 errors do.
Per-function steps
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
grouping, by :func:`~fdareg.represent.select_basis_size`, whose docstring
states its stopping rule; the training coefficients are the winner's from
its QRs.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
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
    # the model family's default sizes
    component_grid: tuple[int, ...] | None = None
    whiten: bool = False

    def grid(self, model: str) -> tuple[int, ...]:
        if self.component_grid is not None:
            return tuple(self.component_grid)
        return _FAMILIES[model].pca_sizes


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
    restarts: int = mlp_mod.RESTARTS  # final refit
    cv_restarts: int = 12  # per grid cell during cross-validation
    max_iter: int = mlp_mod.MAX_ITER  # trial steps per restart in the final refit
    cv_max_iter: int = 150  # trial steps per restart in a CV cell; 93 % spent on the MLP panel


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
        kinds, the single values, the grids and the rules across sections,
        the model family's own rules last (``_FAMILIES``).
        Every grid must be a non-empty list of valid, distinct values (a
        repeated value would score its cells twice in one fold), and a grid
        is checked even when the row does not use it; a
        ``pca.component_grid`` of None stands for the family's default sizes.
        """
        rep, pca, imp, rbfn, mlp = (self.representation, self.pca, self.impute,
                                    self.rbfn, self.mlp)
        for label, value, choices in (
            ("model", self.model, _FAMILIES),
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
            *((rule(self), message) for rule, message in _FAMILIES[self.model].rules),
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
    the basis sizes leave-one-out skipped.

    The basis and the training coefficients come from
    :func:`~fdareg.represent.represent`; a basis size chosen by
    leave-one-out comes from :func:`~fdareg.represent.select_basis_size`
    (its docstring states when a size stops). ``info["loo_scores"]`` holds
    the sizes scored on every curve, ``info["loo_pruned"]`` the stopped
    ones (when there are any), and the note only the sizes that failed. The
    training features are the winner's coefficients from its LOO fits.
    """

    def __init__(self, spec: ExperimentSpec, train: Dataset):
        self.spec = spec
        self.info: dict = {}
        self.notes: list[str] = []
        self.basis = alpha = None
        grids = Grids(train.functions)
        rep = spec.representation
        if rep.kind != "raw":
            self.basis, alpha, sel = rep_mod.represent(grids, train.domain, rep.kind, rep.order,
                                                       rep.dimension)
            if sel is not None:
                self.info["loo_scores"] = {int(k): float(v) for k, v in sel.scores.items()}
                if sel.pruned:
                    self.info["loo_pruned"] = [int(q) for q in sel.pruned]
                if sel.skipped:
                    self.notes.append(
                        f"leave-one-out skipped basis sizes {list(sel.skipped)}, the first "
                        f"with {next(iter(sel.skipped.values()))}"
                    )
            self.info["basis"] = {"kind": rep.kind, "order": rep.order,
                                  "dimension": self.basis.dimension}
        else:
            # holed functions share no complete grid; the canonical grid is
            # the union of the training abscissas (holes only delete points,
            # they never move them)
            self.grid = grids.union
        self.train_values, self.train_mask = self.features(grids, alpha)
        if self.basis is not None:
            self.info["n_coefficients"] = int(self.train_values.shape[1])

    def features(self, grids: Grids, alpha: np.ndarray | None = None):
        """Features ``(values, mask)`` of a dataset's grouping by sampling
        grid, by the recipe fixed on the training set (no refitting);
        ``mask`` is None unless an imputer is to fill the holes. ``alpha``
        gives the grouping's basis coefficients when they are already
        fitted."""
        if self.basis is not None:
            if alpha is None:
                alpha = rep_mod.fit_dataset(grids, self.basis)
            alpha, basis = tr_mod.transform_dataset(alpha, self.basis, self.spec.transform.kind,
                                                    grids.ids)
            return alpha @ basis.gram_factor().T, None
        if self.spec.impute.kind != "none":
            values, mask = grids.on(self.grid)
        else:
            values, mask = grids.matrix(self.grid), None
        if self.spec.impute.expert_scale:
            values = imp_mod.expert_scale_matrix(values, mask, grids.ids)
        return values, mask


def _fold_note(fold_i: int, exc, k_imp: int, n_comp: int, call: str) -> str:
    """A fold failure note: the fold, then the imputation k on k-NN rows and
    the PCA size on PCA rows (0 on the others), then the training call."""
    parts = [f"fold {fold_i}", k_imp and f"impute k={k_imp}",
             n_comp and f"comps={n_comp}", call]
    return ", ".join(p for p in parts if p) + f": {exc}"


def _prepare(spec, ks, comp_grid, train_rows, new_rows, distances, names):
    """One split's model inputs per ``(k_imp, n_comp)`` of the imputation
    ks and PCA sizes, as the model family's record makes them from the
    training rows' and the new rows' scores (``_FAMILIES``).

    ``train_rows`` and ``new_rows`` are ``(values, mask)`` features. Both
    are filled once for the whole k grid (:func:`~fdareg.imputation.fill`),
    on k-NN rows from ``distances``, the pair of the training rows'
    distances among themselves and the new rows' to them, with errors
    naming the rows by ``names``, the pair of their ids.
    Then, per k, the training rows fit one standardizer (classical PCA
    only) and one PCA of ``max(comp_grid)`` components, and every size of
    the grid slices its scores of both matrices (size 0: no PCA). Returns
    ``(inputs, failures, short)``: the inputs keyed by ``(k_imp, n_comp)``,
    one ``(k_imp, n_comp, exc)`` per toolkit error, whose pairs are left
    out, and the fill's count of k-NN fills with fewer than k donors. A
    fill failure reaches every k, with ``n_comp`` 0; a projection failure
    reaches its size.
    """
    try:
        filled, short = imp_mod.fill(spec.impute.kind, ks, *train_rows, *new_rows, distances,
                                     names)
    except FdaregError as exc:
        return {}, [(k_imp, 0, exc) for k_imp in ks], 0
    inputs, failures = {}, []
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
                failures.append((k_imp, n_comp, exc))
                continue
            inputs[k_imp, n_comp] = _FAMILIES[spec.model].inputs(X, X_new)
    return inputs, failures, short


_Family = namedtuple("_Family", "params pca_sizes rules calls inputs train reports_paths")


def _rbfn_inputs(X, X_new):
    """The training rows' squared distances ``D``, which give the base width
    and every width's design, the new rows' distances to them, which every
    path of every width slices by its selected centers, and the base width."""
    D = rbfn_mod.sq_distances(X, X)
    return D, rbfn_mod.sq_distances(X_new, X), rbfn_mod.median_width(D)


def _rbfn_job(inputs, y, k_imp, n_comp, call, fold):
    """One job of the RBFN stack trainer, which trains a job only when its
    iterator reaches it: a call ``(mult, ridges, cap)`` grows one OLS path
    per ridge, with a cell per center count on it."""
    D, D_new, width = inputs
    mult, ridges, cap = call
    try:
        paths = rbfn_mod.train_ols_paths(D, y, mult * width, ridges, min(cap, D.shape[0]))
        return [([(k_imp, n_comp, mult, float(ridge), k) for k in range(1, path.max_size + 1)],
                 path.predictions(D_new)) for ridge, path in zip(ridges, paths)]
    except FdaregError as exc:
        return exc


def _train_mlp(spec, jobs):
    """The MLP stack trainer: a call ``(hidden, (decay,))`` is one path and
    one cell. Every job goes to one :func:`~fdareg.mlp.train` stack, which
    decides what shares a loop, and each comes out as if trained alone. A
    job is seeded by its fold, ``(k_imp, n_comp)`` and cell, the refit's by
    ``"mlp-final"``, which also trains with the refit's budget."""
    jobs = list(jobs)  # read twice: for the stack and for its predictions
    m = spec.mlp
    final = any(job[-1] is None for job in jobs)
    restarts, max_iter = (m.restarts, m.max_iter) if final else (m.cv_restarts, m.cv_max_iter)
    Xs, ys, hiddens, decays, seeds = [], [], [], [], []
    for (X, _), y, k_imp, n_comp, (hidden, (decay,)), fold in jobs:
        Xs.append(X)
        ys.append(y)
        hiddens.append(hidden)
        decays.append(decay)
        seeds.append(derive_seed(spec.seed, "mlp-final" if fold is None else
                                 f"mlp-cv-f{fold}-i{k_imp}-c{n_comp}-h{hidden}-d{decay:g}"))
    models = mlp_mod.train(Xs, ys, hiddens, decays, restarts=restarts, seed=seeds,
                           max_iter=max_iter)
    return (model if isinstance(model, FdaregError) else
            [([(k_imp, n_comp, hidden, float(decay))], mlp_mod.forward(model, X_new)[:, None])]
            for model, ((_, X_new), _, k_imp, n_comp, (hidden, (decay,)), _) in zip(models, jobs))


_FAMILIES = {
    "rbfn": _Family(
        params=("width_multiplier", "ridge", "n_centers"), pca_sizes=tuple(range(1, 21)),
        rules=(), inputs=_rbfn_inputs, reports_paths=True,
        calls=lambda spec: [((m, spec.rbfn.ridges, spec.rbfn.max_centers),
                             f"width_multiplier={m:g}") for m in spec.rbfn.width_multipliers],
        train=lambda spec, jobs: (_rbfn_job(*job) for job in jobs)),
    "mlp": _Family(
        params=("hidden", "decay"), pca_sizes=tuple(range(1, 19)),
        rules=((lambda spec: spec.pca.kind == "none", "the MLP pipeline requires a PCA stage"),
               (lambda spec: not spec.pca.whiten, "MLP inputs must be whitened PCA scores")),
        calls=lambda spec: [((h, (d,)), f"hidden={h}, decay={d:g}")
                            for h in spec.mlp.hidden_grid for d in spec.mlp.decay_grid],
        inputs=lambda X, X_new: (X, X_new), train=_train_mlp, reports_paths=False),
}


def run_experiment(spec: ExperimentSpec, train: Dataset, test: Dataset) -> ExperimentReport:
    """Cross-validate all grid cells on the training set, refit the winner,
    and report the test RMSE.

    A cell must be scored in every fold: its CV score is the mean of its
    ``len(plan)`` per-fold validation errors, summed in fold order, and a
    cell that some fold did not score (its training failed, its path
    stopped short, or its error was not finite) cannot win; a call that
    ran every fold has such cells counted in a note. Exact ties break
    toward the smallest cell tuple. PCA sizes no fold can fit are dropped
    before the folds run, with one note; when none fits, the largest size
    every fold can fit replaces them. When no cell is scored in every
    fold, the ``ConfigError`` counts the per-fold failure notes and quotes
    the first. The k-NN fills that had fewer than k donors, in the folds and
    the final refit together, are counted in one note.

    Fold 0 trains every call, and the later folds skip the path trainings
    that can no longer change the selection. The module docstring states
    that exact rule and the counters ``info["pruned_trainings"]`` and
    ``info["pruned_paths"]``; the selection, ``cv_score`` and test RMSE
    are bit for bit those of training every call in every fold. A call's
    later folds train in stacks, whose results are taken fold by fold
    under that rule and dropped in a pruned fold, as the module docstring
    states.

    The final refit, the winner's single call on the full training set,
    predicts the test rows through the same two steps as a fold, and a
    toolkit error in either step propagates. The test
    curves are read once the selection is final, just before the refit,
    and neither the selection nor the refit reads their targets
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

    values, mask = stage.train_values, stage.train_mask
    family = _FAMILIES[spec.model]
    ks = spec.impute.grid()
    # a unit: one training call on one (k, size), in fold-major order
    units = [(k_imp, n_comp, call, label) for k_imp in ks for n_comp in comp_grid
             for call, label in family.calls(spec)]
    # (fold, unit, training?) -> note, sorted into fold-major order; a call
    # split into its lead path and the rest keeps its first note of a fold
    failures = {}

    def failed(fold, k_imp, n_comp, exc, label=""):
        u = next(u for u, (k, c, _, name) in enumerate(units)
                 if k == k_imp and n_comp in (0, c) and label in ("", name))
        failures.setdefault((fold, u, bool(label)), _fold_note(fold, exc, k_imp, n_comp, label))

    def rows(idx):
        return values[idx], None if mask is None else mask[idx]

    # the training rows' k-NN distances, formed once: a fold reads its
    # slices, and the final refit the whole matrix
    D = imp_mod.pair_distances(values, mask) if spec.impute.kind == "knn" else None
    prepared, short_fills = [], 0
    for fold, (tr, va) in enumerate(plan):
        inputs, prep_failures, short = _prepare(
            spec, ks, comp_grid, rows(tr), rows(va),
            None if D is None else (D[np.ix_(tr, tr)], D[np.ix_(va, tr)]),
            [[train.functions[i].id for i in idx] for idx in (tr, va)])
        prepared.append(inputs)
        short_fills += short
        for failure in prep_failures:
            failed(fold, *failure)
    # per unit: cell -> (summed fold errors, folds scored)
    tables: list[dict[tuple, tuple[float, int]]] = [{} for _ in units]
    nonfinite = set()

    def train_jobs(jobs):
        """The calls ``(u, fold, call)`` as one stack of the family's
        trainer: an iterator over their results in job order, None for a
        job whose preparation failed (and was noted)."""
        ready = [(u, fold, call) for u, fold, call in jobs if units[u][:2] in prepared[fold]]
        trained = family.train(spec, ((prepared[fold][units[u][:2]], y[plan[fold][0]],
                                       *units[u][:2], call, fold) for u, fold, call in ready))
        # a lazy trainer builds and trains a job only when its result is taken
        return (next(trained) if units[u][:2] in prepared[fold] else None
                for u, fold, _ in jobs)

    def tabulate(u, fold, result):
        """Add a result's cells' fold errors to the unit's table; a failed
        preparation's None, already noted, adds nothing."""
        if result is None:
            return
        k_imp, n_comp, _, label = units[u]
        if isinstance(result, FdaregError):
            failed(fold, k_imp, n_comp, result, label)
            return
        y_va = y[plan[fold][1]]
        for cells, P in result:
            mse = np.sum((P - y_va[:, None]) ** 2, axis=0) / y_va.size
            for cell, error, finite in zip(cells, mse.tolist(), np.isfinite(mse).tolist()):
                if not finite:
                    nonfinite.add(cell)
                    continue
                total, folds = tables[u].get(cell, (0.0, 0))
                tables[u][cell] = (total + error, folds + 1)

    def score(jobs):
        """Train the calls ``(u, fold, call)`` and tabulate every result."""
        results = train_jobs(jobs)
        for u, fold, _ in jobs:
            # taken in the call: no RBFN result is alive while the next trains
            tabulate(u, fold, next(results))

    K = len(plan)
    score([(u, 0, units[u][2]) for u in range(len(units))])

    def path(cell):  # a cell's path: its RBFN ridge, or its MLP call's one decay
        return cell[3]

    # (unit, fold, path) of every path training the schedule takes in folds 1..K-1
    best, attempted = np.inf, set()
    for u in sorted(range(len(units)),
                    key=lambda u: (min((t for t, _ in tables[u].values()), default=np.inf), u)):
        head, paths, *tail = units[u][2]
        every = {float(p) for p in paths}
        groups = [every]
        if best == np.inf and tables[u]:
            # no bound yet: the path of the best fold-0 cell runs its later
            # folds alone, and its complete cells bound the other paths'
            lead = path(min(tables[u], key=lambda c: (tables[u][c][0], c)))
            groups = [{lead}, every - {lead}]
        for group in filter(None, groups):
            stacked = upto = None  # the call of the current stack, and its end fold
            for fold in range(1, K):
                # no bound before some cell is complete: the group trains in
                # every later fold, in one stack
                held = group
                if best < np.inf:
                    # a live cell was scored in every fold so far; its score can only grow
                    live = {cell: total for cell, (total, folds) in tables[u].items()
                            if path(cell) in group and folds == fold and total / K <= best}
                    held = {path(cell) for cell in live}
                    # no cell of a dropped path can win, and none counts as excluded
                    tables[u] = {cell: e for cell, e in tables[u].items()
                                 if path(cell) in held or path(cell) not in group}
                    if not held:
                        break
                attempted.update((u, fold, p) for p in held)
                call = (head, tuple(p for p in paths if float(p) in held), *tail)
                if call != stacked or fold == upto:
                    # under a bound, the rest of the folds in one stack while
                    # the call's mean fold error so far, carried to the last
                    # check, still passes it; a pruned fold's result is dropped
                    upto = (K if best == np.inf or max(live.values()) * (K - 1) / fold <= best * K
                            else fold + 1)
                    stacked, results = call, train_jobs([(u, f, call) for f in range(fold, upto)])
                tabulate(u, fold, next(results))
            best = min([best, *(total / K for total, folds in tables[u].values() if folds == K)])
    fold_failures = [note for _, note in sorted(failures.items())]
    notes.extend(fold_failures)
    # every later-fold (call, fold) pair, or path, that was not attempted was pruned
    stage.info["pruned_trainings"] = (len(units) * (K - 1)
                                      - len({(u, fold) for u, fold, _ in attempted}))
    if family.reports_paths:
        stage.info["pruned_paths"] = (sum(len(call[1]) for _, _, call, _ in units) * (K - 1)
                                      - len(attempted))

    table = {cell: entry for t in tables for cell, entry in t.items()}
    scores = {cell: total / K for cell, (total, folds) in table.items() if folds == K}
    if nonfinite:
        notes.append(f"{len(nonfinite)} cells had a non-finite validation error in some fold "
                     f"and were not scored in it")
    if len(scores) < len(table):
        notes.append(f"{len(table) - len(scores)} cells not scored in every fold were excluded")
    if not scores:
        cause = (f"; {len(fold_failures)} fold failures, first: {fold_failures[0]}"
                 if fold_failures else "")
        raise ConfigError(
            f"experiment {spec.name}: no grid cell was scored in every fold{cause}"
        )
    best_cell = min(scores, key=lambda c: (scores[c], c))
    cv_score = float(scores[best_cell])

    k_imp, n_comp, *params = best_cell
    test_rows = stage.features(Grids(test.functions))
    inputs, prep_failures, short = _prepare(
        spec, (k_imp,), (n_comp,), (values, mask), test_rows,
        None if D is None else (D, imp_mod.cross_distances(*test_rows, values, mask)),
        [[f.id for f in dataset.functions] for dataset in (train, test)])
    if prep_failures:
        raise prep_failures[0][2]
    short_fills += short
    if short_fills:
        notes.append(f"{short_fills} k-NN fills in the folds and the final refit had fewer "
                     f"than k donors observing the coordinate and used all of them")
    [trained] = family.train(spec, [(inputs[k_imp, n_comp], y, k_imp, n_comp,
                                     (params[0], (params[1],), *params[2:]), None)])
    if isinstance(trained, FdaregError):
        raise trained
    [(cells, P)] = trained
    if cells[-1][-1] != params[-1]:  # only an RBFN path can stop short
        notes.append(f"final refit: the full-data path stopped at {cells[-1][-1]} "
                     f"of the selected {params[-1]} centers")
    selected: dict = {}
    if spec.impute.kind == "knn":
        selected["impute_k"] = k_imp
    if spec.pca.kind != "none":
        selected["n_components"] = n_comp
    selected.update(zip(family.params, cells[-1][2:]))

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

"""Gaussian radial-basis function network trained by regularized orthogonal
forward selection.

Inputs are coordinate vectors (scaled basis coordinates, PCA scores or raw
grid vectors); Euclidean distance between them realizes the wanted
functional (semi-)metric because any derivative or centering transform has
already been applied to the coordinates upstream.

Training greedily recruits centers from the training inputs. At each step
every remaining candidate column is orthogonalized against the selected
ones and the one with the largest regularized error reduction
``(w' y)^2 / (w' w + ridge)`` is appended; modified Gram-Schmidt recurrences
keep the whole selection path cheap, and every truncation of the path is a
network of its own (Chen, Cowan & Grant 1991). The Gram-Schmidt factors
``A`` (unit upper triangular) and the orthogonal-space weights ``g`` give
the k-center weights as ``A[:k, :k]^-1 g[:k]``, so the predictions of all
truncations at once are ``cumsum((D A^-1) * g, axis=1)`` for the design
``D`` on the selected centers: one triangular solve scores the whole path.
:meth:`RbfnPath.predictions` is the one evaluator of a trained network; the
cross-validation folds and the final test-set evaluation both read their
center count's column of it.

The ridge enters only the criterion and the orthogonal-space weights, so
:func:`train_ols_paths` grows the paths of a whole ridge grid in lockstep
on one shared design matrix: each step forms the energies, projections,
criteria, tie-breaks and Gram-Schmidt coefficients of every live path with
one batched call apiece, and each path deflates its own copy of the
candidate columns with one in-place BLAS rank-1 update (``dger``). Its
fused multiply-adds round differently from ``W -= outer(w, c)``, so the
numbers move at float level only. A path leaves the batch at the step
where it has no usable column left. Every step recomputes the energies and
projections from the deflated columns; the O(M) recurrences for them change
the numbers the selections are made on. Cross-validation of the width,
ridge and center count is done by ``selection.run_experiment``: one call
per fold and width grows the paths of every ridge, each path scores every
center count up to its length, and a cell must be scored in every fold, so
a center count beyond a fold's early stop can never win. There is no
one-ridge trainer: one ridge is a one-element grid, and ``train_ols`` is
only another name of :func:`train_ols_paths`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist, pdist

from .errors import ValidationError

#: Candidates whose orthogonalized energy falls below this are numerically
#: redundant and skipped.
ENERGY_TOL = 1e-12
#: Criterion differences below this are ties, broken by lower candidate index.
TIE_TOL = 1e-12

MAX_CENTERS_CAP = 100

#: Default hyperparameter grids, cross-validated by ``selection.run_experiment``.
#: The width is the median pairwise input distance times a swept multiplier.
WIDTH_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
RIDGE_GRID = tuple(10.0**e for e in range(-6, 1))


def design_matrix(X: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    """Gaussian kernel design: exp(-d(x, c)^2 / (2 width^2))."""
    d2 = cdist(np.atleast_2d(X), np.atleast_2d(centers), "sqeuclidean")
    return np.exp(-d2 / (2.0 * width**2))


def median_width(X: np.ndarray) -> float:
    """Median pairwise distance among inputs, the global width heuristic."""
    X = np.atleast_2d(X)
    if X.shape[0] < 2:
        return 1.0
    d = np.median(pdist(X))
    return float(d) if d > 0 else 1.0


@dataclass(frozen=True)
class RbfnPath:
    """Forward-selection path; every truncation is a network, and
    :meth:`predictions` evaluates them all at once.

    ``objective`` is the regularized training error after 0, 1, ... steps;
    it is non-increasing by construction. ``gs_coefs`` holds the
    Gram-Schmidt factors ``A`` (unit upper triangular over the selection
    order) and ``ortho_weights`` the orthogonal-space weights ``g``. The
    design ``D`` on the selected centers factors as ``D = W A`` on the
    training inputs, and since ``A^-1`` is upper triangular too,
    ``D[:, :k] A[:k, :k]^-1 = (D A^-1)[:, :k]``. The k-center weights are
    therefore ``A[:k, :k]^-1 g[:k]`` and the k-center predictions on any
    inputs are the k-th partial sum of the columns of ``(D A^-1) * g``.
    """

    inputs: np.ndarray  # (n, d) candidate pool = training inputs
    selected: np.ndarray  # selection order, indices into inputs
    gs_coefs: np.ndarray  # (k, k)
    ortho_weights: np.ndarray  # (k,)
    objective: np.ndarray  # (k + 1,)
    width: float
    ridge: float

    @property
    def max_size(self) -> int:
        return int(self.selected.size)

    def predictions(self, X: np.ndarray) -> np.ndarray:
        """Predictions of every truncation: a (len(X), max_size) matrix whose
        column k - 1 is the k-center network's output,
        ``cumsum((D A^-1) * g, axis=1)``. The one evaluator of a trained
        network: cross-validation and the final refit both read it."""
        design = design_matrix(X, self.inputs[self.selected], self.width)
        # (D A^-1)^T = A^-T D^T: one solve for every truncation. LAPACK's
        # trtrs is called as scipy's solve_triangular calls it for this
        # C-ordered A (A^T lower, no transpose), so the bits are the same.
        ortho, info = dtrtrs(self.gs_coefs.T, design.T, lower=1, trans=0, unitdiag=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal trtrs")
        return np.cumsum(ortho.T * self.ortho_weights, axis=1)


def train_ols_paths(
    X: np.ndarray,
    y: np.ndarray,
    width: float,
    ridges: Sequence[float],
    max_centers: int = MAX_CENTERS_CAP,
) -> list[RbfnPath]:
    """Grow one regularized orthogonal forward-selection path per ridge.

    The ridge enters only the selection criterion and the orthogonal-space
    weights, so every path starts from one shared design matrix and the
    paths grow in lockstep: each step forms the energies, projections,
    criteria, tie-breaks and Gram-Schmidt coefficients of all live paths
    with one batched numpy call apiece. Each path then deflates its own
    copy of the candidate columns in place with one BLAS rank-1 update
    (``dger``); its fused multiply-adds round differently from
    ``W -= outer(w, c)``, so results drift from that form at float level
    only. A path leaves the batch at the step where it has no usable
    column left.

    Parameters
    ----------
    X, y : (n, d) inputs and (n,) targets; the inputs double as the
        candidate center pool.
    width : float
        Gaussian width (one global scale for all centers).
    ridges : sequence of float
        One path per entry, in this order: the regularization strength
        added to each candidate's energy in the selection criterion and in
        the orthogonal-space weights. Must be non-empty and >= 0.
    max_centers : int
        Cap on the path length; must not exceed the input count.

    Returns
    -------
    list of RbfnPath
        One whole path per ridge, so every truncation (1..k centers) can be
        evaluated without retraining. A path is shorter than
        ``max_centers`` when no candidate with usable energy is left.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValidationError("targets must be one scalar per input")
    ridges = np.asarray(ridges, dtype=float)
    if ridges.ndim != 1 or ridges.size == 0:
        raise ValidationError("ridges must be a non-empty sequence of numbers")
    if np.any(ridges < 0):
        raise ValidationError("ridge must be >= 0")
    if max_centers > n:
        raise ValidationError(f"max_centers {max_centers} exceeds the input count {n}")

    F = design_matrix(X, X, width)
    energy_floor = ENERGY_TOL * np.einsum("ij,ij->j", F, F)
    n_paths = ridges.size
    # batch row -> path; W holds every live path's candidate columns,
    # deflated in place as centers are picked
    live = np.arange(n_paths)
    W = np.repeat(F[None], n_paths, axis=0)
    available = np.ones((n_paths, n), dtype=bool)

    lengths = np.full(n_paths, max_centers)
    selected = np.zeros((n_paths, max_centers), dtype=int)
    coef_rows = np.zeros((n_paths, max_centers, n))  # step -> GS coefs
    ortho_weights = np.zeros((n_paths, max_centers))
    objective = np.empty((n_paths, max_centers + 1))
    objective[:, 0] = y @ y

    for step in range(max_centers):
        energy = np.einsum("rij,rij->rj", W, W)
        proj = np.matmul(y, W)
        usable = available & (energy > energy_floor)
        done = ~usable.any(axis=1)
        if done.any():
            # path.max_size records where the early stop happened
            lengths[live[done]] = step
            keep = ~done
            live, W, available = live[keep], W[keep], available[keep]
            energy, proj, usable = energy[keep], proj[keep], usable[keep]
            if not live.size:
                break
        rows = np.arange(live.size)
        # selected columns are zeroed, so the criterion is formed on usable
        # columns only (with ridge 0 it would be 0/0 on the others)
        denom = energy + ridges[live, None]
        reduction = np.divide(
            proj**2, denom, out=np.full(denom.shape, -np.inf), where=usable
        )
        best = np.argmax(
            reduction >= reduction.max(axis=1, keepdims=True) - TIE_TOL, axis=1
        )

        w_best = W[rows, :, best]
        p_best, d_best = proj[rows, best], denom[rows, best]
        ortho_weights[live, step] = p_best / d_best
        objective[live, step + 1] = objective[live, step] - p_best**2 / d_best
        selected[live, step] = best
        available[rows, best] = False

        # Deflate every column along the new orthogonal direction. The
        # coefficient of a column here equals its Gram-Schmidt factor
        # against w_best (earlier deflations are orthogonal to w_best).
        coefs = np.matmul(w_best[:, None, :], W)[:, 0, :] / energy[rows, best, None]
        coef_rows[live, step] = coefs
        for r in rows:
            # W[r].T is the Fortran-ordered view BLAS updates in place
            dger(-1.0, coefs[r], w_best[r], a=W[r].T, overwrite_a=True)
        W[rows, :, best] = 0.0

    inputs = X.copy()
    paths = []
    for p, k in enumerate(lengths):
        sel = selected[p, :k]
        gs = np.triu(coef_rows[p, :k][:, sel], 1) + np.eye(k)
        paths.append(RbfnPath(
            inputs=inputs,
            selected=sel.copy(),
            gs_coefs=gs,
            ortho_weights=ortho_weights[p, :k].copy(),
            objective=objective[p, : k + 1].copy(),
            width=width,
            ridge=float(ridges[p]),
        ))
    return paths


# Trace name of the benchmark's ``perfbench/layers.py``, which also reads its
# ``max_centers`` parameter: nothing calls it, and it goes with that target.
train_ols = train_ols_paths

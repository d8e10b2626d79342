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
valid model. The Gram-Schmidt factors ``A`` (unit upper triangular) and the
orthogonal-space weights ``g`` give the k-center weights as
``A[:k, :k]^-1 g[:k]``, so the predictions of all truncations at once are
``cumsum((D A^-1) * g, axis=1)`` for the design ``D`` on the selected
centers: one triangular solve scores the whole path. Cross-validation of
the width, ridge and center count is done by ``selection.run_experiment``:
one path per fold scores every center count up to the path's length, and a
cell must be scored in every fold, so a center count beyond a fold's early
stop can never win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
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


@dataclass(frozen=True)
class RbfnModel:
    """Trained network: Gaussian bumps at selected centers, linear output."""

    centers: np.ndarray  # (k, d), rows drawn from the training inputs
    width: float
    weights: np.ndarray  # (k,)
    ridge: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValidationError("Gaussian width must be positive")
        self.centers.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


def design_matrix(X: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    """Gaussian kernel design: exp(-d(x, c)^2 / (2 width^2))."""
    d2 = cdist(np.atleast_2d(X), np.atleast_2d(centers), "sqeuclidean")
    return np.exp(-d2 / (2.0 * width**2))


def predict(model: RbfnModel, x: np.ndarray) -> float | np.ndarray:
    """Network output. Accepts one vector (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if np.atleast_2d(x).shape[1] != model.centers.shape[1]:
        raise ValidationError(
            f"input dimension {np.atleast_2d(x).shape[1]} does not match "
            f"centers of dimension {model.centers.shape[1]}"
        )
    out = design_matrix(x, model.centers, model.width) @ model.weights
    return float(out[0]) if single else out


def median_width(X: np.ndarray) -> float:
    """Median pairwise distance among inputs, the global width heuristic."""
    X = np.atleast_2d(X)
    if X.shape[0] < 2:
        return 1.0
    d = np.median(pdist(X))
    return float(d) if d > 0 else 1.0


@dataclass(frozen=True)
class RbfnPath:
    """Forward-selection path; ``model(k)`` materializes any truncation.

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

    def weights(self, k: int) -> np.ndarray:
        """Output weights of the k-center truncation: ``A[:k, :k]^-1 g[:k]``."""
        if not 1 <= k <= self.max_size:
            raise ValidationError(f"path holds {self.max_size} centers, asked {k}")
        return scipy.linalg.solve_triangular(
            self.gs_coefs[:k, :k], self.ortho_weights[:k], unit_diagonal=True
        )

    def model(self, k: int) -> RbfnModel:
        centers = self.inputs[self.selected[:k]].copy()
        return RbfnModel(centers, self.width, self.weights(k), self.ridge)

    def predictions(self, X: np.ndarray) -> np.ndarray:
        """Predictions of every truncation: a (len(X), max_size) matrix whose
        column k - 1 is the k-center model's output,
        ``cumsum((D A^-1) * g, axis=1)``."""
        design = design_matrix(X, self.inputs[self.selected], self.width)
        # (D A^-1)^T = A^-T D^T: one solve for every truncation
        ortho = scipy.linalg.solve_triangular(
            self.gs_coefs, design.T, trans="T", unit_diagonal=True
        )
        return np.cumsum(ortho.T * self.ortho_weights, axis=1)


def train_ols(
    X: np.ndarray,
    y: np.ndarray,
    width: float,
    ridge: float = 0.0,
    max_centers: int = MAX_CENTERS_CAP,
    candidate_idx: np.ndarray | None = None,
) -> RbfnPath:
    """Grow a network by regularized orthogonal forward selection.

    Parameters
    ----------
    X, y : (n, d) inputs and (n,) targets; the inputs double as the
        candidate center pool.
    width : float
        Gaussian width (one global scale for all centers).
    ridge : float
        Regularization strength added to each candidate's energy in the
        selection criterion and in the orthogonal-space weights.
    max_centers : int
        Cap on the path length; must not exceed the candidate count.
    candidate_idx : array of int, optional
        Restrict the center pool to these training rows (defaults to all).

    Returns
    -------
    RbfnPath
        The whole path, so every truncation (1..k centers) can be
        evaluated without retraining. The path is shorter than
        ``max_centers`` when no candidate with usable energy is left.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValidationError("targets must be one scalar per input")
    candidate_idx = (
        np.arange(n) if candidate_idx is None else np.asarray(candidate_idx, dtype=int)
    )
    n_cand = candidate_idx.size
    if max_centers > n_cand:
        raise ValidationError(
            f"max_centers {max_centers} exceeds the candidate count {n_cand}"
        )
    if ridge < 0:
        raise ValidationError("ridge must be >= 0")

    F = design_matrix(X, X[candidate_idx], width)
    base_energy = np.einsum("ij,ij->j", F, F)
    W = F.copy()  # candidate columns, deflated in place as centers are picked
    available = np.ones(n_cand, dtype=bool)

    selected: list[int] = []
    coef_rows = np.zeros((max_centers, n_cand))  # step -> GS coefs per candidate
    ortho_weights = np.zeros(max_centers)
    objective = [float(y @ y)]

    for step in range(max_centers):
        energy = np.einsum("ij,ij->j", W, W)
        proj = W.T @ y
        usable = available & (energy > ENERGY_TOL * base_energy)
        if not np.any(usable):
            break  # path.max_size records where the early stop happened
        # selected columns are zeroed, so the criterion is formed on usable
        # columns only (with ridge 0 it would be 0/0 on the others)
        reduction = np.full(n_cand, -np.inf)
        reduction[usable] = proj[usable] ** 2 / (energy[usable] + ridge)
        best = int(np.flatnonzero(reduction >= reduction.max() - TIE_TOL)[0])

        w_best = W[:, best].copy()
        e_best = energy[best]
        ortho_weights[step] = proj[best] / (e_best + ridge)
        objective.append(objective[-1] - proj[best] ** 2 / (e_best + ridge))
        selected.append(best)
        available[best] = False

        # Deflate every column along the new orthogonal direction. The
        # coefficient of a column here equals its Gram-Schmidt factor
        # against w_best (earlier deflations are orthogonal to w_best).
        coefs = (w_best @ W) / e_best
        coef_rows[step] = coefs
        W -= np.outer(w_best, coefs)
        W[:, best] = 0.0

    k = len(selected)
    sel = np.array(selected, dtype=int)
    gs = coef_rows[:k][:, sel]
    gs = np.triu(gs, 1) + np.eye(k)
    return RbfnPath(
        inputs=X.copy(),
        selected=candidate_idx[sel],
        gs_coefs=gs,
        ortho_weights=ortho_weights[:k].copy(),
        objective=np.array(objective),
        width=width,
        ridge=ridge,
    )

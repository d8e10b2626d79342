"""Principal component analysis on coordinate vectors.

Applied to scaled beta coordinates this is functional PCA: the principal
vectors map back to orthonormal principal functions through the inverse
Cholesky factor. Applied to raw grid vectors, standardized per column
first, the very same code is classical PCA, so both preprocessing flavors
share one implementation.

Coordinates are centered internally but never reduced to unit variance:
a represented function is one entity, not unrelated per-coordinate scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponentError, ValidationError


@dataclass(frozen=True)
class FpcaModel:
    """Fitted principal component model on coordinate vectors.

    ``components`` holds orthonormal row vectors ordered by non-increasing
    ``eigenvalues`` (variances, computed with 1/(n-1)). The sign convention
    makes each component's largest-magnitude entry positive, so scores are
    reproducible across runs. One fit serves whitened and unwhitened
    scores.
    """

    mean: np.ndarray  # (q,)
    components: np.ndarray  # (k, q)
    eigenvalues: np.ndarray  # (k,)

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.components.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def explained_variance_ratio(self) -> np.ndarray:
        total = float(np.sum(self.eigenvalues))
        return self.eigenvalues / total if total > 0 else self.eigenvalues * 0.0


def fit_fpca(betas: np.ndarray, n_components: int | None = None) -> FpcaModel:
    """Fit principal components to coordinate vectors.

    Parameters
    ----------
    betas : (n, q) array
        One coordinate vector per sample; centered internally.
    n_components : int, optional
        Components to keep; defaults to ``min(n - 1, q)``.

    Returns
    -------
    FpcaModel

    Raises
    ------
    ValidationError
        Fewer than 2 samples, or more components requested than samples
        or coordinates can support.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2 or betas.shape[0] < 2:
        raise ValidationError("PCA needs a 2-d array with at least 2 samples")
    n, q = betas.shape
    max_k = min(n, q)
    if n_components is None:
        n_components = min(n - 1, q)
    if not 1 <= n_components <= max_k:
        raise ValidationError(
            f"cannot extract {n_components} components from {n} samples of dimension {q}"
        )
    mean = betas.mean(axis=0)
    centered = betas - mean
    # SVD of the centered matrix: eigenvalues of the covariance are s^2/(n-1).
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:n_components].copy()
    eigenvalues = (svals[:n_components] ** 2) / (n - 1)
    # Deterministic sign: largest-magnitude entry of each component positive.
    for row in components:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return FpcaModel(mean.copy(), components, eigenvalues)


def scores(
    model: FpcaModel,
    beta: np.ndarray,
    n_components: int | None = None,
    whiten: bool = False,
) -> np.ndarray:
    """Project coordinate vectors onto the principal directions.

    Accepts one vector ``(q,)`` or a batch ``(n, q)``. With whitening each
    score is divided by the component's standard deviation, so training
    scores have unit sample variance.

    Raises
    ------
    DegenerateComponentError
        Whitening requested over a component with variance below 1e-12.
    """
    k = model.n_components if n_components is None else int(n_components)
    if not 1 <= k <= model.n_components:
        raise ValidationError(f"model holds {model.n_components} components, asked {k}")
    comp = model.components[:k]
    lam = model.eigenvalues[:k]
    out = (np.asarray(beta, dtype=float) - model.mean) @ comp.T
    if whiten:
        if np.any(lam < 1e-12):
            raise DegenerateComponentError(
                "cannot whiten a component with near-zero variance"
            )
        out = out / np.sqrt(lam)
    return out


class Standardizer:
    """Per-column z-scoring, the conventional preamble to classical PCA."""

    def __init__(self):
        self.mean_ = None
        self.scale_ = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0, ddof=1)
        scale[scale == 0] = 1.0  # constant columns pass through centered
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

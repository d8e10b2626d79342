"""Non-functional missing-data baselines on a common grid.

Vectors live on a fixed p-point grid with a boolean mask of observed
entries. Mean imputation fills a hole with the column mean over observed
values; k-NN imputation ranks donor samples by the missing-aware distance

    d(x, y) = (1 / |nm(x) & nm(y)|) * sum_{j in nm(x) & nm(y)} (x_j - y_j)^2

(nm(x) = indices observed in x) and fills a hole with the unweighted mean of
the k nearest donors that observe the coordinate. Expert scaling centers and
normalizes each sample over its own observed entries, mirroring functional
centering/reduction without any function representation.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ImputationError, IncomparableSampleError, ScalingError, ValidationError
from .fdata import Dataset


def masked_matrix_from_dataset(dataset: Dataset, grid: np.ndarray):
    """Map a (possibly holed) dataset onto grid-aligned value/mask matrices.

    Every sample abscissa must coincide with a grid point (the holes
    benchmark only removes points, it never moves them).
    """
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    n = len(dataset)
    values = np.zeros((n, p))
    mask = np.zeros((n, p), dtype=bool)
    for i, f in enumerate(dataset.functions):
        idx = np.searchsorted(grid, f.x)
        idx = np.clip(idx, 0, p - 1)
        left = np.clip(idx - 1, 0, p - 1)
        idx = np.where(np.abs(grid[left] - f.x) < np.abs(grid[idx] - f.x), left, idx)
        if not np.allclose(grid[idx], f.x, atol=1e-9, rtol=0):
            raise ValidationError(
                f"function {f.id} has samples off the common grid"
            )
        values[i, idx] = f.y
        mask[i, idx] = True
    return values, mask


class MeanImputer:
    """Column means over the observed entries of the fitted data."""

    def __init__(self):
        self.column_means_ = None

    def fit(self, values: np.ndarray, mask: np.ndarray) -> "MeanImputer":
        mask = np.asarray(mask, dtype=bool)
        counts = mask.sum(axis=0)
        if np.any(counts == 0):
            cols = np.flatnonzero(counts == 0)
            raise ImputationError(
                f"columns {cols.tolist()} are observed in no sample; "
                "their mean is undefined"
            )
        sums = np.where(mask, values, 0.0).sum(axis=0)
        self.column_means_ = sums / counts
        return self

    def transform(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        out[~mask] = np.broadcast_to(self.column_means_, out.shape)[~mask]
        return out


class KnnImputer:
    """Nearest-donor imputation under the missing-aware distance.

    Donors come from the fitted data; for each hole the k nearest donors
    observing that coordinate contribute their unweighted mean. Distance
    ties break toward the lower donor index. When fewer than k donors
    qualify, all qualifying ones are used with a warning.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = int(k)
        self.values_ = None
        self.mask_ = None

    def fit(self, values: np.ndarray, mask: np.ndarray) -> "KnnImputer":
        self.values_ = np.array(values, dtype=float)
        self.mask_ = np.asarray(mask, dtype=bool)
        return self

    def _distances(self, x: np.ndarray, m: np.ndarray, skip: int | None) -> np.ndarray:
        shared = self.mask_ & m[None, :]
        counts = shared.sum(axis=1)
        diff = np.where(shared, self.values_ - x[None, :], 0.0)
        d = np.full(counts.shape, np.inf)  # no shared coordinate: incomparable
        np.divide(np.einsum("ij,ij->i", diff, diff), counts, out=d, where=counts > 0)
        if skip is not None:
            d[skip] = np.inf
        return d

    def transform(
        self, values: np.ndarray, mask: np.ndarray, is_fit_data: bool = False
    ) -> np.ndarray:
        """Fill holes row by row.

        With ``is_fit_data=True`` row i never donates to itself (used when
        imputing the very matrix the imputer was fitted on).
        """
        out = np.array(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        for i in range(out.shape[0]):
            holes = np.flatnonzero(~mask[i])
            if holes.size == 0:
                continue
            d = self._distances(out[i], mask[i], skip=i if is_fit_data else None)
            if not np.any(np.isfinite(d)):
                raise IncomparableSampleError(
                    f"sample {i} shares no observed coordinate with any donor"
                )
            order = np.lexsort((np.arange(d.size), d))  # distance, then index
            for j in holes:
                donors = order[self.mask_[order[:], j] & np.isfinite(d[order])]
                if donors.size == 0:
                    raise ImputationError(
                        f"no donor observes coordinate {j} for sample {i}"
                    )
                if donors.size < self.k:
                    warnings.warn(
                        f"only {donors.size} donors observe coordinate {j} "
                        f"for sample {i}; using all of them",
                        stacklevel=2,
                    )
                use = donors[: self.k]
                out[i, j] = float(np.mean(self.values_[use, j]))
        return out


def expert_scale_matrix(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Center and normalize every row over its own observed entries.

    Observed entries of row ``x`` become
    ``(x_i - mean) / sqrt(sum (x_j - mean)^2)`` with both statistics over
    ``nm(x)``; missing entries stay untouched. Raises :class:`ScalingError`
    naming the first row with fewer than 2 observed entries or constant
    observed values.
    """
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise ScalingError(
            f"row {int(short[0])}: expert scaling needs at least 2 observed entries"
        )
    observed = np.where(mask, values, 0.0)
    mean = observed.sum(axis=1) / counts
    dev = np.where(mask, values - mean[:, None], 0.0)
    denom = np.sqrt(np.einsum("ij,ij->i", dev, dev))
    # unobserved entries read 0 here, which never beats the floor of 1
    scale = np.maximum(1.0, np.max(np.abs(observed), axis=1))
    flat = np.flatnonzero(denom < 1e-12 * scale)
    if flat.size:
        raise ScalingError(
            f"row {int(flat[0])}: observed values are constant; scaling is undefined"
        )
    out = np.array(values, dtype=float)
    out[mask] = (dev / denom[:, None])[mask]
    return out

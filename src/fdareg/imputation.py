"""Non-functional missing-data baselines on a common grid.

Pure matrix code: vectors live on a fixed p-point grid with a boolean mask
of observed entries (:meth:`fdareg.fdata.Grids.on` maps sampled functions
onto such a grid). Mean imputation fills a hole with the column mean over
observed values; k-NN imputation ranks donor samples by the missing-aware
distance

    d(x, y) = (1 / |nm(x) & nm(y)|) * sum_{j in nm(x) & nm(y)} (x_j - y_j)^2

(nm(x) = indices observed in x) and fills a hole with the unweighted mean of
the k nearest donors that observe the coordinate. Expert scaling centers and
normalizes each sample over its own observed entries, mirroring functional
centering/reduction without any function representation.
"""

from __future__ import annotations

import numpy as np

from .errors import ImputationError, IncomparableSampleError, ScalingError, ValidationError


class KnnImputer:
    """Nearest-donor imputation under the missing-aware distance, for a
    grid of neighbor counts ``ks`` at once.

    Donors come from the fitted data; for each hole the k nearest donors
    observing that coordinate contribute their unweighted mean. Distance
    ties break toward the lower donor index. When fewer than k donors
    qualify, all qualifying ones are used, and ``short_fills_`` counts the
    (row, hole, k) fills of the last :meth:`transform` that did so.

    A row's donor ordering does not depend on k, so :meth:`transform`
    orders each row's donors once and fills its holes for every k of the
    grid from that one ordering: a cross-validation fold imputes its rows
    once for the whole k grid.
    """

    def __init__(self, ks):
        self.ks = tuple(int(k) for k in ks)
        if not self.ks or min(self.ks) < 1:
            raise ValidationError("k must be >= 1")
        self.values_ = None
        self.mask_ = None
        self.short_fills_ = 0

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
        """Fill holes row by row, for every k of the grid.

        Returns an ``(n, len(ks), p)`` array: ``out[:, c]`` is ``values``
        with its holes filled from the ``ks[c]`` nearest donors. With
        ``is_fit_data=True`` row i never donates to itself (used when
        imputing the very matrix the imputer was fitted on).

        Each hole gathers its first ``max(ks)`` observing donors into one
        row of a contiguous block, and the fill for k is ``np.mean`` over
        the first k columns, the same sum in the same order as the mean of
        those k donors alone. A hole observed by fewer than k donors is
        filled from all of them, and ``short_fills_`` becomes the number of
        such (row, hole, k) fills.
        """
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        out = np.repeat(values[:, None, :], len(self.ks), axis=1)
        max_k = max(self.ks)
        self.short_fills_ = 0
        for i in range(values.shape[0]):
            holes = np.flatnonzero(~mask[i])
            if holes.size == 0:
                continue
            d = self._distances(values[i], mask[i], skip=i if is_fit_data else None)
            if not np.any(np.isfinite(d)):
                raise IncomparableSampleError(
                    f"sample {i} shares no observed coordinate with any donor"
                )
            order = np.lexsort((np.arange(d.size), d))  # distance, then index
            order = order[np.isfinite(d[order])]
            observes = self.mask_[order[None, :], holes[:, None]]  # (holes, donors)
            counts = observes.sum(axis=1)
            # per hole, the positions in `order` of its first max_k observing
            # donors; a short list runs on into donors that do not observe it
            first = np.argsort(~observes, axis=1, kind="stable")[:, :max_k]
            # C order, so that each row's mean is numpy's pairwise sum of
            # its leading k entries, as for those k values alone
            block = np.ascontiguousarray(self.values_[order[first], holes[:, None]])
            for c, k in enumerate(self.ks):
                out[i, c, holes] = np.mean(block[:, :k], axis=-1)
            for h in np.flatnonzero(counts < max_k):
                if counts[h] == 0:
                    raise ImputationError(
                        f"no donor observes coordinate {holes[h]} for sample {i}"
                    )
                for c, k in enumerate(self.ks):
                    if counts[h] < k:
                        self.short_fills_ += 1
                        out[i, c, holes[h]] = np.mean(block[h, : counts[h]])
        return out


def fill(kind: str, ks, values: np.ndarray, mask: np.ndarray | None,
         new_values: np.ndarray, new_mask: np.ndarray | None) -> tuple[list[tuple], int]:
    """Fill the holes of training rows and of new rows with an imputer
    fitted on the training rows, for every neighbor count of ``ks``.

    Returns one ``(train, new)`` pair of matrices per k, and the number of
    (row, hole, k) fills of both matrices that had fewer than k donors and
    used all of them (always 0 unless ``kind`` is "knn"). ``kind`` "knn"
    fills from :class:`KnnImputer` (a training row never donates to itself),
    ordering each row's donors once for the whole grid, and each pair is
    C-contiguous; "mean" fills the training rows' column means (a column no
    training row observes is an :class:`ImputationError`, which names the
    first 10 such columns and their count) and "none" passes
    the rows through, each for the single pass-through k of its grid.
    """
    if kind == "knn":
        imputer = KnnImputer(ks).fit(values, mask)
        train = _per_k(imputer.transform(values, mask, is_fit_data=True))
        short = imputer.short_fills_
        new = _per_k(imputer.transform(new_values, new_mask))
        return list(zip(train, new)), short + imputer.short_fills_
    if kind == "mean":
        counts = mask.sum(axis=0)
        if np.any(counts == 0):
            unobserved = np.flatnonzero(counts == 0).tolist()
            more = f" ... ({len(unobserved)} in all)" if len(unobserved) > 10 else ""
            raise ImputationError(
                f"columns {unobserved[:10]}{more} are observed in no sample; "
                "their mean is undefined"
            )
        means = np.where(mask, values, 0.0).sum(axis=0) / counts
        return [(np.where(mask, values, means), np.where(new_mask, new_values, means))], 0
    return [(values, new_values)], 0


def _per_k(filled: np.ndarray) -> list[np.ndarray]:
    """The ``(n, p)`` matrix of each k of :meth:`KnnImputer.transform`'s
    ``(n, len(ks), p)`` output, as a contiguous copy."""
    return [np.ascontiguousarray(filled[:, c]) for c in range(filled.shape[1])]


def expert_scale_matrix(values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Center and normalize every row over its own observed entries.

    Observed entries of row ``x`` become
    ``(x_i - mean) / sqrt(sum (x_j - mean)^2)`` with both statistics over
    ``nm(x)``; missing entries stay untouched. A ``mask`` of None means
    every entry is observed. Raises :class:`ScalingError` naming the first
    row with fewer than 2 observed entries or constant observed values.
    """
    mask = np.ones(np.shape(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
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

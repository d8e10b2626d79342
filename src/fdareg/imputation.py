"""Non-functional missing-data baselines on a common grid.

Pure matrix code: vectors live on a fixed p-point grid with a boolean mask
of observed entries (:meth:`fdareg.fdata.Grids.on` maps sampled functions
onto such a grid). Mean imputation fills a hole with the column mean over
observed values; k-NN imputation ranks donor samples by the missing-aware
distance

    d(x, y) = (1 / |nm(x) & nm(y)|) * sum_{j in nm(x) & nm(y)} (x_j - y_j)^2

(nm(x) = indices observed in x) and fills a hole with the unweighted mean of
the k nearest donors that observe the coordinate, ties going to the donor
at the lower position. The distances are an input of the fill, and
:func:`pair_distances` and :func:`cross_distances` are the only code that
forms them. They do not depend on which rows a split holds, so
:func:`pair_distances` forms the training rows' once, each pair once, in an
``(n, n)`` matrix of ``8 n**2`` bytes; a cross-validation fold fills from
slices of it, and :func:`cross_distances` forms new rows' distances to the
training rows. Expert scaling centers and normalizes each sample over its
own observed entries, mirroring functional centering/reduction without any
function representation.
"""

from __future__ import annotations

import numpy as np

from .errors import ImputationError, IncomparableSampleError, ScalingError, ValidationError

#: The (hole, donor) pairs a k-NN fill orders at once, so that its
#: temporaries stay near 0.15 MB however many holes it fills.
FILL_PAIRS = 2**13


def _distances(x: np.ndarray, m: np.ndarray, values: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """The missing-aware distances of one row ``(x, m)`` to each row of
    ``(values, mask)``; inf to a row that shares no observed coordinate."""
    shared = mask & m[None, :]
    counts = shared.sum(axis=1)
    diff = np.where(shared, values - x[None, :], 0.0)
    d = np.full(counts.shape, np.inf)  # no shared coordinate: incomparable
    np.divide(np.einsum("ij,ij->i", diff, diff), counts, out=d, where=counts > 0)
    return d


def pair_distances(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The ``(n, n)`` missing-aware distances among the rows of one matrix,
    for every row with a hole.

    The row of a row with a hole holds its distance to every row, and the
    diagonal reads inf, so that a row never donates to itself; a distance
    between two rows without a hole is not formed and reads NaN. Each
    distance is formed once, for the first of its two rows that has a hole:
    d(x, y) and d(y, x) are the same float, since ``(a - b)**2 == (b -
    a)**2`` and both sum the same shared coordinates in the same order.
    Complete data forms nothing. The matrix costs ``8 n**2`` bytes (0.24 MB
    at 172 rows).
    """
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    n = values.shape[0]
    D = np.full((n, n), np.nan)
    np.fill_diagonal(D, np.inf)
    # the rows not yet formed against: complete rows, and holed rows to come
    pending = np.ones(n, dtype=bool)
    for i in np.flatnonzero(~mask.all(axis=1)):
        pending[i] = False
        others = np.flatnonzero(pending)
        D[i, others] = D[others, i] = _distances(values[i], mask[i], values[others],
                                                 mask[others])
    return D


def cross_distances(new_values: np.ndarray, new_mask: np.ndarray, values: np.ndarray,
                    mask: np.ndarray) -> np.ndarray:
    """The ``(m, n)`` missing-aware distances of each of ``m`` new rows
    with a hole to the ``n`` rows of ``(values, mask)``; a new row without
    a hole reads NaN."""
    new_values = np.asarray(new_values, dtype=float)
    new_mask = np.asarray(new_mask, dtype=bool)
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    D = np.full((new_values.shape[0], values.shape[0]), np.nan)
    for i in np.flatnonzero(~new_mask.all(axis=1)):
        D[i] = _distances(new_values[i], new_mask[i], values, mask)
    return D


class KnnImputer:
    """Nearest-donor imputation under the missing-aware distance, for a
    grid of neighbor counts ``ks`` at once.

    Donors come from the fitted data; for each hole the k nearest donors
    observing that coordinate contribute their unweighted mean. Distance
    ties go to the lower donor position in the fitted matrix. When fewer
    than k donors qualify, all qualifying ones are used, and
    ``short_fills_`` counts the (row, hole, k) fills of the last
    :meth:`transform` that did so.

    The distances are an input: :func:`pair_distances` forms the training
    rows' once, and a cross-validation fold reads its rows' slices of that
    one matrix (:func:`fill`). A row's donor ordering does not depend on k,
    so :meth:`transform` orders the donors once and fills every hole for
    every k of the grid from that one ordering, in array operations.
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

    def transform(self, values: np.ndarray, mask: np.ndarray, distances: np.ndarray,
                  names) -> np.ndarray:
        """Fill every hole of every row, for every k of the grid.

        Returns an ``(n, len(ks), p)`` array: ``out[:, c]`` is ``values``
        with its holes filled from the ``ks[c]`` nearest donors.
        ``distances`` holds each row's distances to the fitted donors, inf
        where a row must not draw from a donor, as :func:`pair_distances`
        (the fitted matrix itself: row i never donates to itself) and
        :func:`cross_distances` (new rows) form them; only the rows with a
        hole are read.

        Each row's donors are ordered by a stable ``argsort`` of its
        distances, so ties go to the lower position. The (row, hole) pairs
        are then filled in row order, in array operations over runs of
        about :data:`FILL_PAIRS` (hole, donor) pairs: each gathers its
        first ``max(ks)`` observing donors into one row of a C-ordered
        block, and the fill for k is ``np.mean`` over the first k
        columns, the same sum in the same order as the mean of those k
        donors alone. A hole observed by fewer than k donors is filled from
        all of them, and ``short_fills_`` becomes the number of such (row,
        hole, k) fills.

        The first row in row order that cannot be filled raises: an
        :class:`IncomparableSampleError` if it shares no observed coordinate
        with any donor, else an :class:`ImputationError` naming its first
        hole that no donor observes. ``names`` holds the rows' ids: the
        error calls row i ``f"function {names[i]}"``.
        """
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        # k-major in memory, so that each k's (n, p) matrix is C-contiguous
        out = np.broadcast_to(values, (len(self.ks), *values.shape)).copy().transpose(1, 0, 2)
        self.short_fills_ = 0
        holed = np.flatnonzero(~mask.all(axis=1))
        if holed.size == 0:
            return out
        order = np.argsort(distances[holed], axis=1, kind="stable")  # distance, then position
        finite = np.take_along_axis(np.isfinite(distances)[holed], order, axis=1)
        row, hole = np.nonzero(~mask[holed])  # every (row, hole), in row order
        ks = np.array(self.ks)
        step = max(1, FILL_PAIRS // max(1, order.shape[1]))
        for lo in range(0, row.size, step):
            r, j = row[lo:lo + step], hole[lo:lo + step]
            observes = self.mask_[order[r], j[:, None]] & finite[r]  # (holes, donors)
            counts = observes.sum(axis=1)
            if not counts.all():
                h = int(np.argmin(counts))  # the first (row, hole) with no donor
                name = f"function {names[holed[r[h]]]}"
                if not finite[r[h]].any():
                    raise IncomparableSampleError(
                        f"{name} shares no observed coordinate with any donor"
                    )
                raise ImputationError(f"no donor observes coordinate {j[h]} for {name}")
            # per hole, the positions in its row's order of its first max(ks)
            # observing donors; a short list runs on into donors that do not
            # observe it
            first = np.argsort(~observes, axis=1, kind="stable")[:, :max(self.ks)]
            # C order, so that each row's mean is numpy's pairwise sum of its
            # leading k entries, as for those k values alone
            block = np.ascontiguousarray(self.values_[order[r[:, None], first], j[:, None]])
            filled = np.stack([np.mean(block[:, :k], axis=-1) for k in self.ks], axis=-1)
            short = counts[:, None] < ks
            self.short_fills_ += int(short.sum())
            for h in np.flatnonzero(short.any(axis=1)):
                filled[h, short[h]] = np.mean(block[h, : counts[h]])
            out[holed[r], :, j] = filled
        return out


def fill(kind: str, ks, values: np.ndarray, mask: np.ndarray | None,
         new_values: np.ndarray, new_mask: np.ndarray | None, distances,
         names) -> tuple[list[tuple], int]:
    """Fill the holes of training rows and of new rows with an imputer
    fitted on the training rows, for every neighbor count of ``ks``.

    Returns one ``(train, new)`` pair of matrices per k, and the number of
    (row, hole, k) fills of both matrices that had fewer than k donors and
    used all of them (always 0 unless ``kind`` is "knn"). ``kind`` "knn"
    fills from :class:`KnnImputer` (a training row never donates to itself),
    ordering each row's donors once for the whole grid, and each pair is
    C-contiguous. Its ``distances`` are the pair ``(D, D_new)``: the
    training rows' distances among themselves, with an inf diagonal, and
    the new rows' to them, as :func:`pair_distances` and
    :func:`cross_distances` form them or slices of those. ``names`` is the
    pair of the ids of each matrix's rows, by which an error names a row,
    as :meth:`KnnImputer.transform` states. The other kinds read neither.
    "mean" fills the training rows' column means (a column no training row
    observes is an :class:`ImputationError`, which names the first 10 such
    columns and their count) and "none" passes the rows through, each for
    the single pass-through k of its grid.
    """
    if kind == "knn":
        D, D_new = distances
        imputer = KnnImputer(ks).fit(values, mask)
        train = _per_k(imputer.transform(values, mask, D, names[0]))
        short = imputer.short_fills_
        new = _per_k(imputer.transform(new_values, new_mask, D_new, names[1]))
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
    ``(n, len(ks), p)`` output, C-contiguous: a view, as that output is
    k-major in memory."""
    return [np.ascontiguousarray(filled[:, c]) for c in range(filled.shape[1])]


def expert_scale_matrix(values: np.ndarray, mask: np.ndarray | None, ids) -> np.ndarray:
    """Center and normalize every row over its own observed entries.

    Observed entries of row ``x`` become
    ``(x_i - mean) / sqrt(sum (x_j - mean)^2)`` with both statistics over
    ``nm(x)``; missing entries stay untouched. A ``mask`` of None means
    every entry is observed. Raises :class:`ScalingError` naming, by its
    entry of ``ids``, the first row with fewer than 2 observed entries or
    constant observed values.
    """
    mask = np.ones(np.shape(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise ScalingError(
            f"function {ids[short[0]]}: expert scaling needs at least 2 observed entries"
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
            f"function {ids[flat[0]]}: observed values are constant; scaling is undefined"
        )
    out = np.array(values, dtype=float)
    out[mask] = (dev / denom[:, None])[mask]
    return out

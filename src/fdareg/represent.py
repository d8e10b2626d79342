"""Least-squares projection of sampled functions onto a basis.

The fit minimizes ``sum_j (y_j - sum_k alpha_k phi_k(x_j))^2`` through an
orthogonal (QR) decomposition of the design matrix, which also yields the
smoother-matrix diagonal needed for the closed-form leave-one-out score.

The numerical path works on whole datasets. Every entry point takes the
functions grouped by identical abscissa array (:class:`fdareg.fdata.Grids`,
built once per dataset by the caller): the union of all abscissas, and per
distinct grid its functions, its rows in the union and its sample matrix.
:func:`fit_dataset` and :func:`loo_scores` evaluate the basis once, on that
union, slice each grid's design rows from the one evaluation and run one
pivoted QR per grid, so spectra sharing one grid cost one factorization and
holed curves cost no extra basis evaluation. The QR and the triangular
solve call LAPACK's ``geqp3``, ``orgqr`` and ``trtrs`` directly, as the
scipy wrappers do but without their per-call workspace queries and input
scans, so each grid costs what LAPACK costs and the results are those of
the wrappers bit for bit (see ``_qr_solve``). The routines come from
:mod:`fdareg._lapack`, which loads scipy's compiled LAPACK module from its
file and, except on Windows, runs no scipy package code (``scipy.linalg``'s
init would double the start-up time). They return an ``(n, q)``
coefficient matrix ``alpha`` (no residuals: a caller that wants them forms
them from it) or ``n`` scores; the scaled coordinates ``beta = alpha U^T``
make canonical dot products of rows equal L2 inner products of the
reconstructed functions.
:func:`select_basis_size` picks the basis size by the summed leave-one-out
score, every candidate size reusing the one grouping; it stops scoring a
size once the size can no longer win, by the exact rule its docstring
states, and the winner's coefficients come from its own LOO fits. There is
no per-function API: one curve is a one-curve grouping, and ``fit`` and
``loo_score`` are only other names of :func:`fit_dataset` and
:func:`loo_scores`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lapack import check_info, dgeqp3, dorgqr, dtrtrs
from .basis import Basis, BSplineBasis, FourierBasis
from .errors import (
    DegenerateLooError,
    FdaregError,
    SelectionError,
    UnidentifiableCoefficientsError,
    ValidationError,
)
from .fdata import Grids

#: Candidates whose triangular factor is worse-conditioned than this are
#: treated as unidentifiable (coefficients numerically unstable).
COND_THRESHOLD = 1e8


@functools.lru_cache(maxsize=None)
def _geqp3_lwork(m: int, q: int) -> int:
    """LAPACK's optimal ``geqp3`` workspace for an ``(m, q)`` design, the
    size ``scipy.linalg.qr`` queries before every factorization. It depends
    on the shape only, so it is queried once per shape."""
    *_, work, info = dgeqp3(np.zeros((m, q), order="F"), lwork=-1)
    check_info("geqp3", info)
    return int(work[0].real)


@functools.lru_cache(maxsize=None)
def _orgqr_lwork(m: int, q: int) -> int:
    """As :func:`_geqp3_lwork`, for forming the ``(m, q)`` ``Q`` factor."""
    _, work, info = dorgqr(np.zeros((m, q), order="F"), np.zeros(q), lwork=-1)
    check_info("orgqr", info)
    return int(work[0].real)


def _qr_solve(design: np.ndarray, Y: np.ndarray):
    """Pivoted-QR least squares of a block of curves sharing one design.

    ``Y`` is ``(m, n)``: one column per curve sampled at the design's rows.
    Returns ``(alpha, resid, hat_diag)`` with ``alpha`` ``(q, n)``, the
    residuals ``resid`` ``(m, n)`` and the design's hat diagonal
    ``rowsum(Q^2)`` ``(m,)``. Raises
    :class:`UnidentifiableCoefficientsError` naming the basis indices whose
    coefficients cannot be estimated when the design is rank-deficient or
    its triangular factor's condition estimate exceeds ``COND_THRESHOLD``.

    LAPACK is called directly: ``geqp3`` factors, ``orgqr`` forms the
    economic ``Q`` and ``trtrs`` solves ``R alpha = Q^T Y``. These are the
    routines ``scipy.linalg.qr(mode="economic", pivoting=True)`` and
    ``scipy.linalg.solve_triangular`` call (:mod:`fdareg._lapack` loads the
    very objects ``scipy.linalg.lapack`` exposes), with the same workspace
    sizes, memory layouts and argument orientation (``R`` C-ordered, so
    ``trtrs`` gets ``R^T`` with ``lower=1, trans=1``), so the outputs are the
    same bit for bit. The wrappers' finiteness scans are left out: a
    :class:`SampledFunction` holds finite samples only and the bases are
    finite on their domain. ``Q`` is formed only once the checks pass, so a
    rank-deficient design costs one factorization.
    """
    m, q = design.shape
    qr, piv, tau, _, info = dgeqp3(design, lwork=_geqp3_lwork(m, q))
    check_info("geqp3", info)
    piv -= 1  # LAPACK's pivots are 1-based
    diag = np.abs(qr.diagonal())
    # Column-pivoted QR has non-increasing |R_kk|; diag[0]/diag[k] estimates
    # the condition number of the leading k-block.
    if m < q or diag[0] == 0.0:
        bad = piv[m:] if diag.size and diag[0] > 0 else np.arange(q)
        raise UnidentifiableCoefficientsError(
            f"design matrix has {m} rows for {q} coefficients; "
            f"unidentifiable basis indices: {sorted(int(i) for i in bad)}",
        )
    bad = piv[diag < diag[0] / COND_THRESHOLD]
    if bad.size:
        raise UnidentifiableCoefficientsError(
            "some basis functions have too few samples in their support; "
            f"unidentifiable basis indices: {sorted(int(i) for i in bad)}",
        )
    # orgqr overwrites the factorization: copy R out first. trtrs reads
    # only the triangle it is told to, so the reflectors below the diagonal
    # need not be zeroed as scipy's triu does.
    rmat = np.ascontiguousarray(qr[:q])
    qmat, _, info = dorgqr(qr, tau, lwork=_orgqr_lwork(m, q), overwrite_a=1)
    check_info("orgqr", info)
    x, info = dtrtrs(rmat.T, qmat.T @ Y, lower=1, trans=1, overwrite_b=1)
    check_info("trtrs", info)
    alpha = np.empty((q, Y.shape[1]))
    alpha[piv] = x
    hat_diag = np.einsum("ij,ij->i", qmat, qmat)
    return alpha, Y - design @ alpha, hat_diag


def _group_fits(grids: Grids, basis: Basis):
    """One QR per distinct sampling grid: yields ``(indices, fit)`` for the
    functions sharing one abscissa array, ``fit`` the :func:`_qr_solve`
    output for their samples.

    The basis is evaluated once, on the union of all abscissas, and each
    grid's design rows are sliced from it. Both bases compute a design row
    from its own point only, so the slice equals ``basis.evaluate(x)``
    bit for bit, and the domain check covers every point through the union.
    The grids are fitted one at a time, so a caller that stops at the
    first failing grid factors no further grid.
    """
    if not grids.blocks:
        return
    design = basis.evaluate(grids.union)
    for idx, rows, Y in grids.blocks:
        yield idx, _qr_solve(design[rows], Y)


def fit_dataset(grids: Grids, basis: Basis) -> np.ndarray:
    """Project every sampled function onto a basis by least squares.

    The basis is evaluated once, on the union of all abscissas; functions
    sampled at identical abscissas share one pivoted QR.

    Returns
    -------
    alpha : ndarray, shape (n, q)
        Row ``i`` holds the coordinates of the ``i``-th grouped function.

    Raises
    ------
    UnidentifiableCoefficientsError
        Rank-deficient or ill-conditioned design on some grid, e.g. a
        B-spline with no samples in its support.
    """
    alpha = np.empty((len(grids), basis.dimension))
    for idx, (a, _, _) in _group_fits(grids, basis):
        alpha[idx] = a.T
    return alpha


class _LooRun:
    """One basis size's leave-one-out over a grouping, one grid at a time.

    ``scores`` holds the per-function scores, 0 where a grid is not scored
    yet, and ``alpha`` the ``(n, q)`` coefficients of the scored grids;
    ``left`` counts the grids still to score. The basis is evaluated on the
    union when the first grid is scored (:func:`_group_fits`).
    """

    def __init__(self, grids: Grids, basis: Basis):
        self.fits = _group_fits(grids, basis)
        self.left = len(grids.blocks)
        self.scores = np.zeros(len(grids))
        self.alpha = np.empty((len(grids), basis.dimension))

    def step(self) -> None:
        """Fit and score the next grid."""
        idx, (alpha, resid, hat) = next(self.fits)
        if np.any(hat >= 1.0 - 1e-12):
            raise DegenerateLooError(
                "hat diagonal reaches 1: leave-one-out undefined (interpolating fit)"
            )
        ratio = resid / (1.0 - hat)[:, None]
        self.scores[idx] = np.add.reduce(ratio**2, axis=0) / len(hat)  # np.mean's steps
        self.alpha[idx] = alpha.T
        self.left -= 1

    def total(self) -> float:
        """The summed score: the total once every grid is scored, and before
        that a lower bound of it (see :func:`select_basis_size`)."""
        return float(np.sum(self.scores))


def loo_scores(grids: Grids, basis: Basis) -> np.ndarray:
    """Closed-form leave-one-out mean squared reconstruction error of every
    function, shape ``(n,)``.

    Equals the naive score from ``m`` refits each omitting one point, but
    costs one basis evaluation per dataset and one fit per distinct grid:
    ``(1/m) sum_i ((y_i - g(x_i)) / (1 - S_ii))^2`` with ``S`` the smoother
    matrix, whose diagonal depends on the grid only.

    Raises
    ------
    DegenerateLooError
        Some ``S_ii`` reaches 1 (interpolating regime, e.g. ``q = m``).
    UnidentifiableCoefficientsError
        As in :func:`fit_dataset`.
    """
    run = _LooRun(grids, basis)
    while run.left:
        run.step()
    return run.scores


# Trace names of the benchmark's ``perfbench/layers.py``: nothing calls them,
# and they go when those targets go.
fit = fit_dataset
loo_score = loo_scores


def _default_candidates(kind: str, order: int, min_m: int) -> list[int]:
    """Dimension grid for selection, every size below the shortest curve's
    ``min_m`` distinct samples: the interpolating size q = m has a hat
    diagonal of 1, which leave-one-out can never score.

    B-splines sweep interior-knot counts {4, 6, ..., min(m - order - 1,
    60)}; Fourier sweeps odd dimensions (complete sine/cosine pairs) from 5
    up to min(m - 1, 61).
    """
    if kind == "bspline":
        top = min(min_m - order - 1, 60)
        return [l + order for l in range(4, top + 1, 2)]
    top = min(min_m - 1, 61)
    return list(range(5, top + 1, 2))


def make_basis(
    kind: str,
    domain: tuple[float, float],
    dimension: int,
    order: int = 4,
) -> Basis:
    """Construct a basis of the requested dimension on a domain.

    B-spline bases place ``dimension - order`` uniform interior knots.
    """
    a, b = domain
    if kind == "bspline":
        n_interior = dimension - order
        if n_interior < 0:
            raise ValidationError(
                f"dimension {dimension} below spline order {order}"
            )
        return BSplineBasis.uniform(a, b, n_interior, order)
    if kind == "fourier":
        return FourierBasis(a, b, dimension)
    raise ValidationError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class BasisSelection:
    """Outcome of dimension selection by total leave-one-out score."""

    dimension: int
    scores: dict[int, float]  # completed dimension -> total LOO, in candidate order
    skipped: dict[int, str]  # failed dimension -> reason, in candidate order
    pruned: list[int]  # dimensions stopped once they could no longer win
    coefficients: np.ndarray  # (n, dimension) coefficients of the winner's LOO fits


def select_basis_size(
    grids: Grids,
    domain: tuple[float, float],
    kind: str = "bspline",
    order: int = 4,
    candidates: Sequence[int] | None = None,
) -> BasisSelection:
    """Choose the basis dimension minimizing the summed leave-one-out score.

    A candidate dimension's score is the total of the per-function LOO
    scores of :func:`loo_scores`; candidates for which any function fails
    with a toolkit error (out-of-range dimension, unidentifiable
    coefficients, degenerate LOO) are skipped and reported. Any other
    exception is a bug and propagates. Ties break toward the smaller
    dimension. Every candidate reuses the one grouping ``grids``.

    A candidate stops being scored once it can no longer win. Each
    candidate first scores the first grid. Then the candidates run on, one
    at a time, in ascending order of ``(partial total, dimension)``, the
    partial total being ``np.sum`` of the score array with the unscored
    functions at 0. Before each further grid, a candidate is stopped
    (``pruned``) if its partial total is strictly greater than the best
    complete total so far. This is exact: the scores are >= 0, ``np.sum``'s
    pairwise tree depends only on the array's length, and a rounded sum
    never falls when a term grows, so the partial total never exceeds the
    complete one. A stopped candidate would end strictly above a complete
    total, and a tied one always completes, so the selection is that of
    scoring every grid of every candidate. A candidate is complete, and in
    ``scores``, when every grid is scored; on one grid (complete spectra)
    every candidate completes in the first pass. A pruned candidate is
    neither scored nor skipped, even if a later grid would have failed.
    ``coefficients`` are the winner's fits from its LOO QRs, bit for bit
    those of :func:`fit_dataset`.

    Raises
    ------
    SelectionError
        No functions, a shortest curve too short for any default candidate
        (named with its sample count), or all candidates infeasible.
    """
    if not len(grids):
        raise SelectionError("no functions to select a basis size for")

    def distinct(block) -> int:
        # the periodic Fourier basis sees samples at both ends as one point
        x = grids.union[block[1]]
        return x.size - (kind == "fourier" and x[0] == domain[0] and x[-1] == domain[1])

    shortest = min(grids.blocks, key=distinct)
    if candidates is None:
        m = distinct(shortest)
        candidates = _default_candidates(kind, order, m)
        if not candidates:
            rule = (f"order-{order} B-splines need at least {order + 5}" if kind == "bspline"
                    else "a Fourier basis needs at least 6")
            ends = ", counting samples at both ends as one" if m < shortest[1].size else ""
            raise SelectionError(
                f"function {grids.ids[shortest[0][0]]} has {shortest[1].size} samples, too few "
                f"to select a basis size: {rule} in every curve{ends}"
            )
    if not candidates:
        raise SelectionError("empty candidate grid")

    runs: dict[int, _LooRun] = {}
    failed: dict[int, str] = {}
    for q in candidates:  # the first grid of every candidate
        try:
            run = _LooRun(grids, make_basis(kind, domain, q, order))
            run.step()
        except FdaregError as exc:  # per-candidate feasibility probe
            failed[q] = f"{type(exc).__name__}: {exc}"
            continue
        runs[q] = run
    best, totals, alphas, pruned = np.inf, {}, {}, []
    for q in sorted(runs, key=lambda q: (runs[q].total(), q)):
        run = runs.pop(q)
        try:
            # go on while the partial total, a lower bound of the complete
            # one, does not exceed the best complete total
            while run.left and run.total() <= best:
                run.step()
        except FdaregError as exc:
            failed[q] = f"{type(exc).__name__}: {exc}"
            continue
        if run.left:
            pruned.append(q)
            continue
        totals[q], alphas[q] = run.total(), run.alpha
        best = min(best, totals[q])
    skipped = {q: failed[q] for q in candidates if q in failed}
    if not totals:
        raise SelectionError(
            f"no feasible candidate among {list(candidates)}; "
            f"first failure: {next(iter(skipped.values()))}"
        )
    scores = {q: totals[q] for q in candidates if q in totals}
    dimension = min(sorted(scores), key=lambda q: scores[q])
    return BasisSelection(dimension, scores, skipped, [q for q in candidates if q in pruned],
                          alphas[dimension])

"""Least-squares projection of sampled functions onto a basis.

The fit minimizes ``sum_j (y_j - sum_k alpha_k phi_k(x_j))^2`` through an
orthogonal (QR) decomposition of the design matrix, which also yields the
smoother-matrix diagonal needed for the closed-form leave-one-out score.

The numerical path works on whole datasets. The functions are grouped by
identical abscissa array once (``_Grids``): the union of all abscissas,
and per distinct grid its functions, its rows in the union and its sample
matrix. :func:`fit_dataset` and :func:`loo_scores` then evaluate the basis
once, on that union, slice each grid's design rows from the one evaluation
and run one pivoted QR per grid, so spectra sharing one grid cost one
factorization and holed curves cost no extra basis evaluation. The QR and
the triangular solve call LAPACK's ``geqp3``, ``orgqr`` and ``trtrs``
directly, as the scipy wrappers do but without their per-call workspace
queries and input scans, so each grid costs what LAPACK costs and the
results are those of the wrappers bit for bit (see ``_qr_solve``). They
return an ``(n, q)`` coefficient matrix or ``n`` scores; the scaled
coordinates ``beta = alpha U^T`` make canonical dot products of rows equal
L2 inner products of the reconstructed functions. :func:`select_basis_size`
picks the basis size by the summed leave-one-out score, grouping the
functions once for every candidate size. There is no per-function API: one
curve is a one-element list, and ``fit`` and ``loo_score`` are only other
names of :func:`fit_dataset` and :func:`loo_scores`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

from .basis import Basis, BSplineBasis, FourierBasis
from .errors import (
    DegenerateLooError,
    FdaregError,
    SelectionError,
    UnidentifiableCoefficientsError,
    ValidationError,
)
from .fdata import SampledFunction

#: Candidates whose triangular factor is worse-conditioned than this are
#: treated as unidentifiable (coefficients numerically unstable).
COND_THRESHOLD = 1e8


@functools.lru_cache(maxsize=None)
def _geqp3_lwork(m: int, q: int) -> int:
    """LAPACK's optimal ``geqp3`` workspace for an ``(m, q)`` design, the
    size ``scipy.linalg.qr`` queries before every factorization. It depends
    on the shape only, so it is queried once per shape."""
    *_, work, info = dgeqp3(np.zeros((m, q), order="F"), lwork=-1)
    _check_info("geqp3", info)
    return int(work[0].real)


@functools.lru_cache(maxsize=None)
def _orgqr_lwork(m: int, q: int) -> int:
    """As :func:`_geqp3_lwork`, for forming the ``(m, q)`` ``Q`` factor."""
    _, work, info = dorgqr(np.zeros((m, q), order="F"), np.zeros(q), lwork=-1)
    _check_info("orgqr", info)
    return int(work[0].real)


def _check_info(routine: str, info: int) -> None:
    """Raise on a LAPACK ``info`` code as scipy's wrappers do."""
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )


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
    ``scipy.linalg.solve_triangular`` call, with the same workspace sizes,
    memory layouts and argument orientation (``R`` C-ordered, so ``trtrs``
    gets ``R^T`` with ``lower=1, trans=1``), so the outputs are the same bit
    for bit. The wrappers' finiteness scans are left out: a
    :class:`SampledFunction` holds finite samples only and the bases are
    finite on their domain. ``Q`` is formed only once the checks pass, so a
    rank-deficient design costs one factorization.
    """
    m, q = design.shape
    qr, piv, tau, _, info = dgeqp3(design, lwork=_geqp3_lwork(m, q))
    _check_info("geqp3", info)
    piv -= 1  # LAPACK's pivots are 1-based
    diag = np.abs(qr.diagonal())
    # Column-pivoted QR has non-increasing |R_kk|; diag[0]/diag[k] estimates
    # the condition number of the leading k-block.
    if m < q or diag[0] == 0.0:
        bad = piv[m:] if diag.size and diag[0] > 0 else np.arange(q)
        raise UnidentifiableCoefficientsError(
            f"design matrix has {m} rows for {q} coefficients; "
            f"unidentifiable basis indices: {sorted(int(i) for i in bad)}",
            indices=sorted(int(i) for i in bad),
        )
    bad = piv[diag < diag[0] / COND_THRESHOLD]
    if bad.size:
        raise UnidentifiableCoefficientsError(
            "some basis functions have too few samples in their support; "
            f"unidentifiable basis indices: {sorted(int(i) for i in bad)}",
            indices=sorted(int(i) for i in bad),
        )
    # orgqr overwrites the factorization: copy R out first. trtrs reads
    # only the triangle it is told to, so the reflectors below the diagonal
    # need not be zeroed as scipy's triu does.
    rmat = np.ascontiguousarray(qr[:q])
    qmat, _, info = dorgqr(qr, tau, lwork=_orgqr_lwork(m, q), overwrite_a=1)
    _check_info("orgqr", info)
    x, info = dtrtrs(rmat.T, qmat.T @ Y, lower=1, trans=1, overwrite_b=1)
    _check_info("trtrs", info)
    alpha = np.empty((q, Y.shape[1]))
    alpha[piv] = x
    hat_diag = np.einsum("ij,ij->i", qmat, qmat)
    return alpha, Y - design @ alpha, hat_diag


class _Grids:
    """A dataset's functions grouped by sampling grid, built once and reused
    for every basis fitted to them.

    ``union`` is the sorted union of all abscissas. ``blocks`` holds, for
    each distinct abscissa array in order of first appearance, the indices
    of the functions sampled there, the grid's row indices into ``union``
    and the ``(m, n)`` matrix of their samples, one column per function.
    """

    def __init__(self, functions: Sequence[SampledFunction]):
        groups: dict[bytes, list[int]] = {}
        for i, f in enumerate(functions):
            groups.setdefault(f.x.tobytes(), []).append(i)
        grids = [functions[idx[0]].x for idx in groups.values()]
        self.size = len(functions)
        self.union = np.unique(np.concatenate(grids)) if grids else np.empty(0)
        self.blocks = [
            (idx, np.searchsorted(self.union, x), np.column_stack([functions[i].y for i in idx]))
            for idx, x in zip(groups.values(), grids)
        ]

    def __len__(self) -> int:
        return self.size


def _group_fits(functions: Sequence[SampledFunction] | _Grids, basis: Basis):
    """One QR per distinct sampling grid: yields ``(indices, fit)`` for the
    functions sharing one abscissa array, ``fit`` the :func:`_qr_solve`
    output for their samples. ``functions`` may be a :class:`_Grids`
    grouping already built, so that several bases share one grouping.

    The basis is evaluated once, on the union of all abscissas, and each
    grid's design rows are sliced from it. Both bases compute a design row
    from its own point only, so the slice equals ``basis.evaluate(x)``
    bit for bit, and the domain check covers every point through the union.
    The grids are fitted one at a time, so a caller that stops at the
    first failing grid factors no further grid.
    """
    grids = functions if isinstance(functions, _Grids) else _Grids(functions)
    if not grids.blocks:
        return
    design = basis.evaluate(grids.union)
    for idx, rows, Y in grids.blocks:
        yield idx, _qr_solve(design[rows], Y)


def fit_dataset(
    functions: Sequence[SampledFunction], basis: Basis
) -> tuple[np.ndarray, np.ndarray]:
    """Project every sampled function onto a basis by least squares.

    The basis is evaluated once, on the union of all abscissas; functions
    sampled at identical abscissas share one pivoted QR.

    Returns
    -------
    alpha : ndarray, shape (n, q)
        Row ``i`` holds the coordinates of ``functions[i]``.
    sse : ndarray, shape (n,)
        Residual sums of squares.

    Raises
    ------
    UnidentifiableCoefficientsError
        Rank-deficient or ill-conditioned design on some grid, e.g. a
        B-spline with no samples in its support.
    """
    alpha = np.empty((len(functions), basis.dimension))
    sse = np.empty(len(functions))
    for idx, (a, resid, _) in _group_fits(functions, basis):
        alpha[idx] = a.T
        sse[idx] = np.einsum("ij,ij->j", resid, resid)
    return alpha, sse


def loo_scores(
    functions: Sequence[SampledFunction] | _Grids, basis: Basis
) -> np.ndarray:
    """Closed-form leave-one-out mean squared reconstruction error of every
    function, shape ``(n,)``.

    Equals the naive score from ``m`` refits each omitting one point, but
    costs one basis evaluation per dataset and one fit per distinct grid:
    ``(1/m) sum_i ((y_i - g(x_i)) / (1 - S_ii))^2`` with ``S`` the smoother
    matrix, whose diagonal depends on the grid only. The functions are
    grouped by grid here unless they come as a :class:`_Grids` grouping,
    as :func:`select_basis_size` passes them to score every candidate.

    Raises
    ------
    DegenerateLooError
        Some ``S_ii`` reaches 1 (interpolating regime, e.g. ``q = m``).
    UnidentifiableCoefficientsError
        As in :func:`fit_dataset`.
    """
    scores = np.empty(len(functions))
    for idx, (_, resid, hat) in _group_fits(functions, basis):
        if np.any(hat >= 1.0 - 1e-12):
            raise DegenerateLooError(
                "hat diagonal reaches 1: leave-one-out undefined (interpolating fit)"
            )
        ratio = resid / (1.0 - hat)[:, None]
        scores[idx] = np.add.reduce(ratio**2, axis=0) / len(hat)  # np.mean's steps
    return scores


# Trace names of the benchmark's ``perfbench/layers.py``: nothing calls them,
# and they go when those targets go.
fit = fit_dataset
loo_score = loo_scores


def _default_candidates(kind: str, order: int, min_m: int) -> list[int]:
    """Dimension grid for selection.

    B-splines sweep interior-knot counts {4, 6, ..., min(m - order, 60)};
    Fourier sweeps odd dimensions (complete sine/cosine pairs) up to the
    same cap.
    """
    if kind == "bspline":
        top = min(min_m - order, 60)
        return [l + order for l in range(4, top + 1, 2)]
    top = min(min_m, 61)
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
    scores: dict[int, float]  # candidate dimension -> total LOO
    skipped: dict[int, str] = field(default_factory=dict)  # dimension -> reason


def select_basis_size(
    functions: Sequence[SampledFunction],
    domain: tuple[float, float],
    kind: str = "bspline",
    order: int = 4,
    candidates: Sequence[int] | None = None,
) -> BasisSelection:
    """Choose the basis dimension minimizing the summed leave-one-out score.

    Every candidate dimension is scored as the total of the per-function
    LOO scores of :func:`loo_scores`; candidates for which any function
    fails with a toolkit error (out-of-range dimension, unidentifiable
    coefficients, degenerate LOO) are skipped and reported. Any other exception is a bug and propagates.
    Ties break toward the smaller dimension.

    The functions are grouped by sampling grid once, and every candidate
    reuses that grouping.

    Raises
    ------
    SelectionError
        No functions, or all candidates infeasible.
    """
    if not functions:
        raise SelectionError("no functions to select a basis size for")
    min_m = min(len(f) for f in functions)
    if candidates is None:
        candidates = _default_candidates(kind, order, min_m)
    if not candidates:
        raise SelectionError("empty candidate grid")

    grids = _Grids(functions)
    scores: dict[int, float] = {}
    skipped: dict[int, str] = {}
    for q in candidates:
        try:
            b = make_basis(kind, domain, q, order)
            scores[q] = float(np.sum(loo_scores(grids, b)))
        except FdaregError as exc:  # per-candidate feasibility probe
            skipped[q] = f"{type(exc).__name__}: {exc}"
    if not scores:
        raise SelectionError(
            f"no feasible candidate among {list(candidates)}; "
            f"first failure: {next(iter(skipped.values()))}"
        )
    best = min(sorted(scores), key=lambda q: scores[q])
    return BasisSelection(best, scores, skipped)


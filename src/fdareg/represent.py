"""Least-squares projection of sampled functions onto a basis.

The fit minimizes ``sum_j (y_j - sum_k alpha_k phi_k(x_j))^2`` through an
orthogonal (QR) decomposition of the design matrix, which also yields the
smoother-matrix diagonal needed for the closed-form leave-one-out score.

The numerical path works on whole datasets: :func:`fit_dataset` and
:func:`loo_scores` evaluate the basis once, on the union of the dataset's
abscissas, group the functions by identical abscissa array, slice each
group's design rows from that one evaluation and run one pivoted QR per
group, so spectra sharing one grid cost one factorization and holed curves
cost no extra basis evaluation. They return an ``(n, q)`` coefficient
matrix or ``n`` scores; the scaled coordinates ``beta = alpha U^T`` make
canonical dot products of rows equal L2 inner products of the
reconstructed functions. :func:`select_basis_size` picks the basis size by
the summed leave-one-out score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .basis import Basis, BSplineBasis, FourierBasis, GramFactor
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


@dataclass(frozen=True)
class Representation:
    """A function's coordinates on a basis, as :func:`fit` returns them.

    ``alpha`` are the raw coordinates, ``beta = U alpha`` the scaled ones.
    ``sse`` is the residual sum of squares of the least-squares fit.
    """

    basis: Basis
    gram: GramFactor
    alpha: np.ndarray
    beta: np.ndarray
    sse: float | None = None

    def __post_init__(self):
        self.alpha.setflags(write=False)
        self.beta.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.alpha.size

    def __call__(self, x) -> np.ndarray:
        """Evaluate the reconstructed function."""
        return self.basis.evaluate(x) @ self.alpha


def _qr_solve(design: np.ndarray, Y: np.ndarray):
    """Pivoted-QR least squares of a block of curves sharing one design.

    ``Y`` is ``(m, n)``: one column per curve sampled at the design's rows.
    Returns ``(alpha, resid, hat_diag)`` with ``alpha`` ``(q, n)``, the
    residuals ``resid`` ``(m, n)`` and the design's hat diagonal
    ``rowsum(Q^2)`` ``(m,)``. Raises
    :class:`UnidentifiableCoefficientsError` naming the basis indices whose
    coefficients cannot be estimated when the design is rank-deficient or
    its triangular factor's condition estimate exceeds ``COND_THRESHOLD``.
    """
    m, q = design.shape
    qmat, rmat, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
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
    alpha = np.empty((q, Y.shape[1]))
    alpha[piv] = scipy.linalg.solve_triangular(rmat, qmat.T @ Y)
    hat_diag = np.einsum("ij,ij->i", qmat, qmat)
    return alpha, Y - design @ alpha, hat_diag


def _group_fits(functions: Sequence[SampledFunction], basis: Basis):
    """One QR per distinct sampling grid: yields ``(indices, fit)`` for the
    functions sharing one abscissa array, ``fit`` the :func:`_qr_solve`
    output for their samples.

    The basis is evaluated once, on the union of all abscissas, and each
    grid's design rows are sliced from it. Both bases compute a design row
    from its own point only, so the slice equals ``basis.evaluate(x)``
    bit for bit, and the domain check covers every point through the union.
    """
    groups: dict[bytes, list[int]] = {}
    for i, f in enumerate(functions):
        groups.setdefault(f.x.tobytes(), []).append(i)
    if not groups:
        return
    grids = [functions[idx[0]].x for idx in groups.values()]
    union = np.unique(np.concatenate(grids))
    design = basis.evaluate(union)
    for idx, x in zip(groups.values(), grids):
        Y = np.column_stack([functions[i].y for i in idx])
        yield idx, _qr_solve(design[np.searchsorted(union, x)], Y)


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


def loo_scores(functions: Sequence[SampledFunction], basis: Basis) -> np.ndarray:
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
    scores = np.empty(len(functions))
    for idx, (_, resid, hat) in _group_fits(functions, basis):
        if np.any(hat >= 1.0 - 1e-12):
            raise DegenerateLooError(
                "hat diagonal reaches 1: leave-one-out undefined (interpolating fit)"
            )
        ratio = resid / (1.0 - hat)[:, None]
        scores[idx] = np.mean(ratio**2, axis=0)
    return scores


# Kept only because the benchmark's tracer patches this name; delete with that target.
def fit(
    f: SampledFunction,
    basis: Basis,
    gram: GramFactor | None = None,
) -> Representation:
    """Project one sampled function onto a basis: a one-row
    :func:`fit_dataset`.

    ``gram`` is reused if given and computed (and cached) from the basis
    otherwise; the result carries ``beta = U alpha``.

    Raises
    ------
    UnidentifiableCoefficientsError
        Rank-deficient or ill-conditioned design, e.g. a B-spline with no
        samples in its support.
    """
    if gram is None:
        gram = basis.gram_factor()
    alpha, sse = fit_dataset([f], basis)
    return Representation(basis, gram, alpha[0], gram.chol @ alpha[0], float(sse[0]))


# Kept only because the benchmark's tracer patches this name; delete with that target.
def loo_score(f: SampledFunction, basis: Basis) -> float:
    """Leave-one-out score of one function: a one-row :func:`loo_scores`."""
    return float(loo_scores([f], basis)[0])


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

    Raises
    ------
    SelectionError
        All candidates infeasible.
    """
    min_m = min(len(f) for f in functions)
    if candidates is None:
        candidates = _default_candidates(kind, order, min_m)
    if not candidates:
        raise SelectionError("empty candidate grid")

    scores: dict[int, float] = {}
    skipped: dict[int, str] = {}
    for q in candidates:
        try:
            b = make_basis(kind, domain, q, order)
            scores[q] = float(np.sum(loo_scores(functions, b)))
        except FdaregError as exc:  # per-candidate feasibility probe
            skipped[q] = f"{type(exc).__name__}: {exc}"
    if not scores:
        raise SelectionError(
            f"no feasible candidate among {list(candidates)}; "
            f"first failure: {next(iter(skipped.values()))}"
        )
    best = min(sorted(scores), key=lambda q: scores[q])
    return BasisSelection(best, scores, skipped)


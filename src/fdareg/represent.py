"""Least-squares projection of sampled functions onto a basis.

The fit minimizes ``sum_j (y_j - sum_k alpha_k phi_k(x_j))^2`` through an
orthogonal (QR) decomposition of the design matrix, which also yields the
smoother-matrix diagonal needed for the closed-form leave-one-out score.
Scaled coordinates ``beta = U alpha`` make canonical dot products equal L2
inner products of the reconstructed functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .basis import Basis, BSplineBasis, FourierBasis, GramFactor
from .errors import (
    BasisMismatchError,
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
    """A function's coordinates on a basis.

    ``alpha`` are the raw coordinates, ``beta = U alpha`` the scaled ones.
    ``sse`` is the residual sum of squares of the least-squares fit; it is
    ``None`` for representations produced by coordinate transforms, which
    no longer correspond to a fitted sample list.
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


def _qr_solve(design: np.ndarray, y: np.ndarray):
    """Pivoted-QR least squares with identifiability checks.

    Returns ``(alpha, fitted, sse, hat_diag)``. Raises
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
    z = qmat.T @ y
    alpha = np.empty(q)
    alpha[piv] = scipy.linalg.solve_triangular(rmat, z)
    fitted = design @ alpha
    resid = y - fitted
    sse = float(resid @ resid)
    hat_diag = np.einsum("ij,ij->i", qmat, qmat)
    return alpha, fitted, sse, hat_diag


def fit(
    f: SampledFunction,
    basis: Basis,
    gram: GramFactor | None = None,
) -> Representation:
    """Project a sampled function onto a basis by least squares.

    Parameters
    ----------
    f : SampledFunction
        Samples ``(x_j, y_j)``; needs at least as many points as basis
        functions, with every basis function's support covered.
    basis : BSplineBasis or FourierBasis
    gram : GramFactor, optional
        Reused if given; computed (and cached) from the basis otherwise.

    Returns
    -------
    Representation
        Coordinates minimizing the residual sum of squares, with scaled
        coordinates ``beta = U alpha`` attached.

    Raises
    ------
    UnidentifiableCoefficientsError
        Rank-deficient or ill-conditioned design, e.g. a B-spline with no
        samples in its support.
    """
    if gram is None:
        gram = basis.gram_factor()
    design = basis.evaluate(f.x)
    alpha, _, sse, _ = _qr_solve(design, f.y)
    return Representation(basis, gram, alpha, gram.chol @ alpha, sse)


def hat_diagonal(f: SampledFunction, basis: Basis) -> np.ndarray:
    """Diagonal of the smoother matrix mapping observed to fitted values.

    Entries lie in [0, 1] and sum to ``q`` for a full-column-rank design.
    """
    design = basis.evaluate(f.x)
    _, _, _, hat = _qr_solve(design, f.y)
    return hat


def loo_score(f: SampledFunction, basis: Basis) -> float:
    """Closed-form leave-one-out mean squared reconstruction error.

    Equals the naive score from ``m`` refits each omitting one point, but
    costs one fit: ``(1/m) sum_i ((y_i - g(x_i)) / (1 - S_ii))^2`` with
    ``S`` the smoother matrix.

    Raises
    ------
    DegenerateLooError
        Some ``S_ii`` reaches 1 (interpolating regime, e.g. ``q = m``).
    """
    design = basis.evaluate(f.x)
    _, fitted, _, hat = _qr_solve(design, f.y)
    if np.any(hat >= 1.0 - 1e-12):
        raise DegenerateLooError(
            "hat diagonal reaches 1: leave-one-out undefined (interpolating fit)"
        )
    ratio = (f.y - fitted) / (1.0 - hat)
    return float(np.mean(ratio**2))


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
    kind: str
    order: int
    domain: tuple[float, float]
    scores: dict[int, float]  # candidate dimension -> total LOO
    skipped: dict[int, str] = field(default_factory=dict)  # dimension -> reason

    def make(self) -> Basis:
        return make_basis(self.kind, self.domain, self.dimension, self.order)


def select_basis_size(
    functions: Sequence[SampledFunction],
    domain: tuple[float, float],
    kind: str = "bspline",
    order: int = 4,
    candidates: Sequence[int] | None = None,
) -> BasisSelection:
    """Choose the basis dimension minimizing the summed leave-one-out score.

    Every candidate dimension is scored as the total of per-function LOO
    scores; candidates for which any function fails with a toolkit error
    (out-of-range dimension, unidentifiable coefficients, degenerate LOO)
    are skipped and reported. Any other exception is a bug and propagates.
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
            scores[q] = sum(loo_score(f, b) for f in functions)
        except FdaregError as exc:  # per-candidate feasibility probe
            skipped[q] = f"{type(exc).__name__}: {exc}"
    if not scores:
        raise SelectionError(
            f"no feasible candidate among {list(candidates)}; "
            f"first failure: {next(iter(skipped.values()))}"
        )
    best = min(sorted(scores), key=lambda q: scores[q])
    return BasisSelection(best, kind, order, tuple(domain), scores, skipped)


def _check_same_basis(r1: Representation, r2: Representation) -> None:
    if r1.basis != r2.basis:
        raise BasisMismatchError(
            f"representations live on different bases: {r1.basis!r} vs {r2.basis!r}"
        )


def to_beta(r: Representation) -> np.ndarray:
    """Scaled coordinates beta = U alpha."""
    return r.beta


def inner(r1: Representation, r2: Representation) -> float:
    """L2 inner product of the reconstructed functions, via beta vectors."""
    _check_same_basis(r1, r2)
    return float(r1.beta @ r2.beta)


def dist(r1: Representation, r2: Representation) -> float:
    """L2 distance of the reconstructed functions, via beta vectors."""
    _check_same_basis(r1, r2)
    return float(np.linalg.norm(r1.beta - r2.beta))

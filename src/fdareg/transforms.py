"""Functional transforms on coordinate matrices: centering, reduction and
derivatives.

Everything here is elementary algebra in the represented function space, so
each transform works directly on coordinates. :func:`transform_dataset`
takes the ``(n, q)`` coefficient matrix of a dataset, one function per row:
the per-function mean is an inner product with the constant one function
(whose coordinates are known in closed form for both basis families), norms
come from the scaled beta rows, and a derivative is one product with the
basis's coefficient map; :func:`row_stats` gives the row-wise statistics.
:func:`functional_stats`, :func:`center_reduce` and :func:`derive` are
one-function views of the same code.

The derivative semi-metric of the pipeline is the Euclidean distance of the
derivatives' beta rows, which kills level shifts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, GramFactor
from .errors import ConstantFunctionError
from .represent import Representation


@dataclass(frozen=True)
class FunctionalScaler:
    """Per-function centering/reduction statistics.

    ``mu`` is the function's domain-average, ``sigma = ||g - mu|| / volume``
    the reduction scale; the reduced function has L2 norm equal to the
    domain volume.
    """

    volume: float
    mu: float
    sigma: float


def row_stats(alpha: np.ndarray, basis: Basis, gram: GramFactor):
    """Centering/reduction statistics of every row of a coefficient matrix.

    Returns ``(volume, mu, sigma, beta)``: the domain volume, the row-wise
    domain-averages and reduction scales of :class:`FunctionalScaler`, and
    the ``(n, q)`` scaled coordinates ``beta = alpha U^T``.
    """
    a, b = basis.domain
    volume = b - a
    beta_one = gram.chol @ basis.constant_coefficients()
    beta = alpha @ gram.chol.T
    mu = (beta @ beta_one) / volume
    sigma = np.linalg.norm(beta - np.outer(mu, beta_one), axis=1) / volume
    return volume, mu, sigma, beta


def _center_reduce_rows(alpha: np.ndarray, basis: Basis, gram: GramFactor) -> np.ndarray:
    volume, mu, sigma, beta = row_stats(alpha, basis, gram)
    norm = np.linalg.norm(beta, axis=1)
    flat = np.flatnonzero(sigma * volume < 1e-12 * np.maximum(norm, 1.0))
    if flat.size:
        raise ConstantFunctionError(
            f"function in row {int(flat[0])} is constant: reduction is undefined"
        )
    return (alpha - np.outer(mu, basis.constant_coefficients())) / sigma[:, None]


def _derive_rows(alpha: np.ndarray, basis: Basis, s: int):
    new_basis, mapping = basis.derivative_basis(s)
    return alpha @ mapping.T, new_basis, new_basis.gram_factor()


def transform_dataset(
    alpha: np.ndarray, basis: Basis, gram: GramFactor, kind: str
) -> tuple[np.ndarray, Basis, GramFactor]:
    """Apply a named per-function transform to a coefficient matrix.

    ``alpha`` is ``(n, q)`` on ``basis`` with Gram factor ``gram``; ``kind``
    is one of ``none``, ``center-reduce``, ``deriv1``, ``deriv2``. Returns
    the transformed ``(alpha, basis, gram)``. Centering/reduction keeps the
    basis and its Gram factor; the s-th derivative lives on the derivative
    basis, whose own (default) Gram factor is returned.

    Raises
    ------
    ConstantFunctionError
        ``center-reduce`` of a row whose centered function is numerically
        zero (no shape left to scale); the message names the first such row.
    """
    if kind == "none":
        return alpha, basis, gram
    if kind == "center-reduce":
        return _center_reduce_rows(alpha, basis, gram), basis, gram
    if kind.startswith("deriv"):
        s = int(kind[len("deriv") :])
        return _derive_rows(alpha, basis, s) if s else (alpha, basis, gram)
    raise ValueError(f"unknown transform {kind!r}")


def _view(alpha: np.ndarray, basis: Basis, gram: GramFactor) -> Representation:
    """The one-row coefficient matrix ``alpha`` as a representation."""
    return Representation(basis, gram, alpha[0], gram.chol @ alpha[0])


def functional_stats(r: Representation) -> FunctionalScaler:
    """Mean and reduction scale of a represented function."""
    volume, mu, sigma, _ = row_stats(r.alpha[None, :], r.basis, r.gram)
    return FunctionalScaler(volume, float(mu[0]), float(sigma[0]))


def center_reduce(r: Representation) -> Representation:
    """Center then scale so the result has L2 norm equal to the domain volume.

    A one-row ``transform_dataset(..., "center-reduce")``; raises
    :class:`ConstantFunctionError` for a constant function.
    """
    return _view(_center_reduce_rows(r.alpha[None, :], r.basis, r.gram), r.basis, r.gram)


def derive(r: Representation, s: int) -> Representation:
    """Representation of the s-th derivative on its own basis.

    B-spline coefficients map through the finite-difference recurrence onto
    the order-(nu - s) basis over the same knots; the new basis gets its own
    Gram factor and beta vector.
    """
    if s == 0:
        return r
    return _view(*_derive_rows(r.alpha[None, :], r.basis, s))

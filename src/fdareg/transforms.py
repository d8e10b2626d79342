"""Functional transforms on coordinate matrices: centering, reduction and
derivatives.

Everything here is elementary algebra in the represented function space, so
each transform works directly on coordinates. :func:`transform_dataset`
takes the ``(n, q)`` coefficient matrix of a dataset, one function per row,
and treats every row on its own: the per-function mean is an inner product
with the constant one function (whose coordinates are known in closed form
for both basis families), norms come from the scaled beta rows, and a
derivative is one product with the basis's coefficient map.
:func:`row_stats` gives the row-wise statistics and :func:`constant_rows`
the rows that cannot be reduced.

The derivative semi-metric of the pipeline is the Euclidean distance of the
derivatives' beta rows, which kills level shifts exactly.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis, GramFactor
from .errors import ConstantFunctionError


def row_stats(alpha: np.ndarray, basis: Basis, gram: GramFactor):
    """Centering/reduction statistics of every row of a coefficient matrix.

    Returns ``(volume, mu, sigma, beta)``: the domain volume, the row-wise
    domain-averages ``mu`` and reduction scales
    ``sigma = ||g - mu|| / volume``, and the ``(n, q)`` scaled coordinates
    ``beta = alpha U^T``. A centered row divided by its ``sigma`` has L2
    norm equal to the domain volume.
    """
    a, b = basis.domain
    volume = b - a
    beta_one = gram.chol @ basis.constant_coefficients()
    beta = alpha @ gram.chol.T
    mu = (beta @ beta_one) / volume
    sigma = np.linalg.norm(beta - np.outer(mu, beta_one), axis=1) / volume
    return volume, mu, sigma, beta


def constant_rows(alpha: np.ndarray, basis: Basis, gram: GramFactor) -> np.ndarray:
    """Boolean mask of the rows whose centered function is numerically
    zero: no shape is left to scale, so their reduction is undefined."""
    volume, _, sigma, beta = row_stats(alpha, basis, gram)
    return sigma * volume < 1e-12 * np.maximum(np.linalg.norm(beta, axis=1), 1.0)


def transform_dataset(
    alpha: np.ndarray, basis: Basis, gram: GramFactor, kind: str
) -> tuple[np.ndarray, Basis, GramFactor]:
    """Apply a named per-function transform to a coefficient matrix.

    ``alpha`` is ``(n, q)`` on ``basis`` with Gram factor ``gram``; ``kind``
    is one of ``none``, ``center-reduce``, ``deriv1``, ``deriv2``. Returns
    the transformed ``(alpha, basis, gram)``. Centering/reduction keeps the
    basis and its Gram factor; the s-th derivative lives on the derivative
    basis, whose own Gram factor is returned.

    Raises
    ------
    ConstantFunctionError
        ``center-reduce`` of a row whose centered function is numerically
        zero (no shape left to scale); the message names the first such row.
    """
    if kind == "none":
        return alpha, basis, gram
    if kind == "center-reduce":
        flat = np.flatnonzero(constant_rows(alpha, basis, gram))
        if flat.size:
            raise ConstantFunctionError(
                f"function in row {int(flat[0])} is constant: reduction is undefined"
            )
        _, mu, sigma, _ = row_stats(alpha, basis, gram)
        ones = basis.constant_coefficients()
        return (alpha - np.outer(mu, ones)) / sigma[:, None], basis, gram
    if kind.startswith("deriv"):
        new_basis, mapping = basis.derivative_basis(int(kind[len("deriv") :]))
        return alpha @ mapping.T, new_basis, new_basis.gram_factor()
    raise ValueError(f"unknown transform {kind!r}")


"""Functional transforms on coordinate matrices: centering, reduction and
derivatives.

Everything here is elementary algebra in the represented function space, so
each transform works directly on coordinates. :func:`transform_dataset`
takes the ``(n, q)`` coefficient matrix of a dataset, one function per row,
and treats every row on its own: the per-function mean is an inner product
with the constant one function (whose coordinates are known in closed form
for both basis families), norms come from the scaled beta rows
``alpha U^T``, where ``U = basis.gram_factor()`` is the upper Cholesky
factor of the basis's Gram matrix, and a derivative is one product with the
basis's coefficient map.
:func:`row_stats` gives the row-wise statistics and the mask of the rows
that cannot be reduced.

The derivative semi-metric of the pipeline is the Euclidean distance of the
derivatives' beta rows, which kills level shifts exactly.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis
from .errors import ConstantFunctionError


def row_stats(alpha: np.ndarray, basis: Basis):
    """Centering/reduction statistics of every row of a coefficient matrix.

    Returns ``(mu, sigma, constant)``: the row-wise domain-averages ``mu``,
    the reduction scales ``sigma = ||g - mu|| / volume``, and the boolean
    mask of the rows whose centered function is numerically zero: no shape
    is left to scale, so their reduction is undefined. A centered row
    divided by its ``sigma`` has L2 norm equal to the domain volume. The
    norms are those of the scaled coordinates ``beta = alpha U^T`` with
    ``U = basis.gram_factor()``.
    """
    a, b = basis.domain
    volume = b - a
    chol = basis.gram_factor()
    beta_one = chol @ basis.constant_coefficients()
    beta = alpha @ chol.T
    mu = (beta @ beta_one) / volume
    sigma = np.linalg.norm(beta - np.outer(mu, beta_one), axis=1) / volume
    constant = sigma * volume < 1e-12 * np.maximum(np.linalg.norm(beta, axis=1), 1.0)
    return mu, sigma, constant


def transform_dataset(alpha: np.ndarray, basis: Basis, kind: str,
                      ids) -> tuple[np.ndarray, Basis]:
    """Apply a named per-function transform to a coefficient matrix.

    ``alpha`` is ``(n, q)`` on ``basis``; ``kind`` is one of ``none``,
    ``center-reduce``, ``deriv1``, ``deriv2``; ``ids`` names the functions
    of the rows (``Grids.ids``) in an error. Returns the transformed
    ``(alpha, basis)``. Centering/reduction keeps the basis; the s-th
    derivative lives on the derivative basis.

    Raises
    ------
    ConstantFunctionError
        ``center-reduce`` of a row whose centered function is numerically
        zero (no shape left to scale); the message names the first such
        function by its id.
    """
    if kind == "none":
        return alpha, basis
    if kind == "center-reduce":
        mu, sigma, constant = row_stats(alpha, basis)
        flat = np.flatnonzero(constant)
        if flat.size:
            raise ConstantFunctionError(
                f"function {ids[flat[0]]} is constant: reduction is undefined"
            )
        ones = basis.constant_coefficients()
        return (alpha - np.outer(mu, ones)) / sigma[:, None], basis
    if kind.startswith("deriv"):
        new_basis, mapping = basis.derivative_basis(int(kind[len("deriv") :]))
        return alpha @ mapping.T, new_basis
    raise ValueError(f"unknown transform {kind!r}")


"""Smooth function bases: B-splines and Fourier series on an interval.

A basis of dimension ``q`` spans a subspace of L2([a, b]). The Gram matrix
``phi[k, l] = <phi_k, phi_l>`` and its Cholesky factor ``U`` (``phi = U^T U``)
turn coordinate vectors ``alpha`` into scaled coordinates ``beta = U alpha``
whose canonical dot products equal L2 inner products of the functions.

B-splines use the clamped (repeated-boundary) knot convention, so the basis
spans every spline on [a, b] and endpoint evaluation is exact.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .errors import DomainError, RankDeficiencyError, UnsupportedOrderError, ValidationError


class KnotVector:
    """Breakpoints of a spline space: order ``nu`` and interior knots.

    The augmented (clamped) sequence repeats each boundary ``nu`` times:
    ``[a]*nu + interior + [b]*nu``. The spanned spline space has dimension
    ``len(interior) + nu``.
    """

    __slots__ = ("a", "b", "order", "interior")

    def __init__(self, a: float, b: float, interior: Sequence[float], order: int):
        a, b = float(a), float(b)
        interior = np.asarray(interior, dtype=float)
        if a >= b:
            raise ValidationError(f"empty domain [{a}, {b}]")
        if order < 1:
            raise ValidationError(f"spline order must be >= 1, got {order}")
        if interior.size:
            if not np.all(np.diff(interior) > 0):
                raise ValidationError("interior knots must be strictly increasing")
            if interior[0] <= a or interior[-1] >= b:
                raise ValidationError("interior knots must lie strictly inside (a, b)")
        interior.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "interior", interior)

    def __setattr__(self, name, value):
        raise AttributeError("KnotVector is immutable")

    @classmethod
    def uniform(cls, a: float, b: float, n_interior: int, order: int) -> "KnotVector":
        """Regular knot placement t_k = a + k (b - a) / (l + 1)."""
        if n_interior < 0:
            raise ValidationError("n_interior must be >= 0")
        ks = np.arange(1, n_interior + 1)
        return cls(a, b, a + ks * (b - a) / (n_interior + 1), order)

    @property
    def augmented(self) -> np.ndarray:
        return np.concatenate(
            [np.full(self.order, self.a), self.interior, np.full(self.order, self.b)]
        )

    @property
    def edges(self) -> np.ndarray:
        """Distinct interval boundaries a, t_1, ..., t_l, b."""
        return np.concatenate([[self.a], self.interior, [self.b]])

    @property
    def key(self) -> tuple:
        return (self.a, self.b, self.order, tuple(self.interior.tolist()))

    def __repr__(self) -> str:
        return (
            f"KnotVector([{self.a}, {self.b}], order={self.order}, "
            f"interior={self.interior.size})"
        )


class GramFactor:
    """Gram matrix ``phi`` of a basis and its Cholesky factor ``U = chol``.

    ``phi`` must be symmetric positive definite; ``U`` is upper triangular
    with ``phi = U^T U``.
    """

    __slots__ = ("phi", "chol")

    def __init__(self, phi: np.ndarray):
        phi = np.asarray(phi, dtype=float)
        scale = np.max(np.abs(phi))
        if scale == 0 or np.max(np.abs(phi - phi.T)) > 1e-12 * scale:
            raise ValidationError("Gram matrix is not symmetric to 1e-12 relative")
        try:
            lower = np.linalg.cholesky(phi)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "Gram matrix is not positive definite: the function system "
                "is redundant (not a free system)"
            ) from None
        chol = lower.T.copy()
        phi = phi.copy()
        phi.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "chol", chol)

    def __setattr__(self, name, value):
        raise AttributeError("GramFactor is immutable")


# Gram factors are cached per basis parameters; population is cheap but
# guarded so concurrent first uses do not race.
_GRAM_CACHE: dict[tuple, GramFactor] = {}
_GRAM_LOCK = threading.Lock()


class _BasisBase:
    """Shared plumbing: domain checks, Gram caching, equality by parameters."""

    @property
    def domain(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        raise NotImplementedError

    def _check_domain(self, pts: np.ndarray) -> None:
        a, b = self.domain
        if pts.size and (np.min(pts) < a or np.max(pts) > b):
            bad = pts[(pts < a) | (pts > b)][0]
            raise DomainError(f"evaluation point {bad} outside [{a}, {b}]")

    def gram_factor(self) -> GramFactor:
        hit = _GRAM_CACHE.get(self.key)
        if hit is not None:
            return hit
        factor = GramFactor(self._gram_matrix())
        with _GRAM_LOCK:
            return _GRAM_CACHE.setdefault(self.key, factor)

    def _gram_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, _BasisBase) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


class BSplineBasis(_BasisBase):
    """B-splines of order ``nu`` on a knot vector (degree ``nu - 1``).

    Evaluation uses the standard stable triangular recurrence on the
    clamped knot sequence; at any point at most ``nu`` functions are
    nonzero and they sum to one.
    """

    __slots__ = ("knots", "_t")

    def __init__(self, knots: KnotVector):
        object.__setattr__(self, "knots", knots)
        t = knots.augmented
        t.setflags(write=False)
        object.__setattr__(self, "_t", t)

    def __setattr__(self, name, value):
        raise AttributeError("BSplineBasis is immutable")

    @classmethod
    def uniform(cls, a: float, b: float, n_interior: int, order: int) -> "BSplineBasis":
        return cls(KnotVector.uniform(a, b, n_interior, order))

    @property
    def order(self) -> int:
        return self.knots.order

    @property
    def domain(self) -> tuple[float, float]:
        return (self.knots.a, self.knots.b)

    @property
    def dimension(self) -> int:
        return self.knots.interior.size + self.knots.order

    @property
    def key(self) -> tuple:
        return ("bspline",) + self.knots.key

    def evaluate(self, x) -> np.ndarray:
        """Evaluate all basis functions.

        Returns the design row ``(phi_1(x), ..., phi_q(x))`` for scalar
        ``x``, or the ``(len(x), q)`` design matrix for an array. Entries
        outside a function's knot span are exactly zero.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        pts = np.atleast_1d(x)
        self._check_domain(pts)

        t = self._t
        k = self.order
        p = k - 1
        q = self.dimension
        n = pts.size
        # Knot span index mu: t[mu] <= x < t[mu+1], clamped so the boundary
        # points (including x == b) fall into a non-degenerate span.
        mu = np.searchsorted(t, pts, side="right") - 1
        mu = np.clip(mu, p, q - 1)

        values = np.zeros((n, k))
        values[:, 0] = 1.0
        for j in range(1, k):
            saved = np.zeros(n)
            for r in range(j):
                denom = t[mu + r + 1] - t[mu + r + 1 - j]
                term = values[:, r] / denom
                values[:, r] = saved + (t[mu + r + 1] - pts) * term
                saved = (pts - t[mu + r + 1 - j]) * term
            values[:, j] = saved

        design = np.zeros((n, q))
        rows = np.arange(n)[:, None]
        cols = mu[:, None] + np.arange(-p, 1)[None, :]
        design[rows, cols] = values
        return design[0] if scalar else design

    def constant_coefficients(self) -> np.ndarray:
        # Partition of unity: the constant one function has all-ones
        # coordinates on a clamped B-spline basis.
        return np.ones(self.dimension)

    def _gram_matrix(self) -> np.ndarray:
        # Gauss-Legendre per knot interval. With nu nodes the rule is exact
        # for products of two degree-(nu-1) polynomial pieces.
        nodes, weights = np.polynomial.legendre.leggauss(self.order)
        edges = self.knots.edges
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        ws = (half[:, None] * weights[None, :]).ravel()
        design = self.evaluate(xs)
        phi = design.T @ (design * ws[:, None])
        return 0.5 * (phi + phi.T)

    def derivative_basis(self, s: int) -> tuple["BSplineBasis", np.ndarray]:
        """Order ``nu - s`` basis on the same interior knots, plus the
        linear map taking order-``nu`` coefficients to the derivative's
        coefficients (the standard finite-difference recurrence).
        """
        if s < 0:
            raise ValueError("derivative order must be >= 0")
        if s >= self.order:
            raise UnsupportedOrderError(
                f"order-{self.order} splines support derivatives up to {self.order - 1}"
            )
        basis = self
        mapping = np.eye(self.dimension)
        for _ in range(s):
            step, lower = basis._derivative_step()
            mapping = step @ mapping
            basis = lower
        return basis, mapping

    def _derivative_step(self) -> tuple[np.ndarray, "BSplineBasis"]:
        t = self._t
        p = self.order - 1
        q = self.dimension
        lower = BSplineBasis(
            KnotVector(self.knots.a, self.knots.b, self.knots.interior, self.order - 1)
        )
        step = np.zeros((q - 1, q))
        span = t[p + 1 : q + p] - t[1:q]  # t[i+p+1] - t[i+1], i = 0..q-2
        coef = p / span
        idx = np.arange(q - 1)
        step[idx, idx] = -coef
        step[idx, idx + 1] = coef
        return step, lower

    def __repr__(self) -> str:
        return f"BSplineBasis(order={self.order}, q={self.dimension})"


class FourierBasis(_BasisBase):
    """Orthonormal Fourier system on [a, b]: constant plus sine/cosine pairs.

    ``phi_1 = 1/sqrt(P)`` with ``P = b - a``; subsequent columns alternate
    ``sqrt(2/P) sin(2 pi j u / P)`` and ``sqrt(2/P) cos(2 pi j u / P)`` with
    ``u = x - a``, truncated to ``q`` functions. The Gram matrix is the
    identity by construction.
    """

    __slots__ = ("a", "b", "_dimension")

    def __init__(self, a: float, b: float, dimension: int):
        if dimension < 1:
            raise ValidationError("Fourier basis needs dimension >= 1")
        if a >= b:
            raise ValidationError(f"empty domain [{a}, {b}]")
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "_dimension", int(dimension))

    def __setattr__(self, name, value):
        raise AttributeError("FourierBasis is immutable")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.a, self.b)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def period(self) -> float:
        return self.b - self.a

    @property
    def key(self) -> tuple:
        return ("fourier", self.a, self.b, self._dimension)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        pts = np.atleast_1d(x)
        self._check_domain(pts)
        P = self.period
        q = self.dimension
        design = np.empty((pts.size, q))
        design[:, 0] = 1.0 / np.sqrt(P)
        amp = np.sqrt(2.0 / P)
        u = pts - self.a
        for col in range(1, q):
            j = (col + 1) // 2
            angle = 2.0 * np.pi * j * u / P
            design[:, col] = amp * (np.sin(angle) if col % 2 == 1 else np.cos(angle))
        return design[0] if scalar else design

    def constant_coefficients(self) -> np.ndarray:
        coef = np.zeros(self.dimension)
        coef[0] = np.sqrt(self.period)
        return coef

    def _gram_matrix(self) -> np.ndarray:
        return np.eye(self.dimension)

    def derivative_basis(self, s: int) -> tuple["FourierBasis", np.ndarray]:
        """Same basis with the closed-form coefficient rotation map.

        Requires complete sine/cosine pairs (odd ``q``): the derivative of
        an unpaired trailing sine needs the missing cosine partner.
        """
        if s < 0:
            raise ValueError("derivative order must be >= 0")
        q = self.dimension
        if s > 0 and q % 2 == 0:
            raise UnsupportedOrderError(
                "Fourier derivatives need complete sine/cosine pairs (odd dimension)"
            )
        step = np.zeros((q, q))
        for j in range(1, (q - 1) // 2 + 1):
            omega = 2.0 * np.pi * j / self.period
            sin_col, cos_col = 2 * j - 1, 2 * j
            step[sin_col, cos_col] = -omega  # (cos)' = -omega sin
            step[cos_col, sin_col] = omega  # (sin)' = omega cos
        return self, np.linalg.matrix_power(step, s)

    def __repr__(self) -> str:
        return f"FourierBasis(q={self.dimension})"


Basis = BSplineBasis | FourierBasis


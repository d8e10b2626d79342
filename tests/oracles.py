"""Reference computations the tests compare the package against.

Each oracle is the slow, direct form of a fast path in ``fdareg``:

- :func:`naive_loo`: ``m`` least-squares refits, each omitting one point;
  the reference for the closed-form leave-one-out score of
  ``represent.loo_scores``.
- :func:`quadrature_grid` and :func:`quadrature_integral`: composite
  Simpson quadrature on a dense grid aligned to the knots; the reference
  for L2 inner products, distances and means computed from beta
  coordinates, and for the orthonormality of the principal functions.
- :func:`gauss_legendre_gram`: a B-spline Gram matrix by Gauss-Legendre
  quadrature with any node count; the reference for ``gram_factor``.
- :func:`dense_grid_pca`: plain SVD PCA of curves sampled on the dense
  grid; the reference for functional PCA on beta coordinates.
- :func:`brute_force_greedy`: forward selection that orthogonalizes every
  candidate by least squares at every step; the reference for the
  selection order of ``rbfn.train_ols_paths``.
- :func:`reference_train_ols`: one ridge at a time with the numpy
  ``W -= outer(w, c)`` deflation; the reference for the lockstep paths of
  ``rbfn.train_ols_paths``.
- :func:`back_substituted_weights`: row-by-row back-substitution; the
  reference for ``RbfnPath.weights``.
- :func:`central_difference_grad`: central differences of a scalar loss;
  the reference for the gradient ``mlp.train`` steps on.
"""

import numpy as np

from fdareg import rbfn


def naive_loo(f, basis):
    """Leave-one-out score of one sampled function by ``m`` plain lstsq
    refits, each omitting one point (no QR path)."""
    design = basis.evaluate(f.x)
    m = len(f)
    total = 0.0
    for i in range(m):
        keep = np.arange(m) != i
        coef, *_ = np.linalg.lstsq(design[keep], f.y[keep], rcond=None)
        total += (f.y[i] - design[i] @ coef) ** 2
    return total / m


def quadrature_grid(edges, total_points=10000):
    """Dense quadrature grid (~total_points nodes) with Simpson weights,
    panels aligned to the given edges.

    Piecewise-polynomial integrands are smooth inside every panel, so the
    10^4-point budget gives far more accuracy than the oracle tolerances.
    """
    edges = np.asarray(edges, dtype=float)
    per = max(int(total_points / (edges.size - 1)) | 1, 5)  # odd count per panel
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = np.linspace(lo, hi, per)
        h = x[1] - x[0]
        w = np.full(per, 2.0)
        w[1::2] = 4.0
        w[[0, -1]] = 1.0
        xs.append(x)
        ws.append(w * h / 3.0)
    return np.concatenate(xs), np.concatenate(ws)


def quadrature_integral(fn, edges, total_points=10000):
    """Composite Simpson integral on the aligned dense grid."""
    xs, ws = quadrature_grid(edges, total_points)
    return float(fn(xs) @ ws)


def gauss_legendre_gram(basis, nodes):
    """Gram matrix of a B-spline basis by ``nodes``-point Gauss-Legendre
    quadrature on every knot interval."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = basis.knots.edges
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    design = basis.evaluate(xs)
    return design.T @ (design * ws[:, None])


def dense_grid_pca(basis, alpha, k):
    """PCA of the functions with coordinates ``alpha`` (one row each),
    sampled on the dense quadrature grid with rows scaled by the square
    root of the weights, so Euclidean dot products are L2 inner products.

    Returns the first ``k`` scores ``(n, k)`` and covariance eigenvalues.
    """
    xs, w = quadrature_grid(basis.knots.edges)
    G = (alpha @ basis.evaluate(xs).T) * np.sqrt(w)
    Gc = G - G.mean(axis=0)
    _, svals, vt = np.linalg.svd(Gc, full_matrices=False)
    return Gc @ vt[:k].T, svals[:k] ** 2 / (alpha.shape[0] - 1)


def brute_force_greedy(F, y, ridge, steps):
    """Selection order by brute force: at each step orthogonalize every
    remaining candidate against the span of the selected columns (via
    lstsq residuals) and pick the best regularized error reduction."""
    n, M = F.shape
    selected = []
    for _ in range(steps):
        best_j, best_red = None, -np.inf
        for j in range(M):
            if j in selected:
                continue
            if selected:
                S = F[:, selected]
                w = F[:, j] - S @ np.linalg.lstsq(S, F[:, j], rcond=None)[0]
            else:
                w = F[:, j]
            energy = w @ w
            if energy <= 1e-12 * (F[:, j] @ F[:, j]):
                continue
            red = (w @ y) ** 2 / (energy + ridge)
            if red > best_red + 1e-12:
                best_red, best_j = red, j
        if best_j is None:
            break
        selected.append(best_j)
    return selected


def reference_train_ols(X, y, width, ridge, max_centers, candidate_idx=None):
    """Reference for ``train_ols_paths``: one ridge at a time, with the
    numpy ``W -= outer(w, c)`` deflation that the lockstep BLAS rank-1
    update replaced. Returns the path and, per step, the share of its
    original energy that the selected column kept."""
    n = X.shape[0]
    candidate_idx = np.arange(n) if candidate_idx is None else np.asarray(candidate_idx)
    n_cand = candidate_idx.size
    F = rbfn.design_matrix(X, X[candidate_idx], width)
    base_energy = np.einsum("ij,ij->j", F, F)
    W = F.copy()
    available = np.ones(n_cand, dtype=bool)
    selected, kept = [], []
    coef_rows = np.zeros((max_centers, n_cand))
    ortho_weights = np.zeros(max_centers)
    objective = [float(y @ y)]
    for step in range(max_centers):
        energy = np.einsum("ij,ij->j", W, W)
        proj = W.T @ y
        usable = available & (energy > rbfn.ENERGY_TOL * base_energy)
        if not np.any(usable):
            break
        reduction = np.full(n_cand, -np.inf)
        reduction[usable] = proj[usable] ** 2 / (energy[usable] + ridge)
        best = int(np.flatnonzero(reduction >= reduction.max() - rbfn.TIE_TOL)[0])
        w_best = W[:, best].copy()
        e_best = energy[best]
        ortho_weights[step] = proj[best] / (e_best + ridge)
        objective.append(objective[-1] - proj[best] ** 2 / (e_best + ridge))
        selected.append(best)
        kept.append(e_best / base_energy[best])
        available[best] = False
        coefs = (w_best @ W) / e_best
        coef_rows[step] = coefs
        W -= np.outer(w_best, coefs)
        W[:, best] = 0.0
    k = len(selected)
    sel = np.array(selected, dtype=int)
    path = rbfn.RbfnPath(
        inputs=X.copy(),
        selected=candidate_idx[sel],
        gs_coefs=np.triu(coef_rows[:k][:, sel], 1) + np.eye(k),
        ortho_weights=ortho_weights[:k],
        objective=np.array(objective),
        width=width,
        ridge=ridge,
    )
    return path, np.array(kept)


def back_substituted_weights(path, k):
    """Reference for ``RbfnPath.weights``: the row-by-row back-substitution
    through the Gram-Schmidt factors that the triangular solve replaced."""
    theta = np.zeros(k)
    for i in range(k - 1, -1, -1):
        theta[i] = path.ortho_weights[i] - path.gs_coefs[i, i + 1 : k] @ theta[i + 1 : k]
    return theta


def central_difference_grad(loss, params, eps=1e-5):
    """Gradient of the scalar ``loss(params)`` by central differences.

    ``eps`` balances truncation (~eps^2) against rounding (~eps_mach/eps).
    """
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss(up) - loss(down)) / (2 * eps)
    return grad

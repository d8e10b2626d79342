"""Reference computations the tests compare the package against.

Each oracle is the slow, direct form of a fast path in ``fdareg``:

- :func:`naive_loo`: ``m`` least-squares refits, each omitting one point;
  the reference for the closed-form leave-one-out score of
  ``represent.loo_scores``.
- :func:`reference_qr_solve`: one grid's least squares through
  ``scipy.linalg.qr`` and ``scipy.linalg.solve_triangular``; the reference,
  bit for bit, for ``represent._qr_solve``, which calls the same LAPACK
  routines directly.
- :func:`quadrature_grid` and :func:`quadrature_integral`: composite
  Simpson quadrature on a dense grid aligned to the knots; the reference
  for L2 inner products, distances and means computed from beta
  coordinates, and for the orthonormality of the principal functions.
- :func:`gauss_legendre_gram`: a B-spline Gram matrix by Gauss-Legendre
  quadrature with any node count; the reference for ``gram_factor``.
- :func:`dense_grid_pca`: plain SVD PCA of curves sampled on the dense
  grid; the reference for functional PCA on beta coordinates.
- :func:`cdist_design`: a Gaussian design through
  ``scipy.spatial.distance.cdist``; the reference for the designs that
  ``rbfn`` builds from its own numpy distances, and the design every other
  RBFN oracle starts from.
- :func:`brute_force_greedy`: forward selection that orthogonalizes every
  candidate by least squares at every step; the reference for the
  selection order of ``rbfn.train_ols_paths``.
- :func:`reference_train_ols`: one ridge at a time with the numpy
  ``W -= outer(w, c)`` deflation; the reference for the lockstep paths of
  ``rbfn.train_ols_paths``.
- :func:`truncated_network`: the k-center network of a path built on its
  own, Gaussian bumps at the first k selected inputs with weights
  ``A[:k, :k]^-1 g[:k]`` from row-by-row back-substitution
  (:func:`back_substituted_weights`); the reference for each column of
  ``RbfnPath.predictions``.
- :func:`reference_predictions`: every truncation's predictions through
  ``cdist`` and ``scipy.linalg.solve_triangular``; the reference, bit for
  bit, for ``RbfnPath.predictions``, which slices the columns of a shared
  numpy distance matrix and calls LAPACK's ``trtrs`` directly.
- :func:`central_difference_grad`: central differences of a scalar loss;
  the reference for the gradient ``mlp.train`` steps on.
- :func:`reference_knn_distances`: one row's missing-aware distances to
  every donor, formed for that row alone; the reference for the shared
  matrices of ``imputation.pair_distances`` and
  ``imputation.cross_distances``, which form each distance once, and the
  source of the distances :func:`fold_major_cv` hands its k-NN fills.
- :func:`reference_knn_transform`: the row-by-row k-grid fill, each row's
  distances formed by :func:`reference_knn_distances` and its donors ordered
  by ``lexsort`` of (distance, position); the reference, bit for bit and in
  its short-fill count and its first error, for
  ``imputation.KnnImputer.transform``, which fills every hole of every row
  in array operations.
- :func:`knn_fill_per_hole`: one k at a time, every hole picking its own
  donors from the row's ordering; the reference for the k-grid fill of
  ``imputation.KnnImputer.transform``.
- :func:`grid_mapping_per_curve`: one ``searchsorted`` and one tolerance
  check per curve; the reference for ``fdata.Grids.on``, which maps the
  union of all abscissas once.
- :func:`reference_lm_train`: damped Gauss-Newton that rebuilds the
  Jacobian, ``J^T J`` and ``J^T r`` of every active restart on every
  iteration; the reference for ``mlp.train``, which rebuilds them only
  after an accepted step.
- :func:`fold_major_cv`: every training call in every fold, fold by fold,
  with nothing pruned, each a one-job stack of the model family's trainer
  (``selection._FAMILIES``), and each split's k-NN
  distances formed row by row for that split; the reference for the
  cross-validation of ``selection.run_experiment``, which stops a call once
  it cannot win and slices one matrix of the training rows' distances.
- :func:`full_select_basis_size`: every grid of every candidate basis size
  scored, with nothing pruned; the reference for
  ``represent.select_basis_size``, which stops a size once it cannot win.
"""

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from fdareg import mlp, rbfn, represent, selection
from fdareg.cv import derive_seed, make_folds, rmse
from fdareg.errors import (
    FdaregError,
    ImputationError,
    IncomparableSampleError,
    UnidentifiableCoefficientsError,
    ValidationError,
)
from fdareg.fdata import Grids
from fdareg.represent import COND_THRESHOLD


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


def reference_qr_solve(design, Y):
    """``(alpha, resid, hat_diag)`` of ``represent._qr_solve`` through the
    scipy wrappers: pivoted economic QR, then a triangular solve. Raises the
    same :class:`UnidentifiableCoefficientsError`, with the same indices."""
    m, q = design.shape
    qmat, rmat, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
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
    edges = basis.edges
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
    xs, w = quadrature_grid(basis.edges)
    G = (alpha @ basis.evaluate(xs).T) * np.sqrt(w)
    Gc = G - G.mean(axis=0)
    _, svals, vt = np.linalg.svd(Gc, full_matrices=False)
    return Gc @ vt[:k].T, svals[:k] ** 2 / (alpha.shape[0] - 1)


def cdist_design(X, C, width):
    """Gaussian design ``exp(-d(x, c)^2 / (2 width^2))`` with the squared
    distances from ``scipy.spatial.distance.cdist``."""
    d2 = cdist(np.atleast_2d(X), np.atleast_2d(C), "sqeuclidean")
    return np.exp(-d2 / (2.0 * width**2))


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


def reference_train_ols(X, y, width, ridge, max_centers):
    """Reference for ``train_ols_paths``: one ridge at a time, with the
    numpy ``W -= outer(w, c)`` deflation that the lockstep BLAS rank-1
    update replaced. Returns the path and, per step, the share of its
    original energy that the selected column kept."""
    n_cand = X.shape[0]
    F = cdist_design(X, X, width)
    base_energy = np.einsum("ij,ij->j", F, F)
    W = F.copy()
    available = np.ones(n_cand, dtype=bool)
    selected, kept = [], []
    coef_rows = np.zeros((max_centers, n_cand))
    ortho_weights = np.zeros(max_centers)
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
        n_inputs=n_cand,
        selected=sel,
        gs_coefs=np.triu(coef_rows[:k][:, sel], 1) + np.eye(k),
        ortho_weights=ortho_weights[:k],
        width=width,
    )
    return path, np.array(kept)


def back_substituted_weights(path, k):
    """Output weights of the k-center truncation of ``path``,
    ``A[:k, :k]^-1 g[:k]``, by row-by-row back-substitution through the
    Gram-Schmidt factors."""
    theta = np.zeros(k)
    for i in range(k - 1, -1, -1):
        theta[i] = path.ortho_weights[i] - path.gs_coefs[i, i + 1 : k] @ theta[i + 1 : k]
    return theta


def truncated_network(path, inputs, k, X):
    """Reference for column ``k - 1`` of ``RbfnPath.predictions``: the
    k-center network built on its own, Gaussian bumps of the path's width
    at ``inputs[selected[:k]]`` (``inputs`` being the path's training
    inputs) with the back-substituted weights, evaluated on the rows of
    ``X``."""
    centers = inputs[path.selected[:k]]
    d2 = np.sum((np.atleast_2d(X)[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * path.width**2)) @ back_substituted_weights(path, k)


def reference_predictions(path, inputs, X):
    """``RbfnPath.predictions`` on the rows of ``X`` for a path trained on
    ``inputs``, through ``cdist`` and ``scipy.linalg.solve_triangular``:
    ``cumsum((D A^-1) * g, axis=1)`` with ``(D A^-1)^T = A^-T D^T``."""
    design = cdist_design(X, inputs[path.selected], path.width)
    ortho = scipy.linalg.solve_triangular(
        path.gs_coefs, design.T, trans="T", unit_diagonal=True
    )
    return np.cumsum(ortho.T * path.ortho_weights, axis=1)


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


def reference_knn_distances(donors, donor_mask, x, m, skip=None):
    """One row ``(x, m)``'s missing-aware distances to every donor row, inf
    to a donor sharing no observed coordinate with it and at position
    ``skip``."""
    shared = donor_mask & m[None, :]
    counts = shared.sum(axis=1)
    diff = np.where(shared, donors - x[None, :], 0.0)
    d = np.full(counts.shape, np.inf)
    np.divide(np.einsum("ij,ij->i", diff, diff), counts, out=d, where=counts > 0)
    if skip is not None:
        d[skip] = np.inf
    return d


def reference_knn_transform(imputer, values, mask, is_fit_data=False):
    """Reference for ``KnnImputer.transform``: a loop over the rows, each
    forming its own distances and ordering its donors by ``lexsort`` of
    (distance, position). Returns the ``(n, len(ks), p)`` fill and the count
    of (row, hole, k) fills with fewer than k donors; raises for the first
    row that cannot be filled, naming it ``function i``: its ids are its
    positions."""
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    out = np.repeat(values[:, None, :], len(imputer.ks), axis=1)
    max_k = max(imputer.ks)
    short_fills = 0
    for i in range(values.shape[0]):
        holes = np.flatnonzero(~mask[i])
        if holes.size == 0:
            continue
        d = reference_knn_distances(imputer.values_, imputer.mask_, values[i], mask[i],
                                    skip=i if is_fit_data else None)
        if not np.any(np.isfinite(d)):
            raise IncomparableSampleError(
                f"function {i} shares no observed coordinate with any donor"
            )
        order = np.lexsort((np.arange(d.size), d))  # distance, then position
        order = order[np.isfinite(d[order])]
        observes = imputer.mask_[order[None, :], holes[:, None]]  # (holes, donors)
        counts = observes.sum(axis=1)
        first = np.argsort(~observes, axis=1, kind="stable")[:, :max_k]
        block = np.ascontiguousarray(imputer.values_[order[first], holes[:, None]])
        for c, k in enumerate(imputer.ks):
            out[i, c, holes] = np.mean(block[:, :k], axis=-1)
        for h in np.flatnonzero(counts < max_k):
            if counts[h] == 0:
                raise ImputationError(
                    f"no donor observes coordinate {holes[h]} for function {i}"
                )
            for c, k in enumerate(imputer.ks):
                if counts[h] < k:
                    short_fills += 1
                    out[i, c, holes[h]] = np.mean(block[h, : counts[h]])
    return out, short_fills


def knn_fill_per_hole(imputer, values, mask, k, is_fit_data=False):
    """Reference for ``KnnImputer.transform``: the per-hole loop for one
    ``k``, with the donors of each hole listed and averaged on their own.
    Uses the fitted donors of ``imputer`` and :func:`reference_knn_distances`;
    returns the ``(n, p)`` filled matrix and counts no short donor lists."""
    out = np.array(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    for i in range(out.shape[0]):
        holes = np.flatnonzero(~mask[i])
        if holes.size == 0:
            continue
        d = reference_knn_distances(imputer.values_, imputer.mask_, out[i], mask[i],
                                    skip=i if is_fit_data else None)
        order = np.lexsort((np.arange(d.size), d))  # distance, then index
        for j in holes:
            donors = order[imputer.mask_[order, j] & np.isfinite(d[order])]
            out[i, j] = float(np.mean(imputer.values_[donors[:k], j]))
    return out


def grid_mapping_per_curve(dataset, grid):
    """Map a (possibly holed) dataset onto grid-aligned value/mask matrices,
    one curve at a time: each abscissa goes to its nearest grid point, which
    must lie within 1e-9 of it."""
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    n = len(dataset)
    values = np.zeros((n, p))
    mask = np.zeros((n, p), dtype=bool)
    for i, f in enumerate(dataset.functions):
        idx = np.searchsorted(grid, f.x)
        idx = np.clip(idx, 0, p - 1)
        left = np.clip(idx - 1, 0, p - 1)
        idx = np.where(np.abs(grid[left] - f.x) < np.abs(grid[idx] - f.x), left, idx)
        if not np.allclose(grid[idx], f.x, atol=1e-9, rtol=0):
            raise ValidationError(f"function {f.id} has samples off the common grid")
        values[i, idx] = f.y
        mask[i, idx] = True
    return values, mask


def reference_lm_train(X, y, hidden, decay, restarts=60, seed=None, max_iter=mlp.MAX_ITER):
    """Reference for ``mlp.train``: the loop that rebuilds the Gauss-Newton
    system of every active restart on every iteration, rejected steps
    included. Returns ``(model, accepted, jacobian_rows)``: the trained
    model, the number of accepted steps over all restarts and the number
    of restart rows passed to ``mlp._jacobian``. For finite inputs with
    finite initial losses, the only ones ``mlp.train`` accepts."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    dim = X.shape[1]
    sv, sb, sw, ib0 = mlp._shapes(hidden, dim)
    n_params = hidden * dim + 2 * hidden + 1
    weight_mask = np.zeros(n_params)
    weight_mask[sv] = 1.0
    weight_mask[sw] = 1.0
    accepted = jacobian_rows = 0

    params = mlp.init_params(seed, hidden, dim, restarts)
    loss, resid, act = mlp._batched_loss(params, X, y, hidden, decay)
    active = np.isfinite(loss)
    mu = np.full(restarts, 1e-2)

    decay_diag = decay * np.diag(weight_mask)
    decay_mask = decay * weight_mask
    diagonal = np.arange(n_params)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        p_a, act_a, resid_a = params[idx], act[idx], resid[idx]
        J = mlp._jacobian(p_a, X, act_a, hidden)
        jacobian_rows += idx.size

        jtj = np.matmul(J.transpose(0, 2, 1), J)
        jtj += decay_diag
        grad_half = np.einsum("rnp,rn->rp", J, resid_a) - decay_mask * p_a

        gnorm = np.linalg.norm(grad_half, axis=1) * 2.0
        live = gnorm > mlp.GRAD_TOL * (1.0 + np.abs(loss[idx]))
        active[idx[~live]] = False
        if not np.any(live):
            continue
        idx, jtj, grad_half, p_a = idx[live], jtj[live], grad_half[live], p_a[live]

        jtj[:, diagonal, diagonal] += mu[idx][:, None]
        try:
            step = np.linalg.solve(jtj, grad_half[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack(
                [np.linalg.lstsq(a, g, rcond=None)[0] for a, g in zip(jtj, grad_half)]
            )

        trial = p_a + step
        trial_loss, trial_resid, trial_act = mlp._batched_loss(trial, X, y, hidden, decay)
        improved = np.isfinite(trial_loss) & (trial_loss < loss[idx])

        up = idx[improved]
        accepted += up.size
        params[up] = trial[improved]
        resid[up] = trial_resid[improved]
        act[up] = trial_act[improved]
        loss[up] = trial_loss[improved]
        mu[up] = np.maximum(mu[up] / 3.0, 1e-14)
        down = idx[~improved]
        mu[down] *= 2.0
        active[idx[mu[idx] > 1e12]] = False

    return mlp.unpack(params[int(np.argmin(loss))], hidden, dim), accepted, jacobian_rows


def reference_split_distances(values, mask, new_values, new_mask):
    """The ``(D, D_new)`` pair a k-NN fill reads for one split, every row's
    distances formed for that row alone by :func:`reference_knn_distances`:
    the training rows' to each other (a row never donates to itself) and
    the new rows' to the training rows."""
    D = [reference_knn_distances(values, mask, x, m, skip=i)
         for i, (x, m) in enumerate(zip(values, mask))]
    D_new = [reference_knn_distances(values, mask, x, m) for x, m in zip(new_values, new_mask)]
    return (np.reshape(D, (len(values), len(values))),
            np.reshape(D_new, (len(new_values), len(values))))


def _train_call(spec, inputs, y, k_imp, n_comp, call, fold):
    """The family's stack trainer on one job: its models, or its error raised."""
    [trained] = selection._FAMILIES[spec.model].train(spec, [(inputs, y, k_imp, n_comp, call,
                                                              fold)])
    if isinstance(trained, FdaregError):
        raise trained
    return trained


def fold_major_cv(spec, train, test):
    """Reference for ``selection.run_experiment``'s cross-validation: each
    fold trains every call on every imputation k and PCA size in turn, a
    cell's score is the mean of its fold errors summed in fold order, the
    lowest score of a cell scored in every fold wins with ties broken toward
    the smallest cell, and the winner is refitted on the whole training
    set. A failed training or a non-finite error leaves the cells unscored
    in that fold. Returns ``(selected, cv_score, test_rmse)``, or None when
    no cell is scored in every fold. For rows whose PCA sizes every fold can
    fit and whose fold preparations and refit succeed."""
    family = selection._FAMILIES[spec.model]
    stage = selection._Stage1(spec, train)
    values, mask = stage.train_values, stage.train_mask
    ids = np.array([f.id for f in train.functions])
    y = train.targets
    plan = make_folds(len(train), spec.folds, derive_seed(spec.seed, "folds"))
    ks = spec.impute.grid()
    comp_grid = spec.pca.grid(spec.model) if spec.pca.kind != "none" else (0,)

    def rows(idx):
        return values[idx], None if mask is None else mask[idx]

    def distances(train_rows, new_rows):
        return (reference_split_distances(*train_rows, *new_rows)
                if spec.impute.kind == "knn" else None)

    table = {}  # cell -> (summed fold errors, folds scored)
    for fold_i, (tr, va) in enumerate(plan):
        inputs, failures, _ = selection._prepare(
            spec, ks, comp_grid, rows(tr), rows(va), distances(rows(tr), rows(va)),
            (ids[tr], ids[va]))
        if failures:  # a failed preparation is not expected
            raise failures[0][2]
        for (k_imp, n_comp), prepared in inputs.items():
            for call, _ in family.calls(spec):
                try:
                    trained = _train_call(spec, prepared, y[tr], k_imp, n_comp, call, fold_i)
                except FdaregError:  # the call's cells are unscored in this fold
                    continue
                for cells, P in trained:
                    mse = np.sum((P - y[va][:, None]) ** 2, axis=0) / va.size
                    for cell, error in zip(cells, mse):
                        if not np.isfinite(error):
                            continue
                        total, folds = table.get(cell, (0.0, 0))
                        table[cell] = (total + float(error), folds + 1)
    scores = {cell: total / len(plan) for cell, (total, folds) in table.items()
              if folds == len(plan)}
    if not scores:
        return None
    best = min(sorted(scores), key=scores.get)

    k_imp, n_comp, *params = best
    test_rows = stage.features(Grids(test.functions))
    inputs, failures, _ = selection._prepare(
        spec, (k_imp,), (n_comp,), (values, mask), test_rows,
        distances((values, mask), test_rows), (ids, [f.id for f in test.functions]))
    if failures:
        raise failures[0][2]
    [(cells, P)] = _train_call(spec, inputs[k_imp, n_comp], y, k_imp, n_comp,
                              (params[0], (params[1],), *params[2:]), None)
    selected = {}
    if spec.impute.kind == "knn":
        selected["impute_k"] = k_imp
    if spec.pca.kind != "none":
        selected["n_components"] = n_comp
    selected.update(zip(family.params, cells[-1][2:]))
    return selected, scores[best], rmse(P[:, -1], test.targets)


def full_select_basis_size(grids, domain, kind, order, candidates):
    """Reference for ``represent.select_basis_size``: every candidate size
    scores every grid, its total is ``np.sum`` of the per-function scores of
    ``represent.loo_scores``, a size with a toolkit error is skipped, and
    the least total wins with ties broken toward the smaller size. Returns
    ``(dimension, scores, skipped)``, ``dimension`` None when every size is
    skipped."""
    scores, skipped = {}, {}
    for q in candidates:
        try:
            b = represent.make_basis(kind, domain, q, order)
            scores[q] = float(np.sum(represent.loo_scores(grids, b)))
        except FdaregError as exc:
            skipped[q] = f"{type(exc).__name__}: {exc}"
    return min(sorted(scores), key=scores.get, default=None), scores, skipped

"""One-hidden-layer perceptron with weight decay and multi-restart
second-order training.

The network realizes ``out_bias + sum_h w_h tanh(b_h + v_h . x)`` on
coordinate vectors; its first layer is the coordinate image of a functional
neuron (an inner product with a weight function plus bias, passed through a
sigmoid). Training minimizes the sum of squared errors plus a weight-decay
penalty on all non-bias weights, using Levenberg-style damped Gauss-Newton:
accepted steps never increase the regularized loss. As in textbook
Levenberg-Marquardt, the Gauss-Newton system of a restart is rebuilt only
after an accepted step; a rejected step only raises the damping. A restart
ends at the first of four exits: its gradient is small (``GRAD_TOL``), an
accepted step's actual and predicted relative reductions are both at most
``FTOL`` (a form of MINPACK's ``ftol`` test, without its condition that
the actual reduction be at most twice the predicted one), its damping
passes 1e12, or the budget ``max_iter`` is spent. Many random restarts
run in parallel (batched linear algebra) and the best final loss wins.

A call trains a stack of jobs, each with its own training set, network
size, decay and seeds, and one network is a one-job stack; the jobs of
one shape share training loops, in which every restart of every job is a
row of the same batched arrays. Small networks spend an iteration in
numpy's per-call overhead, not in arithmetic, so one loop over five jobs
of 8 restarts costs far less than five loops. Cross-validation hands
:func:`train` its trainings in stacks, one call's remaining folds at a
time (``selection.run_experiment``), and the final refit one job;
:func:`train` decides which share a loop. Each job comes out bit for bit
as if trained alone; :func:`train` states why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError

#: Gradient-norm convergence tolerance, relative to (1 + loss).
GRAD_TOL = 1e-8
#: Relative-reduction stop (a form of MINPACK's ``ftol``; :func:`train`), 0 for none:
#: an accepted step that lowers the loss this little ends its restart.
FTOL = 1e-5
MAX_ITER = 500

#: Default restart count of a final refit (``selection.MlpSettings``), and the
#: most restarts one training loop holds: no cross-validation loop outgrows a
#: default final refit.
RESTARTS = 60

#: Most bytes the Jacobian of one training loop may hold, unless one job
#: alone needs more; a larger group trains in several loops. Stacking
#: saves numpy's per-call overhead, which dominates small networks, but
#: once the batched arrays outgrow the cache a wide network loses more than
#: that: six 10-restart jobs at n = 129 trained 13-44 % faster stacked than
#: alone at hidden 1 (d = 6 to 18), and 4-12 % slower at hidden 3 to 6
#: (d = 12 to 18, at least 57 KB of Jacobian per restart), on a 2-vCPU host.
STACK_BYTES = 2**20

#: Default meta-parameter grids, cross-validated by ``selection.run_experiment``.
HIDDEN_GRID = (1, 2, 3, 4, 5, 6)
DECAY_GRID = tuple(10.0**e for e in range(-5, 1))


@dataclass(frozen=True)
class MlpModel:
    """Trained perceptron: tanh hidden layer, identity output unit."""

    hidden_weights: np.ndarray  # (H, d)
    hidden_biases: np.ndarray  # (H,)
    output_weights: np.ndarray  # (H,)
    output_bias: float

    def __post_init__(self):
        self.hidden_weights.setflags(write=False)
        self.hidden_biases.setflags(write=False)
        self.output_weights.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Network outputs ``(n,)`` for a batch of inputs ``(n, d)``."""
    X = np.asarray(X, dtype=float)
    if X.shape[1:] != (model.input_dim,):
        raise ValidationError(
            f"inputs of shape {X.shape} are not rows of the model dimension "
            f"{model.input_dim}"
        )
    act = np.tanh(X @ model.hidden_weights.T + model.hidden_biases)
    return act @ model.output_weights + model.output_bias


def _shapes(hidden: int, dim: int) -> tuple[slice, slice, slice, int]:
    """Parameter-vector layout: [V.ravel, b, w, b0]."""
    n_v = hidden * dim
    return (
        slice(0, n_v),
        slice(n_v, n_v + hidden),
        slice(n_v + hidden, n_v + 2 * hidden),
        n_v + 2 * hidden,
    )


def unpack(params: np.ndarray, hidden: int, dim: int) -> MlpModel:
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    return MlpModel(
        params[sv].reshape(hidden, dim).copy(),
        params[sb].copy(),
        params[sw].copy(),
        float(params[ib0]),
    )


def init_params(
    seed: int | None, hidden: int, dim: int, n_restarts: int
) -> np.ndarray:
    """Uniform [-0.7, 0.7] initialization scaled by 1/sqrt(fan-in).

    Each restart draws from its own child stream of ``seed``, so restart r
    is the same no matter how many restarts run alongside it.
    """
    n_params = hidden * dim + 2 * hidden + 1
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    params = np.empty((n_restarts, n_params))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_restarts)):
        rng = np.random.default_rng(child)
        params[r, sv] = rng.uniform(-0.7, 0.7, hidden * dim) / np.sqrt(dim)
        params[r, sb] = rng.uniform(-0.7, 0.7, hidden)
        params[r, sw] = rng.uniform(-0.7, 0.7, hidden) / np.sqrt(hidden)
        params[r, ib0] = rng.uniform(-0.7, 0.7)
    return params


def _batched_loss(params, X, y, hidden, decay):
    """Regularized loss per restart. params: (R, P); X ``(n, d)`` and y
    ``(n,)`` shared by every restart, or ``(R, n, d)`` and ``(R, n)`` one per
    restart, and decay a number or ``(R,)``."""
    R = params.shape[0]
    n, dim = X.shape[-2:]
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    V = params[:, sv].reshape(R, hidden, dim)
    rows = "nd" if X.ndim == 2 else "rnd"
    act = np.tanh(np.einsum(f"{rows},rhd->rnh", X, V) + params[:, sb][:, None, :])
    out = np.einsum("rnh,rh->rn", act, params[:, sw]) + params[:, ib0][:, None]
    resid = y - out
    pen = np.einsum("rp,rp->r", params[:, sv], params[:, sv])
    pen += np.einsum("rh,rh->r", params[:, sw], params[:, sw])
    return np.einsum("rn,rn->r", resid, resid) + decay * pen, resid, act


def _jacobian(params, X, act, hidden):
    """Jacobian ``(R, n, P)`` of the outputs w.r.t. ``params`` ``(R, P)``,
    from the hidden activations ``act`` ``(R, n, H)`` at those parameters;
    ``X`` is ``(n, d)``, or ``(R, n, d)`` one per restart."""
    (R, n_params), (n, dim) = params.shape, X.shape[-2:]
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    wsech = params[:, None, sw] * (1.0 - act**2)  # d out / d b_h, (r, n, H)
    J = np.empty((R, n, n_params))
    J[:, :, sv] = (wsech[:, :, :, None] * X[..., None, :]).reshape(R, n, hidden * dim)
    J[:, :, sb] = wsech
    J[:, :, sw] = act
    J[:, :, ib0] = 1.0
    return J


def train(
    X: np.ndarray,
    y: np.ndarray,
    hidden,
    decay,
    restarts: int,
    seed,
    max_iter: int = MAX_ITER,
) -> list:
    """Fit a stack of perceptrons, each from many random initializations.

    Each restart runs damped Gauss-Newton on the residual vector
    (data residuals plus sqrt(decay)-scaled weight residuals); steps are
    only accepted when they strictly decrease the regularized loss. It
    ends at the first of four exits:

    - the gradient norm falls below ``GRAD_TOL * (1 + loss)``;
    - an accepted step ``h`` reduces the loss by at most ``FTOL`` of its
      value before the step, and so does the decrease ``h^T g + mu h^T h``
      that the Gauss-Newton model predicts for it (``-2 g`` the gradient,
      ``mu`` the damping): the step is kept and the restart ends. This
      is the ``ftol`` test of MINPACK's ``lmder`` (Moré 1978) without its
      third condition, that the actual reduction be at most twice the
      predicted one. With ``FTOL`` 0 this exit never fires;
    - the damping passes 1e12, where no step can make progress;
    - ``max_iter`` trial steps were taken.

    The Gauss-Newton system of a restart
    (``J^T J`` plus the decay, and ``J^T r``) is built at its start and
    rebuilt only after an accepted step: a rejected step leaves the
    parameters where they were, so the next trial only doubles the
    damping and solves the cached system again. The restart with the best
    final loss wins.

    All restarts advance together through batched linear algebra, so the
    wall cost is far below ``restarts`` sequential runs.

    **A stack.** One call trains a stack of jobs: ``X``, ``y``,
    ``hidden``, ``decay`` and ``seed`` hold one value per job, each ``X``
    ``(n, d)`` and each ``y`` ``(n,)`` of its own size; ``restarts`` and
    ``max_iter`` apply to every job, and one network is a one-job stack.
    A stack of another shape raises :class:`ValidationError`. The call
    returns one result per job, in job order: its trained model, or its
    error, which leaves the other jobs untouched: a
    :class:`ValidationError` for a non-finite ``X`` or ``y``, or a
    :class:`TrainingError` when a restart starts at a non-finite loss (an
    overflow); no later loss can turn non-finite, because a trial step
    with a non-finite loss is rejected. The jobs that
    share ``(n, d, hidden)`` form a group, and the groups train in the
    order of their first job. Each group trains in consecutive loops of
    as many jobs as keep a loop within both limits, :data:`STACK_BYTES`
    of Jacobian and :data:`RESTARTS` restarts, and at least one job. Every
    job's ``X`` is copied C-ordered, alone or stacked: the summation order
    of the products with ``X`` follows its memory layout, so a caller's
    layout does not move the model.

    Each job comes out bit for bit as if trained alone, because no restart
    reads another's numbers. Every batched operation is a per-restart
    product, sum, tanh or solve whose result does not depend on the batch
    it runs in. Each restart keeps its own damping and its own stopping
    tests, and each job keeps its own seeds and the argmin over its own
    restarts. One case couples restarts: a batched solve raises when any
    of its systems is singular, and a job trained alone then solves all of
    its live restarts by least squares. So when the loop's solve raises,
    its jobs are solved one by one, and only those whose own systems are
    singular take the least-squares fallback.
    """
    if (any(np.ndim(a) != 1 for a in (hidden, decay, seed))
            or not len(X) == len(y) == len(hidden) == len(decay) == len(seed)
            or any(np.ndim(X_j) != 2 or np.shape(y_j) != np.shape(X_j)[:1]
                   for X_j, y_j in zip(X, y))):
        raise ValidationError("a stack needs per job an X (n, d), a y (n,), hidden, decay, seed")
    if restarts < 1 or any(h < 1 for h in hidden):
        raise ValidationError("need at least one restart and one hidden unit per job")
    groups = {}
    for j, (X_j, h) in enumerate(zip(X, hidden)):
        groups.setdefault((*np.shape(X_j), h), []).append(j)
    by_job = {}
    for (n, dim, h), group in groups.items():
        jacobian_bytes = restarts * n * (h * dim + 2 * h + 1) * 8  # one job's
        size = max(1, min(STACK_BYTES // jacobian_bytes, RESTARTS // restarts))
        for loop in (group[i:i + size] for i in range(0, len(group), size)):
            # np.array copies the jobs' X into one C-ordered (J, n, d) array
            X_l, y_l, decay_l = (np.array([a[j] for j in loop], dtype=float) for a in (X, y, decay))
            by_job.update(zip(loop, _train_stack(X_l, y_l, h, decay_l, restarts,
                                                 [seed[j] for j in loop], max_iter)))
    return [by_job[j] for j in range(len(X))]


def _train_stack(X, y, hidden, decay, restarts, seed, max_iter) -> list:
    """One training loop of :func:`train` over ``len(X)`` jobs that share
    ``X.shape[1:]`` and ``hidden``: the results in job order."""
    results = [None if np.all(np.isfinite(X_j)) and np.all(np.isfinite(y_j)) else
               ValidationError("training inputs and targets must be finite")
               for X_j, y_j in zip(X, y)]
    jobs = [j for j, result in enumerate(results) if result is None]
    if not jobs:
        return results
    X, y, decay = X[jobs], y[jobs], decay[jobs]
    dim = X.shape[2]
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    n_params = hidden * dim + 2 * hidden + 1
    weight_mask = np.zeros(n_params)
    weight_mask[sv] = 1.0
    weight_mask[sw] = 1.0
    mask_diag = np.diag(weight_mask)
    job = np.repeat(np.arange(len(jobs)), restarts)  # per restart, its job in the stack

    # in a one-job stack every restart shares the job's 2-D X, y and decay
    # terms. Gathering them per restart keeps the bits but cost holed-knn-mlp
    # (seed 1, 2 vCPUs) 4-14 % a pass: medians 0.819/0.843/0.897 s against
    # 0.790/0.772/0.790 s, in 3 alternating process pairs of 5 passes each
    one_job = len(jobs) == 1
    shared = X[0], y[0], decay[0]
    shared_terms = decay[0] * mask_diag, decay[0] * weight_mask

    def data(rows):
        """``(X, y, decay)`` of the restarts ``rows``, one row per restart
        unless shared."""
        if one_job:
            return shared
        j = job[rows]
        return X[j], y[j], decay[j]

    def decay_terms(rows):
        """``decay * diag(mask)`` and ``decay * mask`` of the restarts ``rows``."""
        if one_job:
            return shared_terms
        d = decay[job[rows]]
        return d[:, None, None] * mask_diag, d[:, None] * weight_mask

    params = np.concatenate([init_params(seed[j], hidden, dim, restarts) for j in jobs])
    X_all, y_all, decay_all = data(slice(None))
    loss, resid, act = _batched_loss(params, X_all, y_all, hidden, decay_all)
    active = np.ones(job.size, dtype=bool)
    for i, j in enumerate(jobs):
        n_bad = int(np.sum(~np.isfinite(loss[job == i])))
        if n_bad:
            results[j] = TrainingError(
                f"{n_bad} of {restarts} restart(s) start at a non-finite loss"
            )
            active[job == i] = False
    mu = np.full(job.size, 1e-2)
    # per restart, J^T J + decay * diag(mask) before damping and J^T r minus
    # the decay gradient, valid while the restart is not stale
    jtj = np.empty((job.size, n_params, n_params))
    grad_half = np.empty((job.size, n_params))  # the loss gradient is -2 * grad_half
    stale = np.ones(job.size, dtype=bool)

    diagonal = np.arange(n_params)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        # a restart that is not stale passed the convergence test last
        # iteration with the same loss and gradient
        new = idx[stale[idx]]
        if new.size:
            p_n = params[new]
            decay_diag, decay_mask = decay_terms(new)
            J = _jacobian(p_n, data(new)[0], act[new], hidden)
            jtj_n = np.matmul(J.transpose(0, 2, 1), J)
            jtj_n += decay_diag
            grad_n = np.einsum("rnp,rn->rp", J, resid[new]) - decay_mask * p_n
            jtj[new], grad_half[new], stale[new] = jtj_n, grad_n, False
            gnorm = np.linalg.norm(grad_n, axis=1) * 2.0
            live = gnorm > GRAD_TOL * (1.0 + np.abs(loss[new]))
            active[new[~live]] = False
            idx = idx[active[idx]]
            if idx.size == 0:
                continue

        # damp to jtj + mu * I: off the diagonal mu * I adds only 0.0, and
        # jtj holds no -0.0 there once the decay term is added
        damped = jtj[idx]
        damped[:, diagonal, diagonal] += mu[idx][:, None]
        g = grad_half[idx]
        try:
            step = np.linalg.solve(damped, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.empty_like(g)
            for i in np.unique(job[idx]):
                rows = job[idx] == i
                try:
                    step[rows] = np.linalg.solve(damped[rows], g[rows, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    step[rows] = [np.linalg.lstsq(a, b, rcond=None)[0]
                                  for a, b in zip(damped[rows], g[rows])]

        trial = params[idx] + step
        X_i, y_i, decay_i = data(idx)
        trial_loss, trial_resid, trial_act = _batched_loss(trial, X_i, y_i, hidden, decay_i)
        improved = np.isfinite(trial_loss) & (trial_loss < loss[idx])

        up = idx[improved]
        # actual and predicted (h^T g + mu h^T h) reductions, no MINPACK ratio <= 2 part
        h, tol = step[improved], FTOL * loss[up]
        flat = up[(loss[up] - trial_loss[improved] <= tol)
                  & (np.einsum("rp,rp->r", h, g[improved] + mu[up][:, None] * h) <= tol)]
        params[up] = trial[improved]
        resid[up] = trial_resid[improved]
        act[up] = trial_act[improved]
        loss[up] = trial_loss[improved]
        mu[up] = np.maximum(mu[up] / 3.0, 1e-14)
        stale[up] = True
        down = idx[~improved]
        mu[down] *= 2.0
        # damping this large means no further progress is possible
        active[idx[mu[idx] > 1e12]] = False
        active[flat] = False

    for i, j in enumerate(jobs):
        if results[j] is None:
            own = np.flatnonzero(job == i)
            results[j] = unpack(params[own[np.argmin(loss[own])]], hidden, dim)
    return results

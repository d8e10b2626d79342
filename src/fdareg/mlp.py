"""One-hidden-layer perceptron with weight decay and multi-restart
second-order training.

The network realizes ``out_bias + sum_h w_h tanh(b_h + v_h . x)`` on
coordinate vectors; its first layer is the coordinate image of a functional
neuron (an inner product with a weight function plus bias, passed through a
sigmoid). Training minimizes the sum of squared errors plus a weight-decay
penalty on all non-bias weights, using Levenberg-style damped Gauss-Newton:
accepted steps never increase the regularized loss. Many random restarts run
in parallel (batched linear algebra) and the best final loss wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError, ValidationError

#: Gradient-norm convergence tolerance, relative to (1 + loss).
GRAD_TOL = 1e-8
MAX_ITER = 500

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
    decay: float = 0.0

    def __post_init__(self):
        self.hidden_weights.setflags(write=False)
        self.hidden_biases.setflags(write=False)
        self.output_weights.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]


def forward(model: MlpModel, x: np.ndarray) -> float | np.ndarray:
    """Network output for one vector (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != model.input_dim:
        raise ValidationError(
            f"input dimension {X.shape[1]} does not match model dimension "
            f"{model.input_dim}"
        )
    act = np.tanh(X @ model.hidden_weights.T + model.hidden_biases)
    out = act @ model.output_weights + model.output_bias
    return float(out[0]) if single else out


def _shapes(hidden: int, dim: int) -> tuple[slice, slice, slice, int]:
    """Parameter-vector layout: [V.ravel, b, w, b0]."""
    n_v = hidden * dim
    return (
        slice(0, n_v),
        slice(n_v, n_v + hidden),
        slice(n_v + hidden, n_v + 2 * hidden),
        n_v + 2 * hidden,
    )


def unpack(params: np.ndarray, hidden: int, dim: int, decay: float) -> MlpModel:
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    return MlpModel(
        params[sv].reshape(hidden, dim).copy(),
        params[sb].copy(),
        params[sw].copy(),
        float(params[ib0]),
        decay,
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
    """Regularized loss per restart. params: (R, P)."""
    R = params.shape[0]
    n, dim = X.shape
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    V = params[:, sv].reshape(R, hidden, dim)
    act = np.tanh(np.einsum("nd,rhd->rnh", X, V) + params[:, sb][:, None, :])
    out = np.einsum("rnh,rh->rn", act, params[:, sw]) + params[:, ib0][:, None]
    resid = y[None, :] - out
    pen = np.einsum("rp,rp->r", params[:, sv], params[:, sv])
    pen += np.einsum("rh,rh->r", params[:, sw], params[:, sw])
    return np.einsum("rn,rn->r", resid, resid) + decay * pen, resid, act


def _jacobian(params, X, act, hidden):
    """Jacobian ``(R, n, P)`` of the outputs w.r.t. ``params`` ``(R, P)``,
    from the hidden activations ``act`` ``(R, n, H)`` at those parameters."""
    (R, n_params), (n, dim) = params.shape, X.shape
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    wsech = params[:, None, sw] * (1.0 - act**2)  # d out / d b_h, (r, n, H)
    J = np.empty((R, n, n_params))
    J[:, :, sv] = (wsech[:, :, :, None] * X[None, :, None, :]).reshape(
        R, n, hidden * dim
    )
    J[:, :, sb] = wsech
    J[:, :, sw] = act
    J[:, :, ib0] = 1.0
    return J


def train(
    X: np.ndarray,
    y: np.ndarray,
    hidden: int,
    decay: float,
    restarts: int = 60,
    seed: int | None = None,
    max_iter: int = MAX_ITER,
) -> MlpModel:
    """Fit the perceptron from many random initializations.

    Each restart runs damped Gauss-Newton on the residual vector
    (data residuals plus sqrt(decay)-scaled weight residuals) until the
    gradient norm falls below ``GRAD_TOL * (1 + loss)`` or ``max_iter``
    trial steps were taken; steps are only accepted when they strictly
    decrease the regularized loss. The restart with the best final loss
    wins. Restarts whose loss turns non-finite are discarded with a
    warning; if every restart diverges a :class:`TrainingError` is raised.

    All restarts advance together through batched linear algebra, so the
    wall cost is far below ``restarts`` sequential runs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if hidden < 1:
        raise ValidationError("need at least one hidden unit")
    dim = X.shape[1]
    sv, sb, sw, ib0 = _shapes(hidden, dim)
    n_params = hidden * dim + 2 * hidden + 1
    weight_mask = np.zeros(n_params)
    weight_mask[sv] = 1.0
    weight_mask[sw] = 1.0

    params = init_params(seed, hidden, dim, restarts)
    loss, resid, act = _batched_loss(params, X, y, hidden, decay)
    diverged = ~np.isfinite(loss)
    active = ~diverged
    mu = np.full(restarts, 1e-2)

    eye = np.eye(n_params)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        p_a, act_a, resid_a = params[idx], act[idx], resid[idx]
        J = _jacobian(p_a, X, act_a, hidden)

        jtj = np.matmul(J.transpose(0, 2, 1), J)
        jtj += decay * np.diag(weight_mask)[None, :, :]
        grad_half = np.einsum("rnp,rn->rp", J, resid_a) - decay * weight_mask * p_a
        # full gradient of the loss is -2 * grad_half

        gnorm = np.linalg.norm(grad_half, axis=1) * 2.0
        live = gnorm > GRAD_TOL * (1.0 + np.abs(loss[idx]))
        active[idx[~live]] = False
        if not np.any(live):
            continue
        idx, jtj, grad_half, p_a = idx[live], jtj[live], grad_half[live], p_a[live]

        A = jtj + mu[idx][:, None, None] * eye[None, :, :]
        try:
            step = np.linalg.solve(A, grad_half[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack(
                [np.linalg.lstsq(a, g, rcond=None)[0] for a, g in zip(A, grad_half)]
            )

        trial = p_a + step
        trial_loss, trial_resid, trial_act = _batched_loss(trial, X, y, hidden, decay)
        improved = np.isfinite(trial_loss) & (trial_loss < loss[idx])

        up = idx[improved]
        params[up] = trial[improved]
        resid[up] = trial_resid[improved]
        act[up] = trial_act[improved]
        loss[up] = trial_loss[improved]
        mu[up] = np.maximum(mu[up] / 3.0, 1e-14)
        down = idx[~improved]
        mu[down] *= 2.0
        # damping this large means no further progress is possible
        active[idx[mu[idx] > 1e12]] = False

    if np.any(diverged):
        warnings.warn(
            f"{int(np.sum(diverged))} restart(s) diverged and were discarded",
            stacklevel=2,
        )
    loss = np.where(diverged | ~np.isfinite(loss), np.inf, loss)
    best = int(np.argmin(loss))
    if not np.isfinite(loss[best]):
        raise TrainingError("all restarts diverged")
    return unpack(params[best], hidden, dim, decay)

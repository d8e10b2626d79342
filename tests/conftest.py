"""Shared fixtures and helpers: synthetic functional data, the opt-in Tecator
file, and the private numerics of the package that several test files check."""

import os
from pathlib import Path

# BLAS runs one thread, as in perfbench/run.py and tools/identity.py: these
# small matrices gain nothing from more, and on a busy host extra threads
# oversubscribe the cores. OpenBLAS reads the variables when numpy loads it,
# so they are set before numpy's first import (pytest and hypothesis do not
# import it, which tests/test_lapack.py checks); a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from fdareg import basis, fdata, imputation, mlp, represent  # noqa: E402
from fdareg.errors import FdaregError  # noqa: E402

# every run draws the same examples and writes no example database
settings.register_profile("fdareg", derandomize=True, database=None)
settings.load_profile("fdareg")

TECATOR_ENV = "FDAREG_TECATOR"


def tecator_path():
    """Path to the real Tecator file (tecator-grid layout), if provided."""
    p = os.environ.get(TECATOR_ENV)
    if p and Path(p).exists():
        return Path(p)
    return None


requires_tecator = pytest.mark.skipif(
    tecator_path() is None,
    reason=f"set {TECATOR_ENV} to the Tecator data file to run benchmark reproduction",
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240205)


def random_spline_function(rng, b, noise=0.0, m=None, domain=None):
    """A SampledFunction drawn from the span of basis ``b`` plus noise."""
    a, z = b.domain if domain is None else domain
    m = m if m is not None else 3 * b.dimension
    x = np.sort(rng.uniform(a, z, m))
    x[0], x[-1] = a, z  # anchor the endpoints so every support is covered
    alpha = rng.normal(size=b.dimension)
    y = b.evaluate(x) @ alpha + noise * rng.normal(size=m)
    return fdata.SampledFunction(x, y), alpha


def synthetic_dataset(rng, n=40, m=30, domain=(0.0, 1.0), noise=0.01):
    """Smooth random curves whose target depends on shape, not level."""
    a, b = domain
    grid = np.linspace(a, b, m)
    funcs, targets = [], []
    for i in range(n):
        c1, c2, level = rng.normal(size=3)
        y = (
            c1 * np.sin(2 * np.pi * (grid - a) / (b - a))
            + c2 * ((grid - a) / (b - a)) ** 2
            + level
        )
        funcs.append(
            fdata.SampledFunction(grid, y + noise * rng.normal(size=m), id=i)
        )
        targets.append(c1**2 + 0.5 * c2)
    return fdata.Dataset(funcs, targets, domain)


def mixed_grid_functions(rng, n_shared=5, n_holed=4, m=40, gap=False):
    """Smooth noisy curves on ``m`` points of [0, 1], without those in
    (0.35, 0.65) when ``gap``: ``n_shared`` on that common grid, then
    ``n_holed`` with 10 % of their points dropped, each on its own grid."""
    grid = np.linspace(0.0, 1.0, m)
    if gap:
        grid = grid[(grid <= 0.35) | (grid >= 0.65)]
    funcs = []
    for i in range(n_shared + n_holed):
        c1, c2, level = rng.normal(size=3)
        y = c1 * np.sin(2 * np.pi * grid) + c2 * grid**2 + level
        f = fdata.SampledFunction(grid, y + 0.05 * rng.normal(size=grid.size), id=i)
        funcs.append(f if i < n_shared else fdata.drop_random(f, 0.1, seed=i))
    return funcs


def vector_dataset(X, y):
    """Rows of ``X`` as curves sampled on a common grid, so the raw
    representation hands the model exactly these vectors."""
    grid = np.linspace(0.0, 1.0, X.shape[1])
    funcs = [fdata.SampledFunction(grid, row, id=i) for i, row in enumerate(X)]
    return fdata.Dataset(funcs, y, (0.0, 1.0))


@pytest.fixture
def small_bspline():
    return basis.BSplineBasis.uniform(0.0, 1.0, 5, 4)


def hat_diagonal(f, b):
    """Smoother-matrix diagonal of ``b``'s design at ``f``'s abscissas, as
    the leave-one-out score of ``represent.loo_scores`` uses it."""
    return represent._qr_solve(b.evaluate(f.x), f.y[:, None])[2]


def trainer_gradient(params, X, y, hidden, decay):
    """The loss gradient ``mlp.train`` steps on, ``-2 (J^T r - decay mask p)``:
    ``J`` its Jacobian of the outputs, ``r`` the data residuals and ``mask``
    the non-bias weights that the decay covers."""
    sv, _, sw, _ = mlp._shapes(hidden, X.shape[1])
    mask = np.zeros(params.size)
    mask[sv] = 1.0
    mask[sw] = 1.0
    _, resid, act = mlp._batched_loss(params[None], X, y, hidden, decay)
    J = mlp._jacobian(params[None], X, act, hidden)[0]
    return -2.0 * (J.T @ resid[0] - decay * mask * params)


def train_one(X, y, hidden, decay, restarts, seed, max_iter=mlp.MAX_ITER):
    """``mlp.train`` on a one-job stack: the job's model, or its error raised."""
    [model] = mlp.train([X], [y], [hidden], [decay], restarts, [seed], max_iter)
    if isinstance(model, FdaregError):
        raise model
    return model


def knn_distances(values, mask, new_values, new_mask):
    """The pair of distances a k-NN fill reads, formed as the pipeline forms
    them: the training rows' own, and the new rows' to the training rows."""
    return (imputation.pair_distances(values, mask),
            imputation.cross_distances(new_values, new_mask, values, mask))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion test."""
    items = []
    for status in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid:
                items.append((nodeid.split("::")[-1], status.upper()))
    if items:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(items):
            terminalreporter.write_line(f"{status:8s} {name}")

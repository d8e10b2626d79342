"""Shared fixtures: synthetic functional data and the opt-in Tecator file."""

import os
from pathlib import Path

import numpy as np
import pytest

from fdareg import basis, fdata

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


def mixed_grid_functions(rng, n_shared=5, n_holed=4, m=40):
    """Smooth noisy curves on [0, 1]: ``n_shared`` on one common grid, then
    ``n_holed`` with 10 % of their points dropped, each on its own grid."""
    grid = np.linspace(0.0, 1.0, m)
    funcs = []
    for i in range(n_shared + n_holed):
        c1, c2, level = rng.normal(size=3)
        y = c1 * np.sin(2 * np.pi * grid) + c2 * grid**2 + level
        f = fdata.SampledFunction(grid, y + 0.05 * rng.normal(size=m), id=i)
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

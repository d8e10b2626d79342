"""Sampled functional datasets: loading, hole punching and train/test splits.

A dataset holds ``n`` observations, each a list of ``(x, y)`` sample pairs on
a common domain ``[a, b]`` plus one scalar regression target per observation.
Sampling may be irregular and may differ between observations.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, ValidationError

#: Wavelength range (nm) and channel count of the Tecator spectrometer grid.
TECATOR_DOMAIN = (850.0, 1050.0)
TECATOR_CHANNELS = 100
#: Columns after the absorbances in a tecator-grid row: water, fat, protein.
_TECATOR_TARGET_COLUMN = 1  # fat


class SampledFunction:
    """One observation: samples ``(x_j, y_j)`` strictly increasing in ``x``.

    Immutable after construction; the coordinate arrays are read-only views.
    """

    __slots__ = ("x", "y", "id")

    def __init__(self, x: Sequence[float], y: Sequence[float], id: int = 0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValidationError("x and y must be 1-d arrays of equal length")
        if x.size < 1:
            raise ValidationError("a sampled function needs at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("sample coordinates must be finite")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise ValidationError(
                f"abscissas of function {id} must be strictly increasing "
                "(duplicates are rejected, not averaged)"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "id", int(id))

    def __setattr__(self, name, value):
        raise AttributeError("SampledFunction is immutable")

    def __len__(self) -> int:
        return self.x.size

    def __repr__(self) -> str:
        return f"SampledFunction(id={self.id}, m={len(self)})"


class Dataset:
    """A list of sampled functions with one scalar target each."""

    __slots__ = ("functions", "targets", "domain")

    def __init__(
        self,
        functions: Sequence[SampledFunction],
        targets: Sequence[float],
        domain: tuple[float, float],
    ):
        functions = tuple(functions)
        targets = np.asarray(targets, dtype=float)
        a, b = float(domain[0]), float(domain[1])
        if a >= b:
            raise ValidationError(f"domain [{a}, {b}] is empty")
        if len(functions) != targets.size:
            raise ValidationError(
                f"{len(functions)} functions but {targets.size} targets"
            )
        for f in functions:
            if f.x[0] < a or f.x[-1] > b:
                raise ValidationError(
                    f"function {f.id} has samples outside the domain [{a}, {b}]"
                )
        targets.setflags(write=False)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "domain", (a, b))

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return len(self.functions)

    def subset(self, indices: Iterable[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            [self.functions[i] for i in idx], self.targets[idx], self.domain
        )

    def common_grid(self) -> np.ndarray:
        """Shared abscissa grid, if every function is sampled identically.

        Raises :class:`ValidationError` when sampling differs between
        functions (then there is no vector view of the data).
        """
        grid = self.functions[0].x
        for f in self.functions[1:]:
            if len(f) != grid.size or not np.array_equal(f.x, grid):
                raise ValidationError(
                    "functions are not sampled on a common grid"
                )
        return grid

    def matrix(self) -> np.ndarray:
        """Stack values into an (n, p) matrix; requires a common grid."""
        self.common_grid()
        return np.array([f.y for f in self.functions])


def _parse_row(token_row: list[str], lineno: int) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in token_row])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _tokenize(path: Path) -> list[tuple[int, list[str]]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            rows.append((lineno, line.replace(",", " ").split()))
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    return rows


def load_dataset(path: str | Path, format: str = "tecator-grid") -> Dataset:
    """Load a functional dataset from a delimited text file.

    Parameters
    ----------
    path : str or Path
        File location. Values are comma- or whitespace-separated UTF-8 text;
        ``#`` starts a comment.
    format : {'tecator-grid', 'generic-pairs'}
        ``tecator-grid``: one row per sample holding the 100 absorbance
        channels followed by the water, fat and protein contents; fat is the
        regression target and the abscissas are the uniform 100-point grid on
        [850, 1050] nm.
        ``generic-pairs``: an optional leading ``domain a b`` row, then one
        row per function holding the target followed by alternating
        ``x y`` pairs (lengths may differ between rows). Without a domain
        row the domain is the data's abscissa range.

    Returns
    -------
    Dataset

    Raises
    ------
    ParseError
        Malformed row (named by line number) or empty file.
    ValidationError
        Non-monotone abscissas or samples outside the domain.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    rows = _tokenize(path)

    if format == "tecator-grid":
        grid = np.linspace(*TECATOR_DOMAIN, TECATOR_CHANNELS)
        functions, targets = [], []
        for i, (lineno, toks) in enumerate(rows):
            values = _parse_row(toks, lineno)
            if values.size != TECATOR_CHANNELS + 3:
                raise ParseError(
                    f"line {lineno}: expected {TECATOR_CHANNELS + 3} columns "
                    f"(100 absorbances + water, fat, protein), got {values.size}"
                )
            functions.append(SampledFunction(grid, values[:TECATOR_CHANNELS], id=i))
            targets.append(values[TECATOR_CHANNELS + _TECATOR_TARGET_COLUMN])
        return Dataset(functions, targets, TECATOR_DOMAIN)

    if format == "generic-pairs":
        domain = None
        start = 0
        if rows[0][1][0].lower() == "domain":
            lineno, toks = rows[0]
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: domain row must be 'domain a b'")
            bounds = _parse_row(toks[1:], lineno)
            domain = (bounds[0], bounds[1])
            start = 1
        functions, targets = [], []
        for i, (lineno, toks) in enumerate(rows[start:]):
            values = _parse_row(toks, lineno)
            if values.size < 3 or values.size % 2 == 0:
                raise ParseError(
                    f"line {lineno}: expected a target followed by (x, y) pairs"
                )
            xy = values[1:].reshape(-1, 2)
            functions.append(SampledFunction(xy[:, 0], xy[:, 1], id=i))
            targets.append(values[0])
        if domain is None:
            domain = (
                min(f.x[0] for f in functions),
                max(f.x[-1] for f in functions),
            )
        return Dataset(functions, targets, domain)

    raise ValueError(f"unknown format {format!r}")


def save_generic_pairs(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the generic-pairs format (with a domain row)."""
    path = Path(path)
    lines = [f"domain {dataset.domain[0]:.17g} {dataset.domain[1]:.17g}"]
    for f, t in zip(dataset.functions, dataset.targets):
        pairs = " ".join(f"{x:.17g} {y:.17g}" for x, y in zip(f.x, f.y))
        lines.append(f"{t:.17g} {pairs}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_random(f: SampledFunction, fraction: float, seed: int) -> SampledFunction:
    """Remove a random fraction of a function's samples.

    Exactly ``round(fraction * m)`` points (round half up) are removed,
    drawn uniformly without replacement by a generator seeded with ``seed``,
    so the result is deterministic per seed. Remaining points keep their
    order.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must be in [0, 1), got {fraction}")
    m = len(f)
    n_drop = int(math.floor(fraction * m + 0.5))
    if m - n_drop < 1:
        raise ValidationError("dropping would leave an empty function")
    if n_drop == 0:
        return f
    rng = np.random.default_rng(seed)
    dropped = rng.choice(m, size=n_drop, replace=False)
    keep = np.setdiff1d(np.arange(m), dropped)
    return SampledFunction(f.x[keep], f.y[keep], id=f.id)


def make_holes(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Apply :func:`drop_random` to every function with per-function seeds.

    Per-function seeds derive from ``seed`` through
    ``numpy.random.SeedSequence((seed, function_index))``, so one master
    integer reproduces the whole benchmark.
    """
    holed = []
    for i, f in enumerate(dataset.functions):
        child = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        holed.append(drop_random(f, fraction, child))
    return Dataset(holed, dataset.targets, dataset.domain)


def split(
    dataset: Dataset,
    test_size: int,
    seed: int | None = None,
    shuffle: bool = True,
) -> tuple[Dataset, Dataset]:
    """Partition a dataset into disjoint train and test parts.

    With ``shuffle=True`` the assignment is a seeded permutation (last
    ``test_size`` entries of the permutation form the test set). With
    ``shuffle=False`` the split is fixed-order: first ``n - test_size``
    functions train, last ``test_size`` test.
    """
    n = len(dataset)
    if not 0 <= test_size < n:
        raise ValidationError(f"test_size must be in [0, {n}), got {test_size}")
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    else:
        order = np.arange(n)
    train_idx, test_idx = order[: n - test_size], order[n - test_size :]
    return dataset.subset(train_idx), dataset.subset(test_idx)

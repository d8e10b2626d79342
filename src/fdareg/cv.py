"""k-fold plans and scoring helpers shared by every model family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FoldPlan:
    """A partition of sample indices into k folds of near-equal size."""

    folds: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return len(self.folds)

    def __iter__(self):
        """Yield (train_indices, validation_indices) per fold."""
        all_idx = np.concatenate(self.folds)
        for i, val in enumerate(self.folds):
            train = np.concatenate([f for j, f in enumerate(self.folds) if j != i]) \
                if self.k > 1 else all_idx[:0]
            yield train, val


def make_folds(n: int, k: int, seed: int | None = None) -> FoldPlan:
    """Seeded shuffle then contiguous chunking into k folds.

    Fold sizes differ by at most one; the same seed reproduces the same
    plan. Raises ``ValueError`` for ``k > n`` or ``k < 1``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    return FoldPlan(tuple(np.array_split(order, k)))


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square error."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def derive_seed(master: int, label: str) -> int:
    """Stable child seed for a named purpose, derived from one master seed.

    Uses ``SeedSequence((master, crc32(label)))`` so a single integer
    reproduces every random choice in a run.
    """
    import zlib

    tag = zlib.crc32(label.encode("utf-8"))
    return int(np.random.SeedSequence((master, tag)).generate_state(1)[0])

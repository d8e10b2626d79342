"""k-fold splits and scoring helpers shared by every model family."""

from __future__ import annotations

import numpy as np


def make_folds(
    n: int, k: int, seed: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle then contiguous chunking into k folds.

    Returns one ``(train_indices, validation_indices)`` pair per fold; each
    training set joins the other folds in fold order. Fold sizes differ by
    at most one; the same seed reproduces the same pairs. Raises
    ``ValueError`` unless ``2 <= k <= n``.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [(np.concatenate(folds[:i] + folds[i + 1:]), val) for i, val in enumerate(folds)]


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

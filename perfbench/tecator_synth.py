"""Deterministic Tecator-shaped synthetic spectra.

The real Tecator meat spectra (215 samples, 100 absorbance channels on
850-1050 nm, fat content as target) cannot be shipped, so the benchmark runs
on curves of the same shape. Each curve is a smooth random baseline
(offset, slope, curvature), plus a fat absorption band near 930 nm whose
depth grows with the fat content, plus a water band near 970 nm, plus white
noise. The fat content, in [1, 49] %, is the regression target.

Every parameter lives in :data:`PARAMS`, which the benchmark records with
its results; the seed is the only thing that changes between runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from fdareg import fdata


@dataclass(frozen=True)
class SynthParams:
    n_curves: int = 215
    n_channels: int = 100
    domain: tuple[float, float] = (850.0, 1050.0)
    fat_range: tuple[float, float] = (1.0, 49.0)
    offset_mean: float = 3.0
    offset_sd: float = 0.4
    slope_sd: float = 0.15  # absorbance change across the domain
    curvature_sd: float = 0.05
    fat_center_nm: float = 930.0
    fat_width_nm: float = 12.0
    fat_depth: float = 0.004  # band height per % fat
    water_center_nm: float = 970.0
    water_width_nm: float = 20.0
    water_depth: float = 0.002  # band height per % water
    noise_sd: float = 2e-3

    def to_dict(self) -> dict:
        return asdict(self)


PARAMS = SynthParams()


def generate_arrays(seed: int):
    """Return ``(grid, spectra, fat)``: ``(m,)``, ``(n, m)`` and ``(n,)``."""
    p = PARAMS
    rng = np.random.default_rng(seed)
    grid = np.linspace(p.domain[0], p.domain[1], p.n_channels)
    t = (grid - 0.5 * (p.domain[0] + p.domain[1])) / (p.domain[1] - p.domain[0])
    n = p.n_curves
    fat = rng.uniform(p.fat_range[0], p.fat_range[1], n)
    # water falls as fat rises, as in meat
    water = 75.0 - 0.9 * fat + rng.normal(0.0, 2.0, n)
    offset = rng.normal(p.offset_mean, p.offset_sd, n)
    slope = rng.normal(0.0, p.slope_sd, n)
    curvature = rng.normal(0.0, p.curvature_sd, n)
    fat_band = np.exp(-0.5 * ((grid - p.fat_center_nm) / p.fat_width_nm) ** 2)
    water_band = np.exp(-0.5 * ((grid - p.water_center_nm) / p.water_width_nm) ** 2)
    spectra = (
        offset[:, None]
        + slope[:, None] * t[None, :]
        + curvature[:, None] * t[None, :] ** 2
        + p.fat_depth * fat[:, None] * fat_band[None, :]
        + p.water_depth * water[:, None] * water_band[None, :]
        + rng.normal(0.0, p.noise_sd, (n, p.n_channels))
    )
    return grid, spectra, fat


def generate(seed: int) -> fdata.Dataset:
    """The synthetic spectra as a complete-grid :class:`fdata.Dataset`."""
    grid, spectra, fat = generate_arrays(seed)
    functions = [fdata.SampledFunction(grid, row, id=i) for i, row in enumerate(spectra)]
    return fdata.Dataset(functions, fat, PARAMS.domain)

"""Laplacian phase unwrapping and SMV background-field removal.

Both operators work with the periodic Fourier Laplacian / sphere kernels;
callers are expected to evaluate results inside masks eroded away from the
volume boundary, where the periodic boundary assumption is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ScalarVolume,
    VolumeGrid,
    for_slabs,
    frequency_axes,
    irfft3,
    mask_erode,
    outer_sum,
    require_binary_mask,
    rfft3,
    spectral_apply,
    voxel_coords,
)

__all__ = ["SmvConfig", "laplacian_unwrap", "smv_filter", "sphere_kernel_spectrum"]


@dataclass(frozen=True)
class SmvConfig:
    """Spherical-mean-value filter parameters; conventional defaults."""

    radius_mm: float = 5.0
    tsvd_threshold: float = 0.05

    def __post_init__(self):
        if not 0 < self.radius_mm < np.inf:
            raise ValueError(f"SMV radius must be positive and finite, got {self.radius_mm!r}")
        if not 0.0 < self.tsvd_threshold < 1.0:
            raise ValueError("TSVD threshold must lie in (0, 1)")


def _laplacian_symbol(grid: VolumeGrid) -> np.ndarray:
    """Fourier multiplier of the Laplacian, -4*pi^2*|k|^2, on the rfft lattice."""
    fx, fy, fz = frequency_axes(grid)
    k2 = outer_sum(fx**2, fy**2, fz[: grid.dims[2] // 2 + 1] ** 2)
    return -4.0 * np.pi**2 * k2


def laplacian_unwrap(wrapped: ScalarVolume, mask: ScalarVolume) -> ScalarVolume:
    """Unwrap phase via the sine/cosine Laplacian identity solved in k-space.

    Computes inv_lap( cos(w)*lap(sin(w)) - sin(w)*lap(cos(w)) ) with the DC
    term dropped, then removes the in-mask mean. Adding any multiple of 2*pi
    to the input leaves the output unchanged.
    """
    wrapped.grid.require_compatible(mask.grid)
    inside = require_binary_mask(mask)
    grid = wrapped.grid
    lap = _laplacian_symbol(grid)
    inv_lap = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap != 0.0)

    sin_w, cos_w = np.empty(grid.dims), np.empty(grid.dims)

    def slab(w, s, c):
        np.sin(w, out=s)
        np.cos(w, out=c)

    for_slabs(slab, wrapped.data, sin_w, cos_w)
    rhs = cos_w * spectral_apply(sin_w, lap) - sin_w * spectral_apply(cos_w, lap)
    phi = spectral_apply(rhs, inv_lap)

    if np.any(inside):
        phi -= phi[inside].mean()
    return ScalarVolume._owning(grid, phi)


def sphere_kernel_spectrum(grid: VolumeGrid, radius_mm: float) -> np.ndarray:
    """rfft spectrum of a unit-integral sphere rasterized on the grid.

    The ball is built in image space around index 0 (wrapped offsets) and
    normalized to unit sum before transforming, so the DC value is exactly 1
    and the deconvolution below inverts the same discrete operator. Only
    coordinates whose square is within radius^2 can be in it: a rounded sum of
    squares is at least each rounded square. A ball of one voxel (a high-pass
    of 0) raises ValueError.
    """
    coords = voxel_coords(grid)
    r2 = radius_mm * radius_mm
    near = [np.flatnonzero(c**2 <= r2) for c in coords]
    xs, ys, zs = (c[i] for c, i in zip(coords, near))
    inside = outer_sum(xs**2, ys**2, zs**2) <= r2
    count = np.count_nonzero(inside)
    if count == 1:
        raise ValueError(f"SMV radius {radius_mm!r} mm reaches no voxel but the centre "
                         f"(smallest spacing {min(grid.spacing)!r} mm)")
    ball = np.zeros(grid.dims)
    ball[np.ix_(*(i - n // 2 for i, n in zip(near, grid.dims)))] = inside / count
    return rfft3(ball)


def smv_filter(phase: ScalarVolume, mask: ScalarVolume, cfg: SmvConfig = SmvConfig()):
    """SHARP-style background removal: high-pass with (1 - sphere mean),
    erode the mask by the sphere radius, then TSVD-deconvolve inside it.

    Returns (tissue_phase, reliable_mask); tissue_phase is exactly zero
    outside reliable_mask.
    """
    phase.grid.require_compatible(mask.grid)
    require_binary_mask(mask)
    grid = phase.grid
    high_pass = 1.0 - sphere_kernel_spectrum(grid, cfg.radius_mm)
    h = spectral_apply(phase.data, high_pass)

    reliable = mask_erode(mask, cfg.radius_mm)
    spec = rfft3(reliable.data * h)
    keep = np.abs(high_pass) > cfg.tsvd_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        spec /= high_pass
    spec[~keep] = 0
    tissue = irfft3(spec, grid.dims)
    tissue *= reliable.data
    return ScalarVolume._owning(grid, tissue), reliable

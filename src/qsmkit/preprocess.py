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
    fz = fz[: grid.dims[2] // 2 + 1]
    k2 = (
        fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz[None, None, :] ** 2
    )
    return -4.0 * np.pi**2 * k2


def laplacian_unwrap(wrapped: ScalarVolume, mask: ScalarVolume) -> ScalarVolume:
    """Unwrap phase via the sine/cosine Laplacian identity solved in k-space.

    Computes inv_lap( cos(w)*lap(sin(w)) - sin(w)*lap(cos(w)) ) with the DC
    term dropped, then removes the in-mask mean. Adding any multiple of 2*pi
    to the input leaves the output unchanged.
    """
    wrapped.grid.require_compatible(mask.grid)
    require_binary_mask(mask)
    grid = wrapped.grid
    lap = _laplacian_symbol(grid)
    inv_lap = np.zeros_like(lap)
    nonzero = lap != 0.0
    inv_lap[nonzero] = 1.0 / lap[nonzero]

    sin_w, cos_w = np.empty(grid.dims), np.empty(grid.dims)
    w, s, c = (v.reshape(-1) for v in (wrapped.data, sin_w, cos_w))

    def slab(lo, hi):
        np.sin(w[lo:hi], out=s[lo:hi])
        np.cos(w[lo:hi], out=c[lo:hi])

    for_slabs(slab, w.size)
    rhs = cos_w * spectral_apply(sin_w, lap) - sin_w * spectral_apply(cos_w, lap)
    phi = spectral_apply(rhs, inv_lap)

    inside = mask.data > 0.5
    if np.any(inside):
        phi = phi - phi[inside].mean()
    return ScalarVolume(grid, phi)


def sphere_kernel_spectrum(grid: VolumeGrid, radius_mm: float) -> np.ndarray:
    """rfft spectrum of a unit-integral sphere rasterized on the grid.

    The ball is built in image space around index 0 (wrapped offsets) and
    normalized to unit sum before transforming, so the DC value is exactly 1
    and the deconvolution below inverts the same discrete operator.
    """
    xs, ys, zs = voxel_coords(grid)
    dist2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    ball = (dist2 <= radius_mm * radius_mm).astype(np.float64)
    total = ball.sum()
    if total == 0:
        raise ValueError("SMV radius smaller than half a voxel")
    ball /= total
    shifts = [-(n // 2) for n in grid.dims]
    ball = np.roll(ball, shifts, axis=(0, 1, 2))
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
        deconvolved = spec / high_pass
    spec = np.where(keep, deconvolved, 0.0)
    tissue = irfft3(spec, grid.dims)
    tissue *= reliable.data
    return ScalarVolume(grid, tissue), reliable

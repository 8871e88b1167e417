"""Mask-restricted evaluation metrics: NRMSE, 3D SSIM, data consistency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrientationDataset, ScalarVolume, for_slabs, require_binary_mask
from .dipole import dipole_kernel, forward_field

__all__ = ["SsimConfig", "nrmse", "ssim3d", "data_consistency"]


@dataclass(frozen=True)
class SsimConfig:
    """3D SSIM parameters; conventional defaults (Gaussian 7^3 window)."""

    window: int = 7
    gaussian_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float | None = None

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("SSIM window must be odd and >= 3")
        if self.gaussian_sigma <= 0 or self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("SSIM sigma and k constants must be positive")


def nrmse(x: ScalarVolume, ref: ScalarVolume, mask: ScalarVolume) -> float:
    """||mask*(x - ref)|| / ||mask*ref|| after removing each in-mask mean.

    Mean removal matches the DC-value-0 kernel convention: reconstructions
    are only defined up to a constant offset.
    """
    x.grid.require_compatible(ref.grid)
    x.grid.require_compatible(mask.grid)
    require_binary_mask(mask)
    inside = mask.data > 0.5
    xv = x.data[inside]
    rv = ref.data[inside]
    xv = xv - xv.mean()
    rv = rv - rv.mean()
    ref_norm = float(np.linalg.norm(rv))
    if ref_norm == 0.0:
        raise ValueError("reference is identically zero inside the mask")
    return float(np.linalg.norm(xv - rv)) / ref_norm


def _local_mean(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    from scipy import ndimage  # on the caller: slabs on pool threads find it loaded

    out = data
    for axis in range(3):
        # lines along axis are filtered independently: slabs run across another
        src, out = out, np.empty(data.shape)

        def slab(lo, hi):
            part = np.s_[lo:hi] if axis else np.s_[:, lo:hi]
            ndimage.correlate1d(src[part], weights, axis=axis, output=out[part], mode="constant")

        across = 0 if axis else 1
        for_slabs(slab, data.shape[across], data.size // data.shape[across])
    return out


def ssim3d(
    x: ScalarVolume, ref: ScalarVolume, mask: ScalarVolume, cfg: SsimConfig = SsimConfig()
) -> float:
    """Structural similarity with a 3D Gaussian window, averaged over in-mask
    voxels whose window lies fully inside the volume."""
    x.grid.require_compatible(ref.grid)
    x.grid.require_compatible(mask.grid)
    require_binary_mask(mask)

    half = cfg.window // 2
    dims = x.grid.dims
    if any(n < cfg.window for n in dims):
        raise ValueError(f"volume {dims} smaller than one {cfg.window}^3 SSIM window")
    valid = np.zeros(dims, dtype=bool)
    valid[half : dims[0] - half, half : dims[1] - half, half : dims[2] - half] = True
    valid &= mask.data > 0.5
    if not np.any(valid):
        raise ValueError("mask has no voxel with a full SSIM window inside the volume")

    if cfg.dynamic_range is not None:
        drange = float(cfg.dynamic_range)
    else:
        rv = ref.data[mask.data > 0.5]
        drange = float(rv.max() - rv.min())
    if drange <= 0:
        raise ValueError("dynamic range must be positive (constant reference?)")
    c1 = (cfg.k1 * drange) ** 2
    c2 = (cfg.k2 * drange) ** 2

    taps = np.arange(cfg.window, dtype=np.float64) - half
    weights = np.exp(-(taps**2) / (2.0 * cfg.gaussian_sigma**2))
    weights /= weights.sum()

    a = x.data
    b = ref.data
    # gathered at the valid voxels first: the same operations, fewer volumes alive
    mu_a = _local_mean(a, weights)[valid]
    mu_b = _local_mean(b, weights)[valid]
    var_a = _local_mean(a * a, weights)[valid] - mu_a * mu_a
    var_b = _local_mean(b * b, weights)[valid] - mu_b * mu_b
    cov = _local_mean(a * b, weights)[valid] - mu_a * mu_b

    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


def data_consistency(chi: ScalarVolume, dataset: OrientationDataset) -> float:
    """Normalized in-mask residual between forward-modeled and measured phase,
    sqrt(sum_r ||M(D_r chi - phi_r)||^2) / sqrt(sum_r ||M phi_r||^2)."""
    chi.grid.require_compatible(dataset.grid)
    inside = dataset.mask.data > 0.5
    resid2 = 0.0
    norm2 = 0.0
    for entry in dataset.entries:
        kernel = dipole_kernel(dataset.grid, entry.orientation)
        predicted = forward_field(chi, kernel).data
        resid2 += float(np.sum((predicted[inside] - entry.phase.data[inside]) ** 2))
        norm2 += float(np.sum(entry.phase.data[inside] ** 2))
    if norm2 == 0.0:
        raise ValueError("dataset phase is identically zero inside the mask")
    return float(np.sqrt(resid2) / np.sqrt(norm2))

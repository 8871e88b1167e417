"""Mask-restricted evaluation metrics: NRMSE, 3D SSIM, data consistency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OrientationDataset, ScalarVolume, _bounding_box, for_slabs, require_binary_mask
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
        if not isinstance(self.window, (int, np.integer)) or self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"SSIM window must be an odd integer >= 3, got {self.window!r}")
        for name in ("gaussian_sigma", "k1", "k2", "dynamic_range"):
            value = getattr(self, name)
            if not (name == "dynamic_range" and value is None or 0 < value < np.inf):
                raise ValueError(f"SSIM {name} must be positive and finite, got {value!r}")
        self._weights()
        if self.dynamic_range is not None:
            self._constants(float(self.dynamic_range))

    def _weights(self) -> np.ndarray:
        """The normalized 1D Gaussian window; a ValueError unless its weights are finite."""
        taps = np.arange(self.window, dtype=np.float64) - self.window // 2
        with np.errstate(all="ignore"):  # a sigma whose square underflows gives 0/0, refused below
            weights = np.exp(-(taps**2) / (2.0 * _square(self.gaussian_sigma)))
            weights /= weights.sum()
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"SSIM gaussian_sigma {self.gaussian_sigma!r} gives non-finite window weights")
        return weights

    def _constants(self, drange: float) -> tuple[float, float]:
        """SSIM's (c1, c2) = ((k1 * drange)**2, (k2 * drange)**2); a ValueError unless both are
        positive and finite."""
        c1, c2 = _square(self.k1 * drange), _square(self.k2 * drange)
        if not (0 < c1 < math.inf and 0 < c2 < math.inf):
            raise ValueError(f"SSIM c1 {c1!r} and c2 {c2!r} from dynamic_range {drange!r} must be "
                             "positive and finite")
        return c1, c2


def _square(x):
    """x**2, or inf where Python's float power overflows."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def nrmse(x: ScalarVolume, ref: ScalarVolume, mask: ScalarVolume) -> float:
    """||mask*(x - ref)|| / ||mask*ref|| after removing each in-mask mean.

    Mean removal matches the DC-value-0 kernel convention: reconstructions
    are only defined up to a constant offset.
    """
    x.grid.require_compatible(ref.grid)
    x.grid.require_compatible(mask.grid)
    require_binary_mask(mask)
    inside = mask.data > 0.5
    if not inside.any():  # before any mean: the mean of nothing is nan, with warnings
        raise ValueError("mask is empty: NRMSE needs at least one voxel inside it")
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
    voxels whose window lies fully inside the volume. The filters run on the box
    of those voxels grown by half a window: a line gives the same bits at them
    whatever its length, and they keep their C order."""
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
    box = tuple(slice(s.start - half, s.stop + half) for s in _bounding_box(valid))

    if cfg.dynamic_range is not None:
        drange = float(cfg.dynamic_range)
    else:
        rv = ref.data[mask.data > 0.5]
        drange = float(rv.max() - rv.min())
    if drange <= 0:
        raise ValueError("dynamic range must be positive (constant reference?)")
    c1, c2 = cfg._constants(drange)
    weights = cfg._weights()

    a = x.data[box]
    b = ref.data[box]
    valid = valid[box]
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

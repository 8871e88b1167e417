"""Mask-restricted evaluation metrics: NRMSE, 3D SSIM, data consistency."""

from __future__ import annotations

import math

import numpy as np

from .core import OrientationDataset, ScalarVolume, _bounding_box, for_slabs, irfft3, require_binary_mask, rfft3
from .dipole import dipole_kernel

__all__ = ["nrmse", "ssim3d", "data_consistency"]


# SSIM's constants (Wang et al., IEEE TIP 2004): a separable WINDOW^3 Gaussian window of SIGMA voxels,
# and c1, c2 = (K1 * range)**2, (K2 * range)**2 for the reference's in-mask range.
WINDOW = 7
SIGMA = 1.5
K1 = 0.01
K2 = 0.03
_WEIGHTS = np.exp(-((np.arange(WINDOW, dtype=np.float64) - WINDOW // 2) ** 2) / (2.0 * SIGMA**2))
_WEIGHTS /= _WEIGHTS.sum()


def centred_reference(ref: ScalarVolume, inside: np.ndarray) -> tuple[np.ndarray, float]:
    """ref's in-mask samples less their mean, and their norm. A reference whose in-mask range is 0
    is refused: the mean of a float64 constant can round and leave a norm of 1e-16, not 0."""
    samples = ref.data[inside]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        rv = samples - samples.mean()
        norm = float(np.linalg.norm(rv))
    if samples.max() == samples.min() or norm == 0.0:  # a norm of 0: deviations too small to square
        raise ValueError("NRMSE reference is constant inside the mask")
    if not math.isfinite(norm):
        raise ValueError("NRMSE overflows the float64 range for this reference")
    return rv, norm


def nrmse(x: ScalarVolume, ref: ScalarVolume, mask: ScalarVolume) -> float:
    """||mask*(x - ref)|| / ||mask*ref|| after removing each in-mask mean.

    Mean removal matches the DC-value-0 kernel convention: reconstructions
    are only defined up to a constant offset.
    """
    x.grid.require_compatible(ref.grid)
    x.grid.require_compatible(mask.grid)
    inside = require_binary_mask(mask)
    if not inside.any():  # before any mean: the mean of nothing is nan, with warnings
        raise ValueError("mask is empty: NRMSE needs at least one voxel inside it")
    rv, ref_norm = centred_reference(ref, inside)
    xv = x.data[inside]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        xv = xv - xv.mean()
        err_norm = float(np.linalg.norm(xv - rv))
    if not math.isfinite(err_norm):
        raise ValueError("NRMSE overflows the float64 range for these volumes")
    return err_norm / ref_norm


def _local_mean(data: np.ndarray) -> np.ndarray:
    from scipy import ndimage  # on the caller: slabs on pool threads find it loaded

    out = data
    for axis in range(3):
        # lines along axis are filtered independently: slabs run across another
        src, out = out, np.empty(data.shape)

        def slab(lo, hi):
            part = np.s_[lo:hi] if axis else np.s_[:, lo:hi]
            ndimage.correlate1d(src[part], _WEIGHTS, axis=axis, output=out[part], mode="constant")

        across = 0 if axis else 1
        for_slabs(slab, data.shape[across], data.size // data.shape[across])
    return out


def ssim3d(x: ScalarVolume, ref: ScalarVolume, mask: ScalarVolume) -> float:
    """Structural similarity with the 3D Gaussian window above, averaged over in-mask
    voxels whose window lies fully inside the volume. The filters run on the box
    of those voxels grown by half a window: a line gives the same bits at them
    whatever its length, and they keep their C order."""
    x.grid.require_compatible(ref.grid)
    x.grid.require_compatible(mask.grid)
    inside = require_binary_mask(mask)

    half = WINDOW // 2
    dims = x.grid.dims
    if any(n < WINDOW for n in dims):
        raise ValueError(f"volume {dims} smaller than one {WINDOW}^3 SSIM window")
    valid = np.zeros(dims, dtype=bool)
    valid[half : dims[0] - half, half : dims[1] - half, half : dims[2] - half] = True
    valid &= inside
    if not np.any(valid):
        raise ValueError("mask has no voxel with a full SSIM window inside the volume")
    box = tuple(slice(s.start - half, s.stop + half) for s in _bounding_box(valid))

    rv = ref.data[inside]
    drange = float(rv.max()) - float(rv.min())  # Python floats: an overflow is inf, no warning
    try:
        c1, c2 = (K1 * drange) ** 2, (K2 * drange) ** 2
    except OverflowError:  # a finite range whose square does not fit
        c1 = c2 = math.inf
    if not (0 < c1 < math.inf and 0 < c2 < math.inf):
        raise ValueError(f"SSIM c1 {c1!r} and c2 {c2!r} from dynamic_range {drange!r} must be positive "
                         "and finite (a constant reference has range 0, one that overflows inf)")

    a = x.data[box]
    b = ref.data[box]
    valid = valid[box]
    # gathered at the valid voxels first: the same operations, fewer volumes alive
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mu_a = _local_mean(a)[valid]
        mu_b = _local_mean(b)[valid]
        var_a = _local_mean(a * a)[valid] - mu_a * mu_a
        var_b = _local_mean(b * b)[valid] - mu_b * mu_b
        cov = _local_mean(a * b)[valid] - mu_a * mu_b

        ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
            (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        )
        ssim = float(ssim_map.mean())
    if not math.isfinite(ssim):
        raise ValueError("SSIM overflows the float64 range for these volumes")
    return ssim


def data_consistency(chi: ScalarVolume, dataset: OrientationDataset) -> float:
    """Normalized in-mask residual between forward-modeled and measured phase,
    sqrt(sum_r ||M(D_r chi - phi_r)||^2) / sqrt(sum_r ||M phi_r||^2), with chi transformed once."""
    chi.grid.require_compatible(dataset.grid)
    inside = require_binary_mask(dataset.mask)
    if not inside.any():
        raise ValueError("mask is empty: data consistency needs at least one voxel inside it")
    resid2 = 0.0
    norm2 = 0.0
    spec = rfft3(chi.data)
    for entry in dataset.entries:
        predicted = irfft3(spec * dipole_kernel(dataset.grid, entry.orientation).half, chi.grid.dims)
        resid2 += float(np.sum((predicted[inside] - entry.phase.data[inside]) ** 2))
        norm2 += float(np.sum(entry.phase.data[inside] ** 2))
    if norm2 == 0.0:
        raise ValueError("dataset phase is identically zero inside the mask")
    return float(np.sqrt(resid2) / np.sqrt(norm2))

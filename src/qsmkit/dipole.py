"""Unit dipole kernel and the Fourier-domain field model it induces.

The kernel is d(k) = 1/3 - (k.b)^2/|k|^2 on the physical frequency lattice,
with the 0/0 singularity at DC resolved to 0. Because d is real and even,
applying the field model to a real volume yields a real volume and the
operator is self-adjoint; the implementation exploits this with real FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Orientation, ScalarVolume, VolumeGrid, frequency_axes, outer_sum, spectral_apply

__all__ = ["DipoleKernel", "dipole_kernel", "forward_field", "adjoint_field"]


@dataclass(frozen=True, eq=False)
class DipoleKernel:
    """d(k) for one B0 orientation on one grid, on the half-spectrum of core.rfft3 (last axis
    nz // 2 + 1), in FFT order. The full lattice, ``values``, is derived from it on request."""

    grid: VolumeGrid
    orientation: Orientation
    half: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return _full_values(self.grid.dims, self.grid.spacing, self.orientation.b)


@lru_cache(maxsize=64)
def _kernel_values(dims, spacing, b) -> np.ndarray:
    fx, fy, fz = frequency_axes(VolumeGrid(dims, spacing))
    axes = (fx, fy, fz[: dims[2] // 2 + 1])

    def formula(fx, fy, fz):
        k2 = outer_sum(fx * fx, fy * fy, fz * fz)
        dot = outer_sum(fx * b[0], fy * b[1], fz * b[2])
        return 1.0 / 3.0 - (dot * dot) / k2

    # A real cosine mode on a Nyquist plane carries +k and -k with equal weight, and for oblique
    # b those two evaluations differ (the aliased frequency keeps one sign). Averaging d with its
    # samples at the negated FFT index, (-n) mod N, is the even multiplier a real self-adjoint
    # operator requires. d(-k) = d(k) and frequency_axes negate exactly, so those samples are d on
    # the axes with each Nyquist entry negated; off Nyquist planes the average is the formula value.
    mirrored = (np.where(2 * np.arange(f.size) == n, -f, f) for f, n in zip(axes, dims))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a subnormal k^2 keeps fewer bits, and d drifts from its direction's value (0.016 at 1e160 mm)
        if any(np.any((f != 0) & (f * f < np.finfo(np.float64).tiny)) for f in axes):
            raise ValueError(f"dipole kernel's squared frequencies fall below the normal float64 range "
                             f"on voxel spacing {spacing!r} mm")
        values = 0.5 * (formula(*axes) + formula(*mirrored))
    values[0, 0, 0] = 0.0
    if not np.all(np.isfinite(values)):  # a squared frequency past the float64 range
        raise ValueError(f"dipole kernel is not finite on voxel spacing {spacing!r} mm")
    # the frequency ratio is in [0, 1] analytically; clip round-off excursions
    np.clip(values, -2.0 / 3.0, 1.0 / 3.0, out=values)
    values.flags.writeable = False
    return values


@lru_cache(maxsize=64)
def _full_values(dims, spacing, b) -> np.ndarray:
    """The full lattice behind _kernel_values: d is even, d[i, j, k] = d[-i, -j, nz - k]."""
    half = _kernel_values(dims, spacing, b)
    tail = half[::-1, ::-1, (dims[2] + 1) // 2 - 1 : 0 : -1]
    values = np.concatenate([half, np.roll(tail, 1, axis=(0, 1))], axis=2)
    values.flags.writeable = False
    return values


def dipole_kernel(grid: VolumeGrid, orientation: Orientation) -> DipoleKernel:
    """Dipole kernel for one orientation; cached per (grid, orientation).

    The solver applies the field model twice per iteration for hundreds of
    iterations, so kernel values are computed once and shared.
    """
    half = _kernel_values(grid.dims, grid.spacing, orientation.b)
    return DipoleKernel(grid=grid, orientation=orientation, half=half)


def forward_field(chi: ScalarVolume, kernel: DipoleKernel) -> ScalarVolume:
    """Field (phase) induced by a susceptibility volume: real(ifft3(d . fft3(chi)))."""
    chi.grid.require_compatible(kernel.grid)
    return ScalarVolume._owning(chi.grid, spectral_apply(chi.data, kernel.half))


def adjoint_field(phi: ScalarVolume, kernel: DipoleKernel) -> ScalarVolume:
    """Adjoint of the field model; equals forward_field since d(k) is real and even.

    No qsmkit code calls it: ndi_gradient applies the kernel through
    spectral_apply. It is kept as public API, for the adjoint tests in
    test_dipole.py, and as a target of perfbench's dipole.field span.
    """
    return forward_field(phi, kernel)

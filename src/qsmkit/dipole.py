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
    """d(k) sampled in FFT order for one B0 orientation on one grid."""

    grid: VolumeGrid
    orientation: Orientation
    values: np.ndarray

    @property
    def half(self) -> np.ndarray:
        """View of the kernel on the half-spectrum of core.rfft3 (last axis truncated)."""
        nz = self.grid.dims[2]
        return self.values[:, :, : nz // 2 + 1]


def _index_mirror(values: np.ndarray) -> np.ndarray:
    """values sampled at the negated FFT index, (-n) mod N per axis."""
    return np.roll(values[::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(0, 1, 2))


@lru_cache(maxsize=64)
def _kernel_values(dims, spacing, b) -> np.ndarray:
    grid = VolumeGrid(dims, spacing)
    fx, fy, fz = frequency_axes(grid)
    k2 = outer_sum(fx * fx, fy * fy, fz * fz)
    dot = outer_sum(fx * b[0], fy * b[1], fz * b[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = 1.0 / 3.0 - (dot * dot) / k2
    values[0, 0, 0] = 0.0
    # A real cosine mode on a Nyquist plane carries +k and -k with equal
    # weight, and for oblique b those two evaluations differ (the aliased
    # frequency keeps one sign). Averaging the mirrored samples is the even
    # multiplier a real self-adjoint operator requires; away from Nyquist
    # planes it leaves the formula value untouched.
    values = 0.5 * (values + _index_mirror(values))
    # the frequency ratio is in [0, 1] analytically; clip round-off excursions
    np.clip(values, -2.0 / 3.0, 1.0 / 3.0, out=values)
    values.flags.writeable = False
    return values


def dipole_kernel(grid: VolumeGrid, orientation: Orientation) -> DipoleKernel:
    """Dipole kernel for one orientation; cached per (grid, orientation).

    The solver applies the field model twice per iteration for hundreds of
    iterations, so kernel values are computed once and shared.
    """
    values = _kernel_values(grid.dims, grid.spacing, orientation.b)
    return DipoleKernel(grid=grid, orientation=orientation, values=values)


def forward_field(chi: ScalarVolume, kernel: DipoleKernel) -> ScalarVolume:
    """Field (phase) induced by a susceptibility volume: real(ifft3(d . fft3(chi)))."""
    chi.grid.require_compatible(kernel.grid)
    return ScalarVolume(chi.grid, spectral_apply(chi.data, kernel.half))


def adjoint_field(phi: ScalarVolume, kernel: DipoleKernel) -> ScalarVolume:
    """Adjoint of the field model; equals forward_field since d(k) is real and even.

    No qsmkit code calls it: ndi_gradient applies the kernel through
    spectral_apply. It is kept as public API, for the adjoint tests in
    test_dipole.py, and as a target of perfbench's dipole.field span.
    """
    return forward_field(phi, kernel)

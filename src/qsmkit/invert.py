"""Linear benchmark inversions: TKD, COSMOS, and the L2 closed form.

All three act pointwise in k-space and are linear in the input phase.
Reconstructions follow the DC-value-0 kernel convention, so outputs are
zero-mean and comparisons should be made after in-mask mean removal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrientationDataset, ScalarVolume, VolumeGrid, irfft3, outer_sum, rfft3, spectral_apply
from .dipole import DipoleKernel, dipole_kernel

__all__ = [
    "TkdConfig",
    "CosmosConfig",
    "L2Config",
    "tkd",
    "tkd_multiplier",
    "cosmos",
    "l2_closedform",
    "gradient_energy_spectrum",
]


@dataclass(frozen=True)
class TkdConfig:
    """Threshold below which |d| is replaced by delta (sign preserved)."""

    delta: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0 / 3.0:
            raise ValueError("TKD delta must lie in (0, 2/3]")


@dataclass(frozen=True)
class CosmosConfig:
    """Threshold on the combined kernel energy sum_r d_r^2."""

    eps: float = 1e-6

    def __post_init__(self):
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError("COSMOS eps must be positive and finite")


@dataclass(frozen=True)
class L2Config:
    """Weight of the discrete-gradient penalty in the closed-form solve."""

    lam: float = 0.01

    def __post_init__(self):
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValueError("L2 lambda must be finite and >= 0")


def tkd_multiplier(d: np.ndarray, delta: float) -> np.ndarray:
    """Spectral multiplier: 1/d where |d| > delta, else sgn(d)/delta.

    sgn(0) = 0, so exact kernel zeros (including DC) map to 0 instead of
    injecting an arbitrary sign.
    """
    with np.errstate(divide="ignore"):
        inv = np.where(np.abs(d) > delta, 1.0 / np.where(d != 0, d, 1.0), np.sign(d) / delta)
    return inv


def tkd(phase: ScalarVolume, kernel: DipoleKernel, cfg: TkdConfig = TkdConfig()) -> ScalarVolume:
    """Truncated k-space division of the tissue phase by the dipole kernel."""
    phase.grid.require_compatible(kernel.grid)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: ScalarVolume refuses it
        multiplier = tkd_multiplier(kernel.half, cfg.delta)
        return ScalarVolume._owning(phase.grid, spectral_apply(phase.data, multiplier))


def cosmos(dataset: OrientationDataset, cfg: CosmosConfig = CosmosConfig()) -> ScalarVolume:
    """Multi-orientation closed form (sum_r d_r phi_r) / (sum_r d_r^2).

    Spectral points whose combined kernel energy stays below eps are zeroed;
    with enough distinct orientations that support covers everything but DC.
    Orientations are accumulated in ascending entry order.
    """
    grid = dataset.grid
    terms = ((e.phase.data, dipole_kernel(grid, e.orientation).half) for e in dataset.entries)
    return _least_squares(grid, terms, cfg.eps)


def gradient_energy_spectrum(grid: VolumeGrid) -> np.ndarray:
    """Fourier symbol of the 3D forward-difference gradient energy.

    E(k) = sum_i |1 - exp(-2*pi*i*n_i/N_i)|^2 on the rfft lattice; zero only
    at DC.
    """
    terms = [np.abs(1.0 - np.exp(-2j * np.pi * np.arange(n_ax) / n_ax)) ** 2 for n_ax in grid.dims]
    return outer_sum(terms[0], terms[1], terms[2][: grid.dims[2] // 2 + 1])


def l2_closedform(
    phase: ScalarVolume, kernel: DipoleKernel, cfg: L2Config = L2Config()
) -> ScalarVolume:
    """Closed-form Tikhonov-gradient-regularized inversion.

    chi(k) = d*phi(k) / (d^2 + lambda*E(k)); points where the denominator is
    exactly zero (DC, and the kernel zero cone when lambda = 0) map to 0.
    """
    phase.grid.require_compatible(kernel.grid)
    return _least_squares(phase.grid, [(phase.data, kernel.half)], 0.0, cfg.lam)


def _least_squares(grid: VolumeGrid, terms, floor: float, lam: float = 0.0) -> ScalarVolume:
    """irfft3 of sum_r d_r*rfft3(phi_r) / (sum_r d_r^2 + lam*E(k)), 0 where that denominator is <= floor.

    terms are (phase, kernel half-spectrum) pairs, summed in the given order; E
    is gradient_energy_spectrum. The quotient is formed in place in the numerator.
    """
    numerator = denominator = None
    for phase, d in terms:
        spec = rfft3(phase)
        spec *= d
        if numerator is None:
            numerator, denominator = spec, d * d
        else:
            numerator += spec
            denominator += d * d
        del spec  # before the next orientation's transform
    # a large lambda gives an inf denominator, a subnormal one an inf result that ScalarVolume refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if lam:
            denominator += lam * gradient_energy_spectrum(grid)
        numerator /= denominator
    numerator[denominator <= floor] = 0.0
    return ScalarVolume._owning(grid, irfft3(numerator, grid.dims))

"""Ground-truth phantoms and noisy single/multi-orientation acquisitions.

Noise is applied in the complex signal domain (magnitude * exp(i*phase) plus
independent Gaussian real/imaginary components), so low-SNR phase statistics
behave like real data instead of additive phase noise. Streams are drawn from
a Philox4x64 counter-based generator keyed by (seed, orientation index),
which makes datasets bit-reproducible and orientations independent. A draw
runs on the pool while its orientation's field transform runs, and the signal
passes run in slabs, with the bits of the plain expressions for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _AXES,
    _is_integer,
    Acquisition,
    OrientationDataset,
    ScalarVolume,
    VolumeGrid,
    for_slabs,
    in_background,
    voxel_coords,
)
from .dipole import dipole_kernel, forward_field

__all__ = ["Shape", "PhantomSpec", "NoiseSpec", "make_phantom", "simulate_acquisition", "wrap_phase"]

_KINDS = {"sphere": 1, "cylinder": 2, "cuboid": 3}  # each kind's number of size parameters
_MAX_MM = 1e150  # a longer centre offset or size would square to inf in the containment tests
_MAX_SIGMA = 1e300  # larger noise would leave the float range


@dataclass(frozen=True)
class Shape:
    """One phantom primitive.

    size parameters in mm by kind:
      sphere   (radius,)
      cylinder (radius, length)   with `axis` naming the symmetry axis
      cuboid   (lx, ly, lz)       full edge lengths

    Containment is boundary-inclusive; centers are in the voxel_coords frame
    (origin at voxel index dims//2).
    """

    kind: str
    center: tuple[float, float, float]
    size: tuple[float, ...]
    chi: float
    axis: str = "z"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        expected = _KINDS[self.kind]
        size = tuple(float(s) for s in np.atleast_1d(self.size))
        if len(size) != expected:
            raise ValueError(f"{self.kind} needs {expected} size parameter(s), got {size}")
        if not all(0 < s <= _MAX_MM for s in size):
            raise ValueError(f"shape sizes must be positive and finite, at most {_MAX_MM:g} mm, got {size}")
        if self.axis not in _AXES:
            raise ValueError(f"cylinder axis must be x, y or z, got {self.axis!r}")
        center = tuple(float(c) for c in self.center)
        if len(center) != 3:
            raise ValueError("shape center requires 3 coordinates")
        chi = float(self.chi)
        if not (all(abs(c) <= _MAX_MM for c in center) and np.isfinite(chi)):
            raise ValueError(f"shape center must be finite, within {_MAX_MM:g} mm, and chi finite, "
                             f"got {center} and {chi}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "chi", chi)

    def contains(self, px, py, pz):
        """Whether each point (coordinates broadcast together, in mm) lies in the shape."""
        d = (px - self.center[0], py - self.center[1], pz - self.center[2])
        if self.kind == "sphere":
            return d[0] ** 2 + d[1] ** 2 + d[2] ** 2 <= self.size[0] ** 2
        if self.kind == "cylinder":
            a = _AXES[self.axis]
            radial2 = sum(d[i] ** 2 for i in range(3) if i != a)
            return (np.abs(d[a]) <= self.size[1] / 2.0) & (radial2 <= self.size[0] ** 2)
        lx, ly, lz = (e / 2.0 for e in self.size)  # half-extents
        return (np.abs(d[0]) <= lx) & (np.abs(d[1]) <= ly) & (np.abs(d[2]) <= lz)


def rasterize_shapes(coords, shapes, background):
    """Fill a volume on the voxel_coords axes; the last shape containing a voxel wins."""
    xs, ys, zs = coords
    out = np.full((xs.size, ys.size, zs.size), background, dtype=np.float64)
    points = (xs[:, None, None], ys[None, :, None], zs[None, None, :])
    for shape in shapes:
        out[shape.contains(*points)] = shape.chi
    return out


@dataclass(frozen=True)
class PhantomSpec:
    """Shape list plus background susceptibility; later shapes overwrite earlier."""

    shapes: tuple[Shape, ...] = ()
    background: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(self, "background", float(self.background))


@dataclass(frozen=True)
class NoiseSpec:
    """Complex-noise standard deviation per channel and the stream seed."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma <= _MAX_SIGMA:
            raise ValueError(f"noise sigma must be >= 0 and at most {_MAX_SIGMA:g}, got {self.sigma}")
        if not _is_integer(self.seed):
            raise ValueError(f"noise seed must be an integer, got {self.seed!r}")


def make_phantom(grid: VolumeGrid, spec: PhantomSpec) -> ScalarVolume:
    """Rasterize a PhantomSpec: each voxel takes the chi of the last shape
    containing its center, or the background value."""
    return ScalarVolume._owning(grid, rasterize_shapes(voxel_coords(grid), spec.shapes, spec.background))


def wrap_phase(x: np.ndarray) -> np.ndarray:
    """Wrap values into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def _noise_rng(seed: int, r: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(r)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _received(clean, amplitude, eta):
    """Angle in (-pi, pi] and modulus of amplitude*exp(1j*clean) + eta[0] + 1j*eta[1] (no noise if eta is
    None): that expression's ufuncs on its operands in its order, in slabs of x-planes on the FFT workers."""
    signal = np.empty(clean.shape, dtype=np.complex128)
    noise = () if eta is None else (*eta, np.empty_like(signal))  # real, imaginary, 1j*imaginary
    phase, modulus = np.empty(clean.shape), np.empty(clean.shape)

    def slab(sig, clean, amplitude, phase, modulus, real=None, imag=None, noise_i=None):
        np.multiply(amplitude, np.exp(np.multiply(1j, clean, out=sig), out=sig), out=sig)
        if real is not None:
            np.add(sig, real, out=sig)
            np.add(sig, np.multiply(1j, imag, out=noise_i), out=sig)
        np.arctan2(sig.imag, sig.real, out=phase)  # np.angle
        np.abs(sig, out=modulus)

    for_slabs(slab, signal, clean, amplitude, phase, modulus, *noise)
    phase[phase <= -np.pi] = np.pi  # arg convention: (-pi, pi]
    return phase, modulus


def simulate_acquisition(
    chi: ScalarVolume,
    magnitude: ScalarVolume,
    orientations,
    noise: NoiseSpec = NoiseSpec(),
    mask: ScalarVolume | None = None,
) -> OrientationDataset:
    """Forward-simulate wrapped phase and noisy magnitude per orientation.

    For rotation r the clean phase is the dipole field of chi; the complex
    signal is magnitude*exp(i*phase) plus N(0, sigma) noise on each channel,
    and the returned (phase, magnitude) are its argument in (-pi, pi] and
    modulus. ``mask`` defaults to magnitude > 0.
    """
    grid = chi.grid
    grid.require_compatible(magnitude.grid)
    if np.any(magnitude.data < 0):
        raise ValueError("magnitude must be non-negative")
    if mask is None:
        mask = ScalarVolume(grid, (magnitude.data > 0).astype(np.float64))
    else:
        grid.require_compatible(mask.grid)

    entries = []
    for r, orientation in enumerate(orientations):
        eta = None
        if noise.sigma > 0:  # the serial Philox draw runs on the pool while the field transform runs here
            eta = in_background(_noise_rng(noise.seed, r).normal, 0.0, noise.sigma, (2,) + grid.dims)
        clean = forward_field(chi, dipole_kernel(grid, orientation)).data
        received = _received(clean, magnitude.data, eta() if eta else None)
        phase, modulus = (ScalarVolume._owning(grid, a) for a in received)
        entries.append(Acquisition(phase, modulus, orientation))
    return OrientationDataset(entries=tuple(entries), mask=mask)

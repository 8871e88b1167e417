"""Grids, volumes, orientations, and the spectral/morphological primitives.

Conventions used throughout the package:

* volumes are ``(Nx, Ny, Nz)`` float64 arrays; the on-disk linear order is
  x-fastest (Fortran ravel),
* the forward FFT is unnormalized, the inverse carries the ``1/N`` factor
  (numpy's convention), with the DC coefficient at index ``(0, 0, 0)``,
* real volumes go through the ``rfftn`` half-spectrum (last axis
  ``Nz // 2 + 1``); every transform runs here, on ``fft_workers()`` workers,
  and a k-space multiplier is applied with ``spectral_apply``,
* frequencies are physical, in cycles/mm, so anisotropic voxels produce
  correct dipole kernels,
* physical voxel coordinates put the origin at voxel index ``dims // 2``.

The passes off the FFT path (the SSIM filters, the unwrap and NDI trig, NDI's k-space
update, the simulator's signal) hand their arrays to ``for_slabs``, which cuts their first
axis into one contiguous slab per FFT worker. Each pass is elementwise or filters lines along
an axis the slabs do not cut, so the bits do not depend on the thread count. ``in_background``
runs the simulator's serial noise draw beside a transform, on the same pool. Mask erosion is a
short chain of boolean ANDs of shifted views on the caller (``mask_erode``), in numpy alone,
over the mask's bounding box; the SSIM filters run on the box of the voxels they score. A volume
owns its read-only samples (a copy of a caller's array, the very array a library result was made
in), and a mask remembers its inside voxels and its last erosion.

The four transforms below are the package's only scipy calls: ``scipy.fft`` is imported on
their first use, on the calling thread, so a CLI stage that transforms nothing (``phantom``,
``metrics`` without a dataset) runs on numpy alone. They are called as ``scipy.fft`` attributes
at call time, so a wrapper swapped onto that module (perfbench's tracer) sees every call.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridMismatchError",
    "VolumeGrid",
    "ScalarVolume",
    "ComplexVolume",
    "Orientation",
    "Acquisition",
    "OrientationDataset",
    "fft3",
    "ifft3",
    "rfft3",
    "irfft3",
    "spectral_apply",
    "freq_coords",
    "frequency_axes",
    "voxel_coords",
    "mask_erode",
    "fft_workers",
]


class GridMismatchError(ValueError):
    """Raised when an operation receives volumes on incompatible grids."""


def fft_workers() -> int:
    """Worker count for FFT calls; QSM_THREADS caps it, 0 (in any spelling) or unset means auto.

    Raises ValueError naming QSM_THREADS when it is not a non-negative integer.
    """
    raw = os.environ.get("QSM_THREADS", "").strip()
    try:
        if (threads := int(raw or 0)) >= 0:
            return threads or os.cpu_count() or 1
    except ValueError:
        pass
    raise ValueError(f"QSM_THREADS must be a non-negative integer (0 = auto), got {raw!r}")


# A slab holds at least this many voxels, so threads start at twice it. On a
# 2-core x86 host, two threads took 1.03 ms of trig on a 32^3 volume against
# 0.89 ms for one, and 1.6 ms on 40^3 against 2.5 ms.
_CHUNK = 1 << 15
# One pool per process; it starts threads on first use. On the same host a
# pool made and shut down per call cost 0.5-0.9 ms, a standing one 0.07 ms.
_pool = concurrent.futures.ThreadPoolExecutor(thread_name_prefix="qsmkit")


def for_slabs(fn, *arrays):
    """Call fn with each array's rows in one contiguous slab of their shared first axis, per FFT worker.

    Slabs start on multiples of the rows in _CHUNK voxels of the first array, so
    each holds at least that many; a pass that must not cut the first axis hands
    in views with another axis first. The first slab runs on the caller, since
    allocations in pool threads grow per-thread malloc arenas; the pool runs the
    rest under the caller's numpy error settings. fn calls only numpy:
    perfbench's tracer wraps qsmkit and scipy.fft functions, and its span
    stack is not thread-safe.
    """
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError(f"for_slabs needs one first-axis length, got {[len(a) for a in arrays]}")
    grain = -(-_CHUNK // max(1, arrays[0][:1].size))  # rows in _CHUNK voxels, rounded up
    workers = max(1, min(fft_workers(), n // grain))
    bounds = [n * i // workers // grain * grain for i in range(workers)] + [n]
    slabs = [[a[lo:hi] for a in arrays] for lo, hi in zip(bounds, bounds[1:])]
    # one errstate per slab, made on the caller: an errstate is entered only once
    futures = [_pool.submit(np.errstate(**np.geterr())(fn), *views) for views in slabs[1:]]
    try:
        fn(*slabs[0])
    finally:
        for f in futures:
            f.result()


def in_background(fn, *args):
    """A callable giving fn(*args), which is started on the pool now if there is more than one
    FFT worker, else called on the caller when asked. fn calls only numpy, as in for_slabs."""
    return _pool.submit(fn, *args).result if fft_workers() > 1 else lambda: fn(*args)


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, and False for a bool, a float or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class VolumeGrid:
    """Sampling lattice: integer extents and voxel spacing in millimeters."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not all(_is_integer(n) for n in self.dims):
            raise ValueError(f"grid extents must be integers, got {self.dims!r}")
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or len(spacing) != 3:
            raise ValueError("grid requires 3 extents and 3 spacings")
        if any(n < 1 for n in dims):
            raise ValueError(f"grid extents must be >= 1, got {dims}")
        if not all(0 < s < np.inf for s in spacing):
            raise ValueError(f"voxel spacing must be positive and finite, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def compatible(self, other: "VolumeGrid") -> bool:
        return self.dims == other.dims and self.spacing == other.spacing

    def require_compatible(self, other: "VolumeGrid"):
        if not self.compatible(other):
            raise GridMismatchError(
                f"grids differ: {self.dims}@{self.spacing} vs {other.dims}@{other.spacing}"
            )


def _checked_samples(grid, data, dtype, copy=True):
    arr = np.array(data, dtype=dtype, order="C", copy=copy)  # copy=False raises unless data fits as is
    if arr.shape != grid.dims:
        if arr.size == grid.n_voxels and arr.ndim == 1:
            arr = arr.reshape(grid.dims, order="F")
        else:
            raise ValueError(f"sample shape {arr.shape} does not match grid {grid.dims}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("volume samples must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """Real-valued 3D field on a grid. Immutable; operations return new volumes.

    ``data`` is float64 with shape ``grid.dims``; a flat buffer in x-fastest
    order is accepted and reshaped. The samples are a read-only array the volume owns: a caller's
    array is copied, a library result keeps the array the library just made. A mask remembers its
    inside voxels (``require_binary_mask``) and its last erosion (``mask_erode``).
    """

    grid: VolumeGrid
    data: np.ndarray

    def __post_init__(self, copy=True):
        object.__setattr__(self, "data", _checked_samples(self.grid, self.data, np.float64, copy))
        object.__setattr__(self, "_memo", {})  # lives and dies with the volume

    @classmethod
    def _owning(cls, grid: VolumeGrid, data: np.ndarray) -> "ScalarVolume":
        """A volume around data, a C-contiguous float64 array the library just made and holds nowhere
        else: checked as a caller's array is, then made read-only in place instead of copied."""
        volume = object.__new__(cls)
        volume.__dict__.update(grid=grid, data=data)  # past the frozen __setattr__, as __init__ sets them
        volume.__post_init__(copy=False)
        return volume

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "ScalarVolume":
        return cls(grid, np.zeros(grid.dims))

    @classmethod
    def full(cls, grid: VolumeGrid, value: float) -> "ScalarVolume":
        return cls(grid, np.full(grid.dims, float(value)))


@dataclass(frozen=True, eq=False)
class ComplexVolume:
    """Complex-valued 3D field on a grid (k-space intermediate storage)."""

    grid: VolumeGrid
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_samples(self.grid, self.data, np.complex128))


@dataclass(frozen=True)
class Orientation:
    """Unit B0 direction expressed in the volume coordinate frame."""

    b: tuple[float, float, float]

    def __post_init__(self):
        b = tuple(float(c) for c in self.b)
        if len(b) != 3:
            raise ValueError("orientation requires 3 components")
        norm = float(np.sqrt(b[0] ** 2 + b[1] ** 2 + b[2] ** 2))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"orientation must be unit-norm within 1e-9, got |b|={norm!r}")
        object.__setattr__(self, "b", b)

    @classmethod
    def from_vector(cls, v) -> "Orientation":
        """Normalize an arbitrary nonzero vector into an Orientation."""
        arr = np.asarray(v, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if arr.shape != (3,) or not 0.0 < norm < np.inf:
            raise ValueError(f"cannot normalize {v!r} into a direction")
        return cls(tuple(arr / norm))


@dataclass(frozen=True, eq=False)
class Acquisition:
    """One head rotation: phase (radians), magnitude (>= 0), B0 direction."""

    phase: ScalarVolume
    magnitude: ScalarVolume
    orientation: Orientation


def require_binary_mask(mask: ScalarVolume) -> np.ndarray:
    """The voxels inside mask, mask.data > 0.5, as a read-only array; a ValueError, on every call,
    unless every sample is 0 or 1 (equal to its inside bit). The samples are scanned once."""
    if "inside" not in mask._memo:
        inside = mask.data > 0.5
        inside.flags.writeable = False
        mask._memo["inside"] = inside if np.array_equal(mask.data, inside) else None  # None: refused
    if (inside := mask._memo["inside"]) is None:
        raise ValueError("mask must be binary (all samples 0 or 1)")
    return inside


@dataclass(frozen=True, eq=False)
class OrientationDataset:
    """Co-registered per-orientation acquisitions plus a shared binary mask."""

    entries: tuple[Acquisition, ...]
    mask: ScalarVolume

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) < 1:
            raise ValueError("dataset requires at least one orientation")
        grid = self.mask.grid
        for i, e in enumerate(entries):
            grid.require_compatible(e.phase.grid)
            grid.require_compatible(e.magnitude.grid)
            if np.any(e.magnitude.data < 0):
                raise ValueError(f"entry {i}: magnitude must be non-negative")
        require_binary_mask(self.mask)
        object.__setattr__(self, "entries", entries)

    @property
    def grid(self) -> VolumeGrid:
        return self.mask.grid

    @property
    def n_orientations(self) -> int:
        return len(self.entries)


def fft3(v) -> ComplexVolume:
    """Unnormalized forward 3D DFT; DC at linear index 0."""
    import scipy.fft

    spectrum = scipy.fft.fftn(np.asarray(v.data, dtype=np.complex128), workers=fft_workers())
    return ComplexVolume(v.grid, spectrum)


def ifft3(v: ComplexVolume) -> ComplexVolume:
    """Inverse 3D DFT with 1/(Nx*Ny*Nz) normalization."""
    import scipy.fft

    out = scipy.fft.ifftn(np.asarray(v.data, dtype=np.complex128), workers=fft_workers())
    return ComplexVolume(v.grid, out)


def rfft3(data: np.ndarray) -> np.ndarray:
    """Unnormalized forward 3D DFT of a real array, on the rfftn half-spectrum."""
    import scipy.fft

    return scipy.fft.rfftn(data, workers=fft_workers())


def irfft3(spec: np.ndarray, dims) -> np.ndarray:
    """Real image of extents dims behind a half-spectrum, with the 1/N factor."""
    import scipy.fft

    return scipy.fft.irfftn(spec, s=dims, workers=fft_workers())


def spectral_apply(data: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """irfft3(symbol * rfft3(data)) for a real array and a half-spectrum symbol.

    The product is formed in place in the forward transform's output. An overflow
    there gives inf or nan without a warning, for the caller to refuse.
    """
    spec = rfft3(data)
    with np.errstate(over="ignore", invalid="ignore"):
        spec *= symbol
    return irfft3(spec, np.shape(data))


_AXES = {"x": 0, "y": 1, "z": 2}


def freq_coords(grid: VolumeGrid, axis: str, index: int) -> float:
    """Physical frequency (cycles/mm) of an FFT-ordered index along one axis.

    Returns n/(N*delta) with n = index for index < ceil(N/2), else index - N.
    axis is "x", "y", "z", 0, 1 or 2, and index an integer in [0, N); others raise ValueError.
    """
    ax = _AXES.get(axis) if isinstance(axis, str) else axis
    if not (_is_integer(ax) and ax in _AXES.values()):
        raise ValueError(f"axis must be x, y, z, 0, 1 or 2, got {axis!r}")
    n_ax = grid.dims[ax]
    if not (_is_integer(index) and 0 <= index < n_ax):
        raise ValueError(f"index {index!r} is not an integer in range for axis of extent {n_ax}")
    return float(frequency_axes(grid)[ax][index])


def frequency_axes(grid: VolumeGrid):
    """Per-axis 1D arrays of physical frequencies in FFT order."""
    out = []
    for n_ax, delta in zip(grid.dims, grid.spacing):
        idx = np.arange(n_ax)
        signed = np.where(idx < (n_ax + 1) // 2, idx, idx - n_ax)
        out.append(signed / (n_ax * delta))
    return tuple(out)


def voxel_coords(grid: VolumeGrid):
    """Per-axis 1D arrays of physical voxel-center coordinates (mm).

    Origin sits at voxel index dims//2 on each axis.
    """
    return tuple(
        (np.arange(n_ax) - n_ax // 2) * delta for n_ax, delta in zip(grid.dims, grid.spacing)
    )


def outer_sum(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The 3D lattice of x[i] + y[j] + z[k], summed in that order, from three 1D arrays."""
    return x[:, None, None] + y[None, :, None] + z[None, None, :]


def ball_offsets(spacing, radius_mm: float) -> np.ndarray:
    """Boolean stencil of voxel offsets whose centers lie within radius_mm."""
    # one past the floor: 9.1 / 1.3 rounds below 7, yet (7 * 1.3)^2 <= 9.1^2; the test decides
    reach = [int(np.floor(radius_mm / s)) + 1 for s in spacing]
    squares = [(np.arange(-r, r + 1) * s) ** 2 for r, s in zip(reach, spacing)]
    return outer_sum(*squares) <= radius_mm * radius_mm


def _bounding_box(inside: np.ndarray):
    """Slices spanning the True voxels of a 3D boolean array; empty if there are none."""
    spans = [np.flatnonzero(np.any(inside, axis=tuple({0, 1, 2} - {axis}))) for axis in range(3)]
    return tuple(slice(s[0], s[-1] + 1) if s.size else slice(0, 0) for s in spans)


def _erode_step(a: np.ndarray, axis: int) -> np.ndarray:
    """a eroded by the run of offsets [-1, 1] along axis; the border counts as 0."""
    v = np.moveaxis(a, axis, 0)
    pairs = v[1:] & v[:-1]
    out = np.zeros_like(v)
    np.logical_and(pairs[:-1], pairs[1:], out=out[1:-1])
    return np.moveaxis(out, 0, axis)


def mask_erode(mask: ScalarVolume, radius_mm: float) -> ScalarVolume:
    """Erode a binary mask with a physical ball: a voxel survives iff every
    voxel center within radius_mm of it (volume boundary counts as 0) is 1.

    The same bits as ``scipy.ndimage.binary_erosion(inside, ball_offsets(spacing,
    radius_mm), border_value=0)``, from one-voxel steps along one axis at a
    time. dist^2 is symmetric in each offset's sign and never decreases with
    its size, so each (x, y) column of the ball is a z run [-h, h] (or empty),
    the columns with h >= k in one x row form a y run [-g, g], and the x
    offsets whose g reaches a given value an x run [-t, t]. So the ball is a
    union of boxes [-t, t] x [-g, g] x [-k, k], and erosion by a union is the
    AND of the erosions by its parts. A run [-n, n] is n steps and a step
    distributes over AND, so with G_t the AND of the y-z erosions whose x run
    is [-t, t], the result is G_0 & X(G_1 & X(G_2 & ...)), X an x step. Every
    step ANDs shifted views of booleans, so nothing rounds. The result lies in
    the mask, so only the mask's bounding box is eroded, its border counting 0.
    The mask keeps its last result, so asking again with that radius erodes nothing.
    """
    inside = require_binary_mask(mask)
    if not 0 <= radius_mm < np.inf:
        raise ValueError(f"erosion radius must be finite and >= 0, got {radius_mm!r}")
    if (last := mask._memo.get("eroded")) is None or last[0] != radius_mm:
        last = mask._memo["eroded"] = (radius_mm, _erode(inside, mask.grid, radius_mm))
    return last[1]


def _erode(inside: np.ndarray, grid: VolumeGrid, radius_mm: float) -> ScalarVolume:
    if any(np.floor(radius_mm / s) >= n for s, n in zip(grid.spacing, grid.dims)):
        # every voxel's ball reaches past a face, so nothing survives; no stencil needed
        return ScalarVolume(grid, np.zeros(grid.dims))
    structure = ball_offsets(grid.spacing, radius_mm)
    box = _bounding_box(inside)
    h = (np.count_nonzero(structure, axis=2) - 1) // 2  # z half-width per column, -1 if empty
    groups = {}  # x half-width t -> G_t, the AND of the y-z erosions it applies to
    ez = inside[box]
    for k in range(h.max() + 1):
        if k:
            ez = _erode_step(ez, 2)
        half_y = (np.count_nonzero(h >= k, axis=1) - 1) // 2  # y half-width per x offset
        ey = ez
        for g in range(half_y.max() + 1):
            if g:
                ey = _erode_step(ey, 1)
            if g in half_y:
                t = (np.count_nonzero(half_y >= g) - 1) // 2
                groups[t] = groups[t] & ey if t in groups else ey
    top = max(groups)
    eroded = groups[top]
    for t in range(top - 1, -1, -1):
        eroded = _erode_step(eroded, 0)
        if t in groups:
            eroded = eroded & groups[t]
    out = np.zeros(grid.dims, dtype=bool)
    out[box] = eroded
    return ScalarVolume(grid, out)

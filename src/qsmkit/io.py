"""Minimal NIfTI-1 volume IO and PGM slice encoding.

Only the subset needed by the pipeline is supported and anything else is
rejected loudly: single-file little-endian NIfTI-1 ("n+1"), 3D, float32 or
float64 data, pixdim spacing, scl_slope/scl_inter applied on load. Files are
written as float32 with vox_offset 352. Data is stored x-fastest, matching
the volume layout convention. A slice becomes the bytes of a binary PGM file,
for the caller to write.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import _AXES, ScalarVolume, VolumeGrid, _is_integer

__all__ = ["NiftiFormatError", "read_nifti", "require_nifti_grid", "require_nifti_volume", "write_nifti",
           "slice_to_pgm"]

_HEADER_SIZE = 348
_MAGIC_SINGLE = b"n+1\x00"
_DT_FLOAT32 = 16
_DT_FLOAT64 = 64
_DTYPES = {_DT_FLOAT32: np.dtype("<f4"), _DT_FLOAT64: np.dtype("<f8")}
_F32_INF = 2.0**128 - 2.0**103  # float32's largest value plus half an ulp: rounds to inf


class NiftiFormatError(ValueError):
    """Raised for files outside the supported NIfTI-1 subset."""


def require_nifti_grid(grid: VolumeGrid):
    """Raise ValueError unless the header can hold grid: int16 extents, and
    float32 spacings that stay positive and finite (read_nifti refuses others)."""
    if max(grid.dims) > 32767:
        raise ValueError(f"grid extents {grid.dims} exceed the NIfTI-1 limit of 32767")
    with np.errstate(over="ignore", under="ignore"):
        pixdim = np.array(grid.spacing, dtype=np.float32)
    if not all(0 < p < np.inf for p in pixdim):
        raise ValueError(f"voxel spacing {grid.spacing} is 0 or inf as a NIfTI-1 float32 pixdim")


def require_nifti_volume(path, volume: ScalarVolume):
    """Raise ValueError unless write_nifti can store volume: its grid fits the
    header (require_nifti_grid) and its values the float32 range (outside it
    they would be stored as inf, which read_nifti refuses)."""
    require_nifti_grid(volume.grid)
    if not max(volume.data.max(), -volume.data.min()) < _F32_INF:
        raise ValueError(f"{path}: values beyond the float32 range cannot be written")


def write_nifti(path, volume: ScalarVolume):
    """Write a single-file little-endian float32 NIfTI-1 volume.

    Raises ValueError, before the file is opened, unless require_nifti_volume passes.
    """
    require_nifti_volume(path, volume)
    samples = volume.data.astype("<f4")
    nx, ny, nz = volume.grid.dims
    dx, dy, dz = volume.grid.spacing
    header = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", header, 0, _HEADER_SIZE)  # sizeof_hdr
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)  # dim
    struct.pack_into("<h", header, 70, _DT_FLOAT32)  # datatype
    struct.pack_into("<h", header, 72, 32)  # bitpix
    struct.pack_into("<8f", header, 76, 1.0, dx, dy, dz, 0.0, 0.0, 0.0, 0.0)  # pixdim
    struct.pack_into("<f", header, 108, 352.0)  # vox_offset
    struct.pack_into("<f", header, 112, 1.0)  # scl_slope
    struct.pack_into("<f", header, 116, 0.0)  # scl_inter
    struct.pack_into("<4s", header, 344, _MAGIC_SINGLE)
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(b"\x00\x00\x00\x00")  # extension flag: none
        fh.write(samples.tobytes(order="F"))


def read_nifti(path) -> ScalarVolume:
    """Read a volume written by write_nifti (or the supported subset of it).

    Raises NiftiFormatError for any file outside that subset or inconsistent
    with its header, non-finite samples included.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) < _HEADER_SIZE:
            raise NiftiFormatError(f"{path}: file shorter than a NIfTI-1 header")
        (sizeof_hdr,) = struct.unpack_from("<i", header, 0)
        if sizeof_hdr != _HEADER_SIZE:
            raise NiftiFormatError(
                f"{path}: sizeof_hdr={sizeof_hdr}, expected 348 (little-endian NIfTI-1)"
            )
        magic = struct.unpack_from("<4s", header, 344)[0]
        if magic != _MAGIC_SINGLE:
            raise NiftiFormatError(f"{path}: unsupported magic {magic!r}, expected 'n+1'")
        dim = struct.unpack_from("<8h", header, 40)
        if dim[0] != 3:
            raise NiftiFormatError(f"{path}: dim[0]={dim[0]}, only 3D volumes are supported")
        (datatype,) = struct.unpack_from("<h", header, 70)
        if datatype not in _DTYPES:
            raise NiftiFormatError(
                f"{path}: datatype {datatype} unsupported (need 16=float32 or 64=float64)"
            )
        pixdim = struct.unpack_from("<8f", header, 76)
        (vox_offset,) = struct.unpack_from("<f", header, 108)
        (scl_slope,) = struct.unpack_from("<f", header, 112)
        (scl_inter,) = struct.unpack_from("<f", header, 116)

        dims = (dim[1], dim[2], dim[3])
        spacing = tuple(float(p) for p in pixdim[1:4])
        try:
            grid = VolumeGrid(dims, spacing)
        except ValueError as exc:  # a dim below 1, a spacing that is not positive and finite
            raise NiftiFormatError(f"{path}: dim {dims}, pixdim {spacing}: {exc}") from exc

        if not math.isfinite(vox_offset):
            raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not finite")
        offset = round(vox_offset)
        if offset < _HEADER_SIZE:
            raise NiftiFormatError(f"{path}: vox_offset {vox_offset} before end of header")
        dtype = _DTYPES[datatype]
        n_bytes = grid.n_voxels * dtype.itemsize
        # checked before reading: a header may claim a volume far larger than memory
        if offset + n_bytes > os.fstat(fh.fileno()).st_size:
            raise NiftiFormatError(f"{path}: truncated data section")
        fh.seek(offset)
        raw = fh.read(n_bytes)

    samples = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        slope = scl_slope if scl_slope != 0.0 else 1.0
        with np.errstate(invalid="ignore"):  # inf * 0
            samples = samples * slope + scl_inter
    try:
        return ScalarVolume(grid, samples.reshape(dims, order="F"))
    except ValueError as exc:  # non-finite samples, stored or after scaling
        raise NiftiFormatError(f"{path}: {exc}") from exc


def slice_to_pgm(volume: ScalarVolume, axis: str, index: int, window_min: float, window_max: float) -> bytes:
    """One slice as the bytes of an 8-bit binary PGM (P5) file, mapping
    [window_min, window_max] linearly to [0, 255] with clamping (round half-up).

    Rows run top-to-bottom along the increasing second in-plane axis.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    ax = _AXES[axis]
    if not _is_integer(index):
        raise ValueError(f"slice index must be an integer, got {index!r}")
    if not 0 <= index < volume.grid.dims[ax]:
        raise ValueError(f"slice index {index} out of range for axis {axis} of extent {volume.grid.dims[ax]}")
    if not window_max > window_min:
        raise ValueError("window_max must exceed window_min")
    plane = np.take(volume.data, index, axis=ax)  # (first in-plane, second in-plane)
    with np.errstate(over="ignore"):  # a tiny window gives inf, which the clip saturates
        normalized = np.clip((plane - window_min) / (window_max - window_min), 0.0, 1.0)
    pixels = np.floor(normalized * 255.0 + 0.5).astype(np.uint8).T  # rows: second in-plane axis
    return f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii") + pixels.tobytes(order="C")

"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's code paths: the DFT oracle
multiplies explicit transform matrices, the erosion oracle checks voxel-pair
distances by brute force, the phantom oracle tests each voxel centre against
each shape in plain Python floats, and the dipole oracle builds its frequency
lattice with numpy.fft.fftfreq.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import qsmkit
from qsmkit import Orientation, ScalarVolume, VolumeGrid


def child_env(**overrides: str) -> dict:
    """``os.environ`` plus ``overrides``, with a ``PYTHONPATH`` that finds this qsmkit.

    The directory holding the imported ``qsmkit`` package comes first, then the
    inherited ``PYTHONPATH`` entries made absolute: a relative entry such as
    ``src`` would otherwise resolve against the child's working directory.
    ``PYTHONWARNINGS`` makes a RuntimeWarning an error in the child, as
    pyproject's ``filterwarnings`` does in the test process.
    """
    source_root = Path(qsmkit.__file__).resolve().parents[1]
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    paths = [source_root, *(Path(p).resolve() for p in inherited)]
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **overrides}
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    return env


def dft_matrix(n: int, sign: int = -1) -> np.ndarray:
    j = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / n)


def naive_dft3(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT by explicit matrix contraction."""
    fx, fy, fz = (dft_matrix(n) for n in x.shape)
    return np.einsum("ai,bj,ck,ijk->abc", fx, fy, fz, x.astype(np.complex128))


def naive_idft3(x: np.ndarray) -> np.ndarray:
    """Inverse DFT with 1/N normalization by explicit matrix contraction."""
    fx, fy, fz = (dft_matrix(n, sign=+1) for n in x.shape)
    out = np.einsum("ai,bj,ck,ijk->abc", fx, fy, fz, x.astype(np.complex128))
    return out / x.size


def index_mirror(values: np.ndarray) -> np.ndarray:
    return np.roll(values[::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(0, 1, 2))


def oracle_dipole_values(dims, spacing, b) -> np.ndarray:
    """Dipole kernel oracle: fftfreq lattice, DC zero, mirror-averaged."""
    axes = [np.fft.fftfreq(n, d=s) for n, s in zip(dims, spacing)]
    kx, ky, kz = np.meshgrid(*axes, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 / 3.0 - (kx * b[0] + ky * b[1] + kz * b[2]) ** 2 / k2
    d[0, 0, 0] = 0.0
    return 0.5 * (d + index_mirror(d))


def brute_erode(mask: np.ndarray, spacing, radius: float) -> np.ndarray:
    """Per-voxel distance check; outside the volume counts as zero."""
    dims = mask.shape
    reach = [int(np.floor(radius / s)) + 1 for s in spacing]  # the distance test decides the tips
    offsets = []
    for di in range(-reach[0], reach[0] + 1):
        for dj in range(-reach[1], reach[1] + 1):
            for dk in range(-reach[2], reach[2] + 1):
                dist2 = (di * spacing[0]) ** 2 + (dj * spacing[1]) ** 2 + (dk * spacing[2]) ** 2
                if dist2 <= radius * radius:
                    offsets.append((di, dj, dk))
    out = np.zeros(dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                if mask[i, j, k] != 1.0:
                    continue
                keep = 1.0
                for di, dj, dk in offsets:
                    a, b_, c = i + di, j + dj, k + dk
                    if not (0 <= a < dims[0] and 0 <= b_ < dims[1] and 0 <= c < dims[2]):
                        keep = 0.0
                        break
                    if mask[a, b_, c] != 1.0:
                        keep = 0.0
                        break
                out[i, j, k] = keep
    return out


def brute_phantom(grid: VolumeGrid, spec) -> np.ndarray:
    """Per-voxel containment of each voxel centre (origin at index dims//2); the last shape wins."""
    out = np.full(grid.dims, spec.background)
    for index in np.ndindex(*grid.dims):
        p = [(i - n // 2) * s for i, n, s in zip(index, grid.dims, grid.spacing)]
        for shape in spec.shapes:
            d = [p[a] - shape.center[a] for a in range(3)]
            if shape.kind == "sphere":
                inside = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= shape.size[0] * shape.size[0]
            elif shape.kind == "cylinder":
                a = "xyz".index(shape.axis)
                radial2 = sum(d[b] * d[b] for b in range(3) if b != a)
                inside = abs(d[a]) <= shape.size[1] / 2 and radial2 <= shape.size[0] * shape.size[0]
            else:
                inside = all(abs(d[a]) <= shape.size[a] / 2 for a in range(3))
            if inside:
                out[index] = shape.chi
    return out


def rot_x(deg: float) -> Orientation:
    t = np.deg2rad(deg)
    return Orientation((0.0, float(np.sin(t)), float(np.cos(t))))


def rot_y(deg: float) -> Orientation:
    t = np.deg2rad(deg)
    return Orientation((float(np.sin(t)), 0.0, float(np.cos(t))))


EZ = Orientation((0.0, 0.0, 1.0))


def random_volume(grid: VolumeGrid, rng, scale: float = 1.0) -> ScalarVolume:
    return ScalarVolume(grid, scale * rng.standard_normal(grid.dims))


def ones_volume(grid: VolumeGrid) -> ScalarVolume:
    return ScalarVolume(grid, np.ones(grid.dims))


@pytest.fixture
def grid16():
    return VolumeGrid((16, 16, 16))


@pytest.fixture
def grid8():
    return VolumeGrid((8, 8, 8))


@pytest.fixture(params=["1", "2"])
def threads(request, monkeypatch):
    """QSM_THREADS set to 1, then 2: the threaded passes must give the same bits."""
    monkeypatch.setenv("QSM_THREADS", request.param)
    return request.param
